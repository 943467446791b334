package core

// sessionBuilder grows one candidate session incrementally. The naive
// formulation re-derives the active mask and every member's equivalent
// conductance from scratch for each candidate — O(k²) work and two slice
// allocations per scanned core. The builder instead maintains the active
// mask, each member's conductance sum and the running maximum STC term, so
// testing a candidate costs O(degree(candidate)) and allocates nothing.
//
// Key facts making the incremental max exact:
//
//   - Adding core c only changes the equivalent conductance of c's active
//     neighbours (each loses the lateral path g(c,m)), so only those terms
//     need re-evaluation.
//   - Conductances only decrease as cores join, so every member's STC term
//     is monotone non-decreasing and the running max never goes stale.
//   - A term is also monotone non-decreasing in the member's weight. So when
//     weights only grow and the remaining cores are unchanged, a fresh scan
//     returns the same members in the same order, with the same maxTerm bits,
//     exactly when rescore under the grown weights is still within the
//     limit: every accepted step's max is at most those final terms, and
//     every rejected step's max can only have grown.
//
// A builder is reused across sessions of one generator run; reset() clears
// it in O(previous session size).
type sessionBuilder struct {
	sm      *SessionModel
	active  []bool
	gsum    []float64 // equivalent conductance of each *active* core, W/K
	members []int
	maxTerm float64 // current weighted STC of the session under construction
}

func newSessionBuilder(sm *SessionModel) *sessionBuilder {
	return &sessionBuilder{
		sm:      sm,
		active:  make([]bool, sm.n),
		gsum:    make([]float64, sm.n),
		members: make([]int, 0, sm.n),
	}
}

// reset clears the builder for the next session.
func (b *sessionBuilder) reset() {
	for _, c := range b.members {
		b.active[c] = false
	}
	b.members = b.members[:0]
	b.maxTerm = 0
}

// weight returns the candidate-ordering weight of core i (nil → 1).
func weight(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

// term computes the weighted STC term P²·W/(g·scale) of one core.
func (b *sessionBuilder) term(i int, g float64, weights []float64) float64 {
	p := b.sm.power[i]
	return p * p * weight(weights, i) / (g * b.sm.scale)
}

// tryAdd tests whether adding core c keeps the session's weighted STC within
// limit, committing the addition when it does. It reports whether c joined.
func (b *sessionBuilder) tryAdd(c int, weights []float64, limit float64) bool {
	sm := b.sm
	// Candidate's own conductance: full lateral sum minus the paths to
	// already-active neighbours (the paper's modification 2 removes core-to-
	// core lateral paths between concurrently tested cores).
	gc := sm.gBase[c] + sm.latTotal[c]
	for _, e := range sm.lat[c] {
		if b.active[e.to] {
			gc -= e.g
		}
	}
	newMax := b.maxTerm
	if t := b.term(c, gc, weights); t > newMax {
		newMax = t
	}
	// Each active neighbour of c loses one lateral path; re-evaluate just
	// those members' terms.
	for _, e := range sm.lat[c] {
		if b.active[e.to] {
			if t := b.term(e.to, b.gsum[e.to]-e.g, weights); t > newMax {
				newMax = t
			}
		}
	}
	if newMax > limit {
		return false
	}
	for _, e := range sm.lat[c] {
		if b.active[e.to] {
			b.gsum[e.to] -= e.g
		}
	}
	b.active[c] = true
	b.gsum[c] = gc
	b.members = append(b.members, c)
	b.maxTerm = newMax
	return true
}

// rescore returns the weighted STC of the current members under weights: the
// max of each member's term at its final conductance, the same values (and so
// the same bits) a fresh scan that accepts these members ends on.
func (b *sessionBuilder) rescore(weights []float64) float64 {
	var mx float64
	for _, m := range b.members {
		if t := b.term(m, b.gsum[m], weights); t > mx {
			mx = t
		}
	}
	return mx
}

// soloTerm returns the weighted STC core c would have alone in a session.
func (b *sessionBuilder) soloTerm(c int, weights []float64) float64 {
	return b.term(c, b.sm.gBase[c]+b.sm.latTotal[c], weights)
}

// forceSingleton commits core c as the sole member of the (reset) builder.
func (b *sessionBuilder) forceSingleton(c int, weights []float64) {
	b.active[c] = true
	b.gsum[c] = b.sm.gBase[c] + b.sm.latTotal[c]
	b.members = append(b.members, c)
	b.maxTerm = b.soloTerm(c, weights)
}
