package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Claim is one checkable statement from the paper's §4 narrative.
type Claim struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// ClaimsResult evaluates the paper's qualitative claims against a generated
// Table 1 grid. These are the "shape" assertions the reproduction must hold;
// they are asserted by the integration tests and printable from the CLI.
type ClaimsResult struct {
	Claims []Claim
}

// Render formats the claim checklist.
func (c *ClaimsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Paper §4 claims vs this reproduction\n")
	for _, cl := range c.Claims {
		mark := "PASS"
		if !cl.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "[%s] %-14s %s\n       %s\n", mark, cl.ID, cl.Text, cl.Detail)
	}
	return sb.String()
}

// CheckClaims derives the claim checklist from a Table 1 grid.
func CheckClaims(t *Table1Result) *ClaimsResult {
	out := &ClaimsResult{}
	add := func(id, text string, pass bool, detail string) {
		out.Claims = append(out.Claims, Claim{ID: id, Text: text, Pass: pass, Detail: detail})
	}

	// C1: thermal safety — every committed schedule stays below its TL.
	worstMargin := math.Inf(1)
	pass := true
	for _, r := range t.Rows {
		margin := r.TL - r.MaxTemp
		worstMargin = math.Min(worstMargin, margin)
		if margin <= 0 {
			pass = false
		}
	}
	add("safety", "every generated schedule is thermal-safe (maxT < TL)",
		pass, fmt.Sprintf("worst margin %.2f K", worstMargin))

	tls := uniqueTLs(t)
	lo, hi := tls[0], tls[len(tls)-1]

	// C2: relaxing STCL shortens (or keeps) the schedule per TL.
	pass = true
	detail := ""
	for _, tl := range tls {
		rows := t.RowsForTL(tl)
		tight, relaxed := rows[0], rows[len(rows)-1]
		if relaxed.Length > tight.Length {
			pass = false
			detail += fmt.Sprintf("TL=%.0f: %.0f→%.0f; ", tl, tight.Length, relaxed.Length)
		}
	}
	if detail == "" {
		detail = "relaxed-STCL length <= tight-STCL length for every TL"
	}
	add("stcl-length", "relaxed STCL yields schedules no longer than tight STCL", pass, detail)

	// C3: relaxed STCL costs more simulation effort (compare row extremes).
	pass = true
	detail = ""
	for _, tl := range tls {
		rows := t.RowsForTL(tl)
		tight, relaxed := rows[0], rows[len(rows)-1]
		if relaxed.Effort < tight.Effort {
			pass = false
			detail += fmt.Sprintf("TL=%.0f: %.0f→%.0f; ", tl, tight.Effort, relaxed.Effort)
		}
	}
	if detail == "" {
		detail = "relaxed-STCL effort >= tight-STCL effort for every TL"
	}
	add("stcl-effort", "relaxed STCL requires more simulation effort", pass, detail)

	// C4: raising TL shortens schedules (compare TL extremes per STCL).
	pass = true
	detail = ""
	for _, stcl := range uniqueSTCLs(t) {
		a, b := t.Row(lo, stcl), t.Row(hi, stcl)
		if a == nil || b == nil {
			continue
		}
		if b.Length > a.Length {
			pass = false
			detail += fmt.Sprintf("STCL=%.0f: %.0f→%.0f; ", stcl, a.Length, b.Length)
		}
	}
	if detail == "" {
		detail = fmt.Sprintf("length at TL=%.0f <= length at TL=%.0f for every STCL", hi, lo)
	}
	add("tl-length", "raising TL yields schedules no longer than at tight TL", pass, detail)

	// C5: very tight STCL finds the schedule on the first attempt at
	// relaxed TL (effort == length).
	r := t.Row(hi, uniqueSTCLs(t)[0])
	pass = r != nil && math.Abs(r.Effort-r.Length) < 1e-9
	if r != nil {
		detail = fmt.Sprintf("TL=%.0f STCL=%.0f: effort %.0f vs length %.0f", hi, r.STCL, r.Effort, r.Length)
	} else {
		detail = "row missing"
	}
	add("first-try", "tight STCL finds a thermal-safe schedule on the first attempt", pass, detail)

	// C6: short schedules use the temperature allowance — max temperature
	// approaches TL for the most aggressive row of the highest TL.
	rows := t.RowsForTL(hi)
	var bestShort *Table1Row
	for i := range rows {
		if bestShort == nil || rows[i].Length < bestShort.Length ||
			(rows[i].Length == bestShort.Length && rows[i].MaxTemp > bestShort.MaxTemp) {
			bestShort = &rows[i]
		}
	}
	pass = bestShort != nil && hi-bestShort.MaxTemp <= 10
	if bestShort != nil {
		detail = fmt.Sprintf("shortest TL=%.0f schedule (%.0f s) peaks %.2f K below TL",
			hi, bestShort.Length, hi-bestShort.MaxTemp)
	} else {
		detail = "row missing"
	}
	add("temp-near-tl", "aggressive schedules push max temperature close to TL", pass, detail)

	// C7: for high TL and low STCL the max temperature stays well below TL —
	// the STCL constraint dominates.
	r = t.Row(hi, uniqueSTCLs(t)[0])
	pass = r != nil && hi-r.MaxTemp >= 8
	if r != nil {
		detail = fmt.Sprintf("TL=%.0f STCL=%.0f: maxT %.2f °C, %.1f K below TL (paper: up to 35 K)",
			hi, r.STCL, r.MaxTemp, hi-r.MaxTemp)
	} else {
		detail = "row missing"
	}
	add("stcl-dominates", "at high TL and low STCL the STCL constraint binds, not TL", pass, detail)

	// C8: per-TL schedule-length spread of >= 2× (paper reports up to 3.5×).
	worstSpread := math.Inf(1)
	for _, tl := range tls {
		rows := t.RowsForTL(tl)
		mn, mx := math.Inf(1), 0.0
		for _, r := range rows {
			mn = math.Min(mn, r.Length)
			mx = math.Max(mx, r.Length)
		}
		worstSpread = math.Min(worstSpread, mx/mn)
	}
	spreadHi := 0.0
	{
		rows := t.RowsForTL(hi)
		mn, mx := math.Inf(1), 0.0
		for _, r := range rows {
			mn = math.Min(mn, r.Length)
			mx = math.Max(mx, r.Length)
		}
		spreadHi = mx / mn
	}
	pass = spreadHi >= 2
	add("stcl-tradeoff", "choosing STCL trades schedule length by >= 2× (paper: up to 3.5×)",
		pass, fmt.Sprintf("spread at TL=%.0f: %.1f×; smallest per-TL spread: %.1f×", hi, spreadHi, worstSpread))

	return out
}

func uniqueTLs(t *Table1Result) []float64 {
	var out []float64
	seen := map[float64]bool{}
	for _, r := range t.Rows {
		if !seen[r.TL] {
			seen[r.TL] = true
			out = append(out, r.TL)
		}
	}
	return out
}

func uniqueSTCLs(t *Table1Result) []float64 {
	var out []float64
	seen := map[float64]bool{}
	for _, r := range t.Rows {
		if !seen[r.STCL] {
			seen[r.STCL] = true
			out = append(out, r.STCL)
		}
	}
	return out
}
