package linalg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// spillTestGrid builds an nx×ny five-point Laplacian with per-node ground
// conductance — the same structure class as the thermal grids, strictly
// diagonally dominant so it is SPD.
func spillTestGrid(nx, ny int, rng *rand.Rand) *Sparse {
	b := NewSparseBuilder(nx * ny)
	g := func() float64 {
		if rng == nil {
			return 1.0
		}
		return 0.5 + rng.Float64()
	}
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			a := i*nx + j
			if j+1 < nx {
				b.AddConductance(a, a+1, g())
			}
			if i+1 < ny {
				b.AddConductance(a, a+nx, g())
			}
			b.AddGround(a, 0.25+g())
		}
	}
	return b.Build()
}

// spillFixedBytes mirrors FactorizeSpill's unspillable floor.
func spillFixedBytes(ss *SuperSymbolic) int64 {
	return int64(len(ss.li))*8 + int64(len(ss.sym.colPtr))*8 + ss.WorkspaceBytes()
}

func spillMaxSegBytes(ss *SuperSymbolic) int64 {
	mx := 0
	for s := 0; s < ss.ns; s++ {
		if n := ss.pbase[s+1] - ss.pbase[s]; n > mx {
			mx = n
		}
	}
	return int64(mx) * 8
}

// TestSpilledSolveBitIdentical is the tentpole contract: a factor computed
// under a budget tight enough to force spilling must hold the same bits as
// the in-core factor, and every solve entry point must answer byte-for-byte
// identically while streaming spilled panels from disk.
func TestSpilledSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := spillTestGrid(48, 48, rng)
	n := 48 * 48
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes()
	inCore, err := ss.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
	spilled, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()

	st := spilled.SpillStats()
	if st.SpilledPanels == 0 {
		t.Fatalf("budget %d did not force any spilling (panels=%d, factor=%d bytes)",
			budget, ss.ns, int64(sym.LNNZ())*8)
	}
	if st.Degraded {
		t.Fatal("unexpected degraded run on a healthy filesystem")
	}
	if st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
	}
	t.Logf("panels=%d spilled=%d (%d bytes) reloaded=%d peak=%d budget=%d",
		ss.ns, st.SpilledPanels, st.SpilledBytes, st.ReloadedPanels, st.PeakResidentBytes, budget)

	// The factor's value segments are bit-identical to the in-core lx.
	buf := make([]float64, int(spillMaxSegBytes(ss)/8))
	for sn := 0; sn < ss.ns; sn++ {
		vals, off, err := spilled.panelVals(sn, &buf)
		if err != nil {
			t.Fatalf("panel %d: %v", sn, err)
		}
		for p := ss.pbase[sn]; p < ss.pbase[sn+1]; p++ {
			if got, want := vals[p-off], inCore.lx[p]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("panel %d entry %d: spilled %x, in-core %x",
					sn, p, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	// SolveInto and SolveSparseInto both stream identically.
	rhs := make([][]float64, 4)
	for r := range rhs {
		rhs[r] = make([]float64, n)
		for i := range rhs[r] {
			rhs[r][i] = rng.NormFloat64()
		}
	}
	for r, b := range rhs {
		want := make([]float64, n)
		got := make([]float64, n)
		if err := inCore.SolveInto(want, b); err != nil {
			t.Fatal(err)
		}
		if err := spilled.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SolveInto rhs %d entry %d: %x vs %x", r, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	sparseB := make([]float64, n)
	nz := []int{3, 7, 100, n - 1}
	for _, i := range nz {
		sparseB[i] = 1.0
	}
	want := make([]float64, n)
	got := make([]float64, n)
	if err := inCore.SolveSparseInto(want, sparseB, nz); err != nil {
		t.Fatal(err)
	}
	if err := spilled.SolveSparseInto(got, sparseB, nz); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("SolveSparseInto entry %d differs", i)
		}
	}
}

// TestFactorizeSpillBudgetNeverExceeded fuzzes grid shapes, panel widths and
// budget tightness and asserts the accounting invariant: a successful
// non-degraded run's peak resident bytes never exceed the budget, and the
// factor it returns solves correctly.
func TestFactorizeSpillBudgetNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		nx := 8 + rng.Intn(40)
		ny := 8 + rng.Intn(40)
		panel := []int{4, 8, 16, 32}[rng.Intn(4)]
		s := spillTestGrid(nx, ny, rng)
		sym, err := NewCholSymbolic(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := sym.supernodes(panel, relaxZeros, relaxRatio)
		fixed := spillFixedBytes(ss)
		maxSeg := spillMaxSegBytes(ss)
		// Headroom from just-feasible to roomy; rung 0 is below the floor and
		// must fail cleanly with ErrPeakBudget.
		budgets := []int64{
			fixed - 1,
			fixed + maxSeg,
			fixed + 2*maxSeg + rng.Int63n(maxSeg+1),
			fixed + int64(sym.LNNZ())*4, // ~half the factor resident
		}
		for bi, budget := range budgets {
			ch, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: t.TempDir()})
			if bi == 0 {
				if !errors.Is(err, ErrPeakBudget) {
					t.Fatalf("trial %d: infeasible budget %d: got err=%v, want ErrPeakBudget", trial, budget, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (%dx%d panel=%d budget=%d): %v", trial, nx, ny, panel, budget, err)
			}
			st := ch.SpillStats()
			if st.Degraded {
				t.Fatalf("trial %d budget %d: degraded on healthy fs", trial, budget)
			}
			if st.PeakResidentBytes > budget {
				t.Fatalf("trial %d (%dx%d panel=%d): peak %d exceeds budget %d",
					trial, nx, ny, panel, st.PeakResidentBytes, budget)
			}
			// Spot-check the solve: A·x must reproduce b.
			n := nx * ny
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			if err := ch.SolveInto(x, b); err != nil {
				t.Fatal(err)
			}
			ax, err := s.MulVec(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range b {
				if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
					t.Fatalf("trial %d budget %d: residual %g at %d", trial, budget, ax[i]-b[i], i)
				}
			}
			ch.Close()
		}
	}
}

// keepFS wraps the OS filesystem but refuses Remove, so tests can reach the
// spill file by name after factorization to corrupt or inspect it.
type keepFS struct {
	removed []string
}

func (k *keepFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (k *keepFS) CreateTemp(dir, pattern string) (SpillFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (k *keepFS) Remove(name string) error {
	k.removed = append(k.removed, name)
	return fmt.Errorf("keepFS: refusing to remove %s", name)
}

// TestSpillTornFrameDetected corrupts one byte of an on-disk panel frame and
// requires the next streaming solve to fail with ErrSpill — CRC framing turns
// torn or rotted spill bytes into an error instead of silent numeric garbage.
func TestSpillTornFrameDetected(t *testing.T) {
	s := spillTestGrid(32, 32, nil)
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes()
	fs := &keepFS{}
	dir := t.TempDir()
	budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
	ch, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if ch.SpillStats().SpilledPanels == 0 {
		t.Fatal("no spilling under tight budget")
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one kept spill file, got %v (err=%v)", ents, err)
	}
	path := dir + "/" + ents[0].Name()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The factor reads through its (still-open) handle on the same inode.
	n := 32 * 32
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	solveErr := ch.SolveInto(x, b)
	if !errors.Is(solveErr, ErrSpill) {
		t.Fatalf("corrupted frame: got err=%v, want ErrSpill", solveErr)
	}
}

// TestSpillCloseRemovesFile verifies Close releases the spill file; with the
// unlink-at-create refused by keepFS, Close must remove it by name.
func TestSpillCloseRemovesFile(t *testing.T) {
	s := spillTestGrid(32, 32, nil)
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes()
	dir := t.TempDir()
	budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
	ch, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ch.SpillStats().SpilledPanels == 0 {
		t.Fatal("no spilling under tight budget")
	}
	// The default OS filesystem unlinks at create: the directory must
	// already be empty while the factor still solves from the open handle.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill file not unlinked at create: %v", ents)
	}
	n := 32 * 32
	b := make([]float64, n)
	b[3] = 1
	x := make([]float64, n)
	if err := ch.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := ch.SolveInto(x, b); err == nil {
		t.Fatal("solve after Close should fail for a spilled factor")
	}
}

// memSpillFile is an in-memory SpillFile: writes append at the seek offset,
// reads follow *os.File's ReadAt contract (io.EOF on a short read).
type memSpillFile struct {
	b   []byte
	pos int64
}

func (m *memSpillFile) Write(p []byte) (int, error) {
	m.b = append(m.b[:m.pos], p...)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memSpillFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("memSpillFile: negative offset")
	}
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memSpillFile) Seek(off int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return 0, errors.New("memSpillFile: only SeekStart")
	}
	m.pos = off
	return off, nil
}

func (m *memSpillFile) Truncate(size int64) error {
	m.b = m.b[:size]
	return nil
}

func (m *memSpillFile) Close() error { return nil }
func (m *memSpillFile) Sync() error  { return nil }
func (m *memSpillFile) Name() string { return "mem" }

// spillFrame is the frame writeFrame appends for seg as panel d.
func spillFrame(t testing.TB, d int, seg []float64) []byte {
	pbase := make([]int, d+2)
	pbase[d+1] = len(seg)
	segs := make([][]float64, d+1)
	segs[d] = seg
	f := &memSpillFile{}
	ctl := &spillCtl{ss: &SuperSymbolic{ns: d + 1, pbase: pbase}, f: f, segs: segs, written: make([]int64, d+1)}
	if err := ctl.writeFrame(d); err != nil {
		t.Fatal(err)
	}
	return f.b
}

// FuzzSpillFrame reads arbitrary bytes as panel d's frame at offset off into
// a count-float destination, the way a reload or streaming solve reads the
// spill file back. readPanel must never panic, every error must wrap
// ErrSpill, it may allocate no more than the destination's own size (plus an
// error message), and a frame it accepts is exactly the frame writeFrame
// writes for the decoded floats. The seeds are real frames — one spanning two
// I/O chunks — which decode bit-identically, plus torn and forged variants.
func FuzzSpillFrame(f *testing.F) {
	seg := []float64{1.5, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff8000000000abc), -3e300}
	frame := spillFrame(f, 3, seg)
	big := make([]float64, spillChunk+3)
	for i := range big {
		big[i] = float64(i) / 7
	}
	for _, c := range []struct {
		frame []byte
		want  []float64
	}{{frame, seg}, {spillFrame(f, 0, big), big}} {
		got := make([]float64, len(c.want))
		d := int(c.frame[4])
		sp := &spillStore{f: &memSpillFile{b: c.frame}, off: make([]int64, d+1)}
		if err := sp.readPanel(d, got); err != nil {
			f.Fatalf("a written frame of %d floats: %v", len(c.want), err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(c.want[i]) {
				f.Fatalf("float %d of %d decoded as %x, want %x", i, len(c.want), math.Float64bits(got[i]), math.Float64bits(c.want[i]))
			}
		}
	}
	f.Add(frame, uint8(3), uint32(len(seg)), uint16(0))
	f.Add(frame, uint8(2), uint32(len(seg)), uint16(0))
	f.Add(frame, uint8(3), uint32(len(seg)+1), uint16(0))
	f.Add(frame[:len(frame)-3], uint8(3), uint32(len(seg)), uint16(0))
	f.Add(append([]byte{0, 0}, frame...), uint8(3), uint32(len(seg)), uint16(2))
	forged := bytes.Clone(frame)
	forged[8], forged[9], forged[10], forged[11] = 0xff, 0xff, 0xff, 0x7f
	f.Add(forged, uint8(3), uint32(1<<31-1), uint16(0))

	f.Fuzz(func(t *testing.T, x []byte, d uint8, count uint32, off uint16) {
		dst := make([]float64, count%(2*spillChunk+1))
		offs := make([]int64, int(d)+1)
		offs[d] = int64(off)
		sp := &spillStore{f: &memSpillFile{b: x}, off: offs}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := sp.readPanel(int(d), dst)
		runtime.ReadMemStats(&after)
		if n, most := after.TotalAlloc-before.TotalAlloc, uint64(len(dst))*8+4096; n > most {
			t.Errorf("reading into %d floats allocated %d bytes, over %d", len(dst), n, most)
		}
		if err != nil {
			if !errors.Is(err, ErrSpill) {
				t.Fatalf("error %v does not wrap ErrSpill", err)
			}
			return
		}
		want := spillFrame(t, int(d), dst)
		if got := x[off:min(len(x), int(off)+len(want))]; !bytes.Equal(got, want) {
			t.Fatalf("accepted frame of %d bytes is not the frame written for its %d floats", len(got), len(dst))
		}
	})
}
