package oraclestore

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestGridDescGoldenAddress pins the content address of the alpha21364 grid
// oracle at 48×48, with the default solver options and under a peak-bytes
// budget. Every record file written by a grid-fidelity run lives under one of
// these keys, so a change to the backend string or the hash layout would
// silently orphan warm stores; any such change must bump the address on
// purpose and update these constants with it.
func TestGridDescGoldenAddress(t *testing.T) {
	spec := testspec.Alpha21364()
	cfg := thermal.DefaultPackageConfig()
	for _, c := range []struct {
		opts    thermal.GridOptions
		backend string
		key     string
	}{
		{thermal.GridOptions{}, "grid-nd-48x48",
			"6a4eb0ca13e79dd351a58e3ea20ae44ecca58e7b352ccc824478b66acd75e31b"},
		{thermal.GridOptions{PeakBytesBudget: 1 << 30}, "grid-nd-48x48-budgeted",
			"b08a210b8425165ca9605bc59ee6212a8f48f2feebcb7783ca63aa7441de37d9"},
	} {
		desc := DescForGrid(spec.Floorplan(), cfg, spec.Profile(), 48, 48, c.opts)
		if desc.Backend != c.backend {
			t.Errorf("%+v: Backend = %q, want %q", c.opts, desc.Backend, c.backend)
		}
		key, err := desc.Key()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(key[:]); got != c.key {
			t.Errorf("%s: Key() = %s, want %s", c.backend, got, c.key)
		}
	}
}

// TestGridDescEqualKeysAnswerBitIdentical holds DescForGrid to its promise
// on the grid oracle itself: alpha at 48×48 with no budget, a budget below
// the out-of-core floor, a spill-forcing budget and a budget that fits in
// core. Any two of them with equal keys must answer every solo session and
// the all-core session bit for bit.
func TestGridDescEqualKeysAnswerBitIdentical(t *testing.T) {
	const n = 48
	spec := testspec.Alpha21364()
	fp, prof := spec.Floorplan(), spec.Profile()
	cfg := thermal.DefaultPackageConfig()
	var sessions [][]int
	var all []int
	for b := 0; b < fp.NumBlocks(); b++ {
		sessions = append(sessions, []int{b})
		all = append(all, b)
	}
	sessions = append(sessions, all)

	base, err := thermal.NewGridModel(fp, cfg, n, n)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	// Feasible (index arrays + column pointers + frontal scratch) with a
	// quarter of the factor values resident, so most panels spill.
	st := base.FactorStats()
	scratch := st.PeakFactorBytes - int64(st.FactorNNZ)*16
	spill := int64(st.FactorNNZ)*10 + int64(base.NumNodes()+1)*8 + scratch

	type answers struct {
		budget int64
		key    [32]byte
		temps  [][]float64
	}
	var seen []answers
	pairs := 0
	for _, budget := range []int64{0, 4096, spill, 1 << 40} {
		opts := thermal.GridOptions{PeakBytesBudget: budget, SpillDir: t.TempDir()}
		key, err := DescForGrid(fp, cfg, prof, n, n, opts).Key()
		if err != nil {
			t.Fatal(err)
		}
		gm, err := thermal.NewGridModelWithOptions(fp, cfg, n, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if budget == spill && gm.FactorStats().SpilledPanels == 0 {
			t.Fatalf("budget %d spilled nothing: %+v", budget, gm.FactorStats())
		}
		a := answers{budget: budget, key: key}
		o := core.NewGridOracle(gm, prof)
		for _, s := range sessions {
			temps, err := o.BlockTemps(s)
			if err != nil {
				t.Fatal(err)
			}
			a.temps = append(a.temps, temps)
		}
		if err := gm.Close(); err != nil {
			t.Fatal(err)
		}
		for _, prev := range seen {
			if prev.key != a.key {
				continue
			}
			pairs++
			for i, s := range sessions {
				for _, b := range s {
					if math.Float64bits(prev.temps[i][b]) != math.Float64bits(a.temps[i][b]) {
						t.Errorf("budgets %d and %d share a key but differ on session %v at block %d: %v vs %v",
							prev.budget, budget, s, b, prev.temps[i][b], a.temps[i][b])
					}
				}
			}
		}
		seen = append(seen, a)
	}
	if pairs == 0 {
		t.Fatal("no two option sets shared a key; the check compared nothing")
	}
}

// TestRecordFileAndJournalGoldenBytes pins the on-disk bytes of both
// append-only formats: a record file written by a fixed sequence of Puts (one
// of them a duplicate active set in another order, which must not append) and
// a RecordLog written by a fixed sequence of Appends. Warm stores and job
// journals written by earlier builds must keep loading, so any change to
// these digests is a format change and must be made on purpose.
func TestRecordFileAndJournalGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	st, sc := openSystem(t, dir)
	nb := sc.numBlocks
	for _, p := range []struct {
		active []int
		seed   float64
	}{
		{[]int{0, 2}, 40},
		{[]int{1}, 55.5},
		{[]int{2, 0}, 99}, // same set as the first: no record
		{[]int{3, 7, 5}, -1.25},
		{[]int{14}, 1e300},
	} {
		if err := sc.Put(p.active, tempsFor(nb, p.seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSHA256(t, sc.Path()); got != "f0a31002c1c71d1facd801086e0ad511608160616a1405e90f5351fbf6a264f3" {
		t.Errorf("record file sha256 = %s", got)
	}

	logPath := filepath.Join(dir, "jobs.wal")
	l, _ := openTestLog(t, logPath, RecordLogOptions{})
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, p := range [][]byte{[]byte("one"), []byte(`{"id":"two","state":"done"}`), big} {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSHA256(t, logPath); got != "53f819a28ed6b31c42535e21ce83ef9b0b95e2dd219e2bdf650a54658aba39cb" {
		t.Errorf("journal sha256 = %s", got)
	}
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
