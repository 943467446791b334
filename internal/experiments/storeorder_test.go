package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/oraclestore"
	"repro/internal/thermal"
)

// TestBlockModelStoreFileDeterministic: a cold block-model run appends its
// simulations to the store in one order whatever its goroutines finish
// first. Phase 1's misses reach the store oracle as one batch, which
// persists them in index order after the fan-out returns, so two cold runs
// of one system write byte-identical record files.
func TestBlockModelStoreFileDeterministic(t *testing.T) {
	forceParallelism(t, 4)
	spec, err := ScalingSpec(60, 11)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for run := 0; run < 3; run++ {
		dir := t.TempDir()
		st, err := oraclestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		env, err := NewEnvWithOptions(spec, thermal.DefaultPackageConfig(), EnvOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Generate(core.Config{TL: 140, STCL: 60, AutoRaiseTL: true}); err != nil {
			t.Fatal(err)
		}
		if n := env.StoreCache.Len(); n <= spec.NumCores() {
			t.Fatalf("run %d persisted %d records, want more than the %d solos", run, n, spec.NumCores())
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// The run opened one system, so the store holds one record file.
		paths, err := filepath.Glob(filepath.Join(dir, "*", "*.tsoc"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("run %d record files = %v (%v), want exactly one", run, paths, err)
		}
		got, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("cold run %d wrote a different record file (%d bytes vs %d)", run, len(got), len(want))
		}
	}
}
