package oraclestore

import (
	"encoding/hex"
	"testing"

	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestGridDescGoldenAddress pins the content address of the alpha21364 grid
// oracle at 48×48, with the default solver options and with a starved fill
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
		{thermal.GridOptions{FillBudget: 256}, "grid-nd-48x48-fb256",
			"8ebbd5a5d661fe6a029195150d54c5e2a7c2ebf217c8442ae779fd9ec025eb07"},
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
