package experiments

import (
	"net/http/httptest"
	"testing"

	"repro/internal/oraclestore"
	"repro/internal/oraclestore/remote"
)

// TestShardedStoreByteIdentical is the remote tier's end-to-end check: a
// 4-scenario fleet sweep whose store shards over a 2-node in-process cluster
// renders byte-identically to the single-store run — cold, and warm from a
// fresh local dir with the answers fetched from the cluster — and with one
// node dead the sweep still succeeds with the cold rows. Runs under -race in
// CI.
func TestShardedStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("4-scenario sharded fleet in -short mode")
	}
	scens, err := DefaultFleet(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(st *oraclestore.Store) *FleetResult {
		t.Helper()
		res, err := (&Fleet{Scenarios: scens, TLs: []float64{165}, STCLs: []float64{60}, Store: st}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Single-store baseline: one local dir, cold then warm.
	dir := t.TempDir()
	st, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldBase := run(st)
	st.Close()
	if st, err = oraclestore.Open(dir); err != nil {
		t.Fatal(err)
	}
	warmBase := run(st)
	st.Close()

	var nodes []*httptest.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		node, err := remote.NewNode(t.TempDir(), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(node.Handler())
		t.Cleanup(srv.Close)
		nodes, addrs = append(nodes, srv), append(addrs, srv.URL)
	}
	// sharded opens a store on a fresh local dir backed by the cluster.
	sharded := func() *oraclestore.Store {
		t.Helper()
		c, err := remote.NewClient(addrs, remote.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := oraclestore.OpenWithOptions(t.TempDir(), oraclestore.StoreOptions{Remote: c})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	// Cold: everything recomputes, so the render (schedules and every
	// counter column) matches the cold single-store run; then push, as
	// `experiments -storenodes` does before it exits.
	cold := sharded()
	if got, want := run(cold).Render(), coldBase.Render(); got != want {
		t.Errorf("cold sharded render differs from single-store:\n--- single-store ---\n%s--- sharded ---\n%s", want, got)
	}
	if pushed, err := cold.PushRemote(); err != nil || pushed == 0 {
		t.Fatalf("cold sweep pushed %d files to the cluster (err %v)", pushed, err)
	}

	// Warm: a fresh local dir warms only through the cluster.
	warm := sharded()
	if got, want := run(warm).Render(), warmBase.Render(); got != want {
		t.Errorf("warm sharded render differs from warm single-store:\n--- single-store ---\n%s--- sharded ---\n%s", want, got)
	}
	if warm.RemoteStats().FetchHits == 0 {
		t.Error("warm sharded sweep had no tier-3 fetch hits")
	}

	// Node 0 dead: its key range degrades to local-only, so the sweep
	// completes with the cold schedules and no error.
	nodes[0].Close()
	degraded := run(sharded())
	for i := range degraded.Scenarios {
		got, want := degraded.Scenarios[i], coldBase.Scenarios[i]
		for j := range got.Rows {
			if got.Rows[j] != want.Rows[j] {
				t.Errorf("%s cell %d under dead node: row %+v != %+v", got.Name, j, got.Rows[j], want.Rows[j])
			}
		}
	}
}
