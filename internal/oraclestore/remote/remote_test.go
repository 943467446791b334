package remote

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oraclestore"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// NodeFor returns the base URL of the node that owns key, so tests can
// predict placement.
func (c *Client) NodeFor(key [32]byte) string { return c.nodeFor(key).base }

func alphaDesc(t *testing.T) oraclestore.SystemDesc {
	t.Helper()
	spec := testspec.Alpha21364()
	return oraclestore.DescForBlockModel(spec.Floorplan(), thermal.DefaultPackageConfig(), spec.Profile())
}

// localFile opens a store in dir, puts the given records, and returns the
// system's key plus the raw record-file bytes from disk.
func localFile(t *testing.T, dir string, desc oraclestore.SystemDesc, puts [][]int) ([32]byte, []byte) {
	t.Helper()
	st, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	key, err := desc.Key()
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, 15)
	for _, active := range puts {
		for i := range temps {
			temps[i] = float64(len(active)*100 + i)
		}
		if err := sc.Put(active, slices.Clone(temps)); err != nil {
			t.Fatal(err)
		}
	}
	var data []byte
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tsoc") {
			data, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil || data == nil {
		t.Fatalf("reading local record file: %v", err)
	}
	return key, data
}

func startNode(t *testing.T) (*Node, *httptest.Server) {
	t.Helper()
	n, err := NewNode(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n, srv
}

func newTestClient(t *testing.T, addrs []string, opts ClientOptions) *Client {
	t.Helper()
	c, err := NewClient(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRingDeterministic: the same address set routes every key to the same
// node regardless of the order the addresses were listed in — the property
// that makes a fleet of independently configured workers shard coherently.
func TestRingDeterministic(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3"}
	rev := []string{"http://c:3", "http://b:2", "http://a:1"}
	c1 := newTestClient(t, addrs, ClientOptions{})
	c2 := newTestClient(t, rev, ClientOptions{})
	counts := map[string]int{}
	var key [32]byte
	for i := 0; i < 256; i++ {
		key[0], key[1] = byte(i), byte(i*7)
		n1, n2 := c1.NodeFor(key), c2.NodeFor(key)
		if n1 != n2 {
			t.Fatalf("key %d routed to %s vs %s under reordered addresses", i, n1, n2)
		}
		counts[n1]++
	}
	for _, a := range addrs {
		if counts[a] == 0 {
			t.Errorf("node %s owns no keys out of 256 — ring badly imbalanced: %v", a, counts)
		}
	}
}

func TestClientRejectsBadAddrs(t *testing.T) {
	if _, err := NewClient(nil, ClientOptions{}); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := NewClient([]string{"a:1", "a:1"}, ClientOptions{}); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := NewClient([]string{"  "}, ClientOptions{}); err == nil {
		t.Error("blank address accepted")
	}
}

// TestPutGetRoundTripAndMerge: push a file, fetch it back byte-identically,
// then push an overlapping superset and check the node merges (dedup) rather
// than appending blindly — and that a re-push of the same bytes adds nothing.
func TestPutGetRoundTripAndMerge(t *testing.T) {
	desc := alphaDesc(t)
	_, srv := startNode(t)
	c := newTestClient(t, []string{srv.URL}, ClientOptions{})

	key, fileA := localFile(t, t.TempDir(), desc, [][]int{{0, 1}, {2, 3}})
	if err := c.Push(key, fileA); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Fetch(key)
	if err != nil || !ok {
		t.Fatalf("fetch after push: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, fileA) {
		t.Fatal("fetched file differs from pushed file")
	}

	// A second worker's file: overlaps on {0,1}, adds {4,5}.
	_, fileB := localFile(t, t.TempDir(), desc, [][]int{{0, 1}, {4, 5}})
	if err := c.Push(key, fileB); err != nil {
		t.Fatal(err)
	}
	merged, ok, err := c.Fetch(key)
	if err != nil || !ok {
		t.Fatalf("fetch after merge: ok=%v err=%v", ok, err)
	}
	info, err := oraclestore.ValidateRecordFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 {
		t.Fatalf("merged file has %d records, want 3 (union of {01,23} and {01,45})", info.Records)
	}
	if !bytes.HasPrefix(merged, fileA) {
		t.Error("merge did not keep existing records first (non-deterministic union)")
	}

	// Idempotency: same push again must add nothing.
	if err := c.Push(key, fileB); err != nil {
		t.Fatal(err)
	}
	again, _, err := c.Fetch(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, merged) {
		t.Error("re-pushing the same file changed the stored bytes")
	}
}

func TestFetchUnknownKeyIsCleanMiss(t *testing.T) {
	_, srv := startNode(t)
	c := newTestClient(t, []string{srv.URL}, ClientOptions{})
	var key [32]byte
	key[0] = 0xAB
	data, ok, err := c.Fetch(key)
	if err != nil || ok || data != nil {
		t.Fatalf("unknown key: data=%v ok=%v err=%v, want nil/false/nil", data, ok, err)
	}
}

// TestNodeRejectsBadPuts: wrong address, corrupt bytes, and malformed paths
// are all 4xx — the node never stores what it cannot re-validate.
func TestNodeRejectsBadPuts(t *testing.T) {
	desc := alphaDesc(t)
	_, srv := startNode(t)
	key, file := localFile(t, t.TempDir(), desc, [][]int{{0, 1}})

	put := func(path string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	hex64 := strings.Repeat("0", 64)
	if code := put("/records/"+hex64, file); code != http.StatusBadRequest {
		t.Errorf("mismatched address: status %d, want 400", code)
	}
	if code := put("/records/nothex", file); code != http.StatusBadRequest {
		t.Errorf("malformed address: status %d, want 400", code)
	}
	garbage := append([]byte("TSORACL1garbage"), bytes.Repeat([]byte{0xFF}, 64)...)
	var keyHex strings.Builder
	for _, b := range key {
		keyHex.WriteString(string("0123456789abcdef"[b>>4]) + string("0123456789abcdef"[b&0xF]))
	}
	if code := put("/records/"+keyHex.String(), garbage); code != http.StatusBadRequest {
		t.Errorf("corrupt body: status %d, want 400", code)
	}
}

// TestTornTailDroppedOnFetch: a file whose tail is torn on the node's disk is
// served as its valid prefix — the client absorbs the good records and the
// torn bytes never cross the wire.
func TestTornTailDroppedOnFetch(t *testing.T) {
	desc := alphaDesc(t)
	n, srv := startNode(t)
	c := newTestClient(t, []string{srv.URL}, ClientOptions{})
	key, file := localFile(t, t.TempDir(), desc, [][]int{{0, 1}, {2, 3}})
	if err := c.Push(key, file); err != nil {
		t.Fatal(err)
	}
	// Tear the node's copy: chop 5 bytes off the second record.
	path := n.recordPath(key)
	if err := os.WriteFile(path, file[:len(file)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Fetch(key)
	if err != nil || !ok {
		t.Fatalf("fetch of torn file: ok=%v err=%v", ok, err)
	}
	info, err := oraclestore.ValidateRecordFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || int64(len(got)) != info.ValidLen {
		t.Fatalf("torn fetch returned %d records / %d bytes, want the 1-record valid prefix", info.Records, len(got))
	}
}

// TestDeadNodeDegrades: a store configured with an unreachable remote keeps
// serving — fetch errors are absorbed by the read-through path, and the
// breaker stops hammering the dead node after its failure threshold.
func TestDeadNodeDegrades(t *testing.T) {
	desc := alphaDesc(t)
	var dials atomic.Int64
	// A transport that always fails, counting attempts.
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		dials.Add(1)
		return nil, os.ErrDeadlineExceeded
	})
	c := newTestClient(t, []string{"dead:1"}, ClientOptions{
		Transport: rt,
		Timeout:   50 * time.Millisecond,
		Breaker:   oraclestore.BreakerPolicy{Failures: 2, Probe: time.Hour},
	})

	st, err := oraclestore.OpenWithOptions(t.TempDir(), oraclestore.StoreOptions{Remote: c})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc, err := st.System(desc)
	if err != nil {
		t.Fatalf("System must not error on a dead remote: %v", err)
	}
	if err := sc.Put([]int{0, 1}, make([]float64, 15)); err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Get([]int{0, 1}); !ok {
		t.Fatal("local store stopped serving under dead remote")
	}
	// Push attempts degrade too, and after the threshold the breaker fails
	// fast without touching the transport.
	for i := 0; i < 5; i++ {
		if _, err := st.PushRemote(); err != nil {
			t.Fatalf("PushRemote returned an error under dead remote: %v", err)
		}
	}
	if got := dials.Load(); got > 2 {
		t.Errorf("dead node dialed %d times, breaker (threshold 2, probe 1h) should have capped it at 2", got)
	}
	rs := st.RemoteStats()
	if rs.FetchErrors == 0 || rs.PushErrors == 0 {
		t.Errorf("degradation not counted: %+v", rs)
	}
}

// TestReadThroughWarmsSecondProcess: process A computes and pushes; process B
// (fresh directory, same cluster) opens the system and finds A's answers.
func TestReadThroughWarmsSecondProcess(t *testing.T) {
	desc := alphaDesc(t)
	_, srv := startNode(t)

	cA := newTestClient(t, []string{srv.URL}, ClientOptions{})
	stA, err := oraclestore.OpenWithOptions(t.TempDir(), oraclestore.StoreOptions{Remote: cA})
	if err != nil {
		t.Fatal(err)
	}
	scA, err := stA.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, 15)
	for i := range temps {
		temps[i] = 300 + float64(i)/7
	}
	if err := scA.Put([]int{2, 5}, temps); err != nil {
		t.Fatal(err)
	}
	if pushed, err := stA.PushRemote(); err != nil || pushed != 1 {
		t.Fatalf("PushRemote = %d, %v; want 1, nil", pushed, err)
	}
	// Nothing new since the push: a second call must ship nothing.
	if pushed, _ := stA.PushRemote(); pushed != 0 {
		t.Errorf("clean store re-pushed %d files, want 0 (dirty tracking)", pushed)
	}
	stA.Close()

	cB := newTestClient(t, []string{srv.URL}, ClientOptions{})
	stB, err := oraclestore.OpenWithOptions(t.TempDir(), oraclestore.StoreOptions{Remote: cB})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	scB, err := stB.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := scB.Get([]int{5, 2})
	if !ok {
		t.Fatal("remote tier did not warm the second process")
	}
	for i := range temps {
		if got[i] != temps[i] {
			t.Fatalf("absorbed temps[%d] = %g, want %g (bit-exact through the wire)", i, got[i], temps[i])
		}
	}
	rs := stB.RemoteStats()
	if rs.FetchHits != 1 || rs.AbsorbedRecords != 1 {
		t.Errorf("RemoteStats = %+v, want 1 fetch hit / 1 absorbed record", rs)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
