package remote

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/oraclestore"
)

// Node is one thermstore shard: a directory of record files served over the
// GET/PUT /records/{addr} protocol. A PUT merges the incoming file into the
// node's copy record-by-record (union, existing-first) and publishes the
// result atomically via temp+rename, so concurrent pushes from many workers
// converge and a crashed node never exposes a half-written file. A GET serves
// the file's valid prefix — the node re-validates on every read, so local
// corruption is served as a miss on the damaged tail, never as bad bytes.
type Node struct {
	dir  string
	logf func(format string, args ...any)

	// mu serialises the read-merge-publish cycle of PUTs. One lock for the
	// whole node is deliberate: a shard owns ~1/N of the key space and merge
	// is microseconds of CPU, so per-key locking buys nothing yet.
	mu sync.Mutex
}

// NewNode opens (creating if needed) a shard over dir. logf may be nil.
func NewNode(dir string, logf func(format string, args ...any)) (*Node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("remote: node dir: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Node{dir: dir, logf: logf}, nil
}

// recordPath fans files out over 256 two-hex-digit subdirectories, the usual
// guard against one flat directory of many thousands of entries.
func (n *Node) recordPath(key [32]byte) string {
	h := hex.EncodeToString(key[:])
	return filepath.Join(n.dir, h[:2], h+".tsoc")
}

// Handler returns the node's HTTP handler: GET/PUT /records/{addr} plus a
// trivial /healthz.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/records/", n.handleRecords)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// parseAddr extracts the 64-hex-digit content address from the request path.
func parseAddr(path string) ([32]byte, bool) {
	var key [32]byte
	h := strings.TrimPrefix(path, "/records/")
	if len(h) != 64 || strings.ContainsRune(h, '/') {
		return key, false
	}
	b, err := hex.DecodeString(h)
	if err != nil {
		return key, false
	}
	copy(key[:], b)
	return key, true
}

func (n *Node) handleRecords(w http.ResponseWriter, r *http.Request) {
	key, ok := parseAddr(r.URL.Path)
	if !ok {
		http.Error(w, "bad content address", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		n.handleGet(w, key)
	case http.MethodPut:
		n.handlePut(w, r, key)
	default:
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleGet serves the stored file's valid prefix, or 404 for an unknown (or
// unusably corrupt) address.
func (n *Node) handleGet(w http.ResponseWriter, key [32]byte) {
	data, err := os.ReadFile(n.recordPath(key))
	if err != nil {
		if !os.IsNotExist(err) {
			n.logf("thermstore: read %x: %v", key[:4], err)
		}
		http.NotFound(w, nil)
		return
	}
	info, err := oraclestore.ValidateRecordFile(data)
	if err != nil || info.Key != key {
		n.logf("thermstore: serving %x as miss: invalid local file: %v", key[:4], err)
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data[:info.ValidLen])
}

// handlePut merges the request body into the node's file for key and reports
// {"records": total, "added": fresh} on success.
func (n *Node) handlePut(w http.ResponseWriter, r *http.Request, key [32]byte) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFileBytes+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxFileBytes {
		http.Error(w, "record file too large", http.StatusRequestEntityTooLarge)
		return
	}
	info, err := oraclestore.ValidateRecordFile(body)
	if err != nil {
		http.Error(w, "invalid record file: "+err.Error(), http.StatusBadRequest)
		return
	}
	if info.Key != key {
		http.Error(w, "record file key does not match content address", http.StatusBadRequest)
		return
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	path := n.recordPath(key)
	existing, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			http.Error(w, "read existing: "+err.Error(), http.StatusInternalServerError)
			return
		}
		existing = nil
	} else if _, verr := oraclestore.ValidateRecordFile(existing); verr != nil {
		// An unusable local file loses to the incoming one rather than
		// wedging the address forever.
		n.logf("thermstore: replacing invalid local file %x: %v", key[:4], verr)
		existing = nil
	}
	merged, records, added, err := oraclestore.MergeRecordFiles(existing, body)
	if err != nil {
		http.Error(w, "merge: "+err.Error(), http.StatusBadRequest)
		return
	}
	if existing == nil || added > 0 {
		if err := oraclestore.WriteFileAtomic(oraclestore.OSFS(), path, merged); err != nil {
			n.logf("thermstore: publish %x: %v", key[:4], err)
			http.Error(w, "publish: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"records": records, "added": added})
}
