// Package remote is the oracle store's tier 3: a small HTTP record-file
// protocol (GET/PUT /records/{addr}) served by cmd/thermstore nodes, and a
// client that consistent-hashes content addresses across N nodes and plugs
// into a local Store as its oraclestore.RemoteTier.
//
// The protocol ships whole record files — the append-only, CRC-checked,
// content-addressed unit the store already maintains — so anti-entropy is a
// record union both sides compute identically and idempotently: a node PUT
// merges incoming records after its own (existing-first, duplicates dropped),
// a client fetch absorbs only the records its local cache is missing. Both
// sides re-verify every record's CRC on receipt, so a corrupted wire or disk
// can lose warmth but never serve wrong temperatures.
//
// Fault discipline follows the local store's: every node has its own
// oraclestore.Breaker (the type that guards the local disk), requests carry
// a short timeout, and all failures degrade — the caller sees a cold cache,
// never an error — so killing a node mid-sweep costs warmth on its key range
// only.
package remote

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/oraclestore"
)

// ErrUnavailable reports a node whose breaker is open — the client fails fast
// without touching the network until the probe interval elapses.
var ErrUnavailable = errors.New("remote: store node unavailable")

// maxFileBytes bounds a record file on the wire (a 48-block system at ~1KB a
// record would need ~250k records to hit it).
const maxFileBytes = 256 << 20

// defaultTimeout bounds one node request when ClientOptions.Timeout is 0 —
// short, because a fetch stalls Store.System and degradation should be quick.
const defaultTimeout = 5 * time.Second

// defaultReplicas is the virtual-node count per physical node on the hash
// ring; 64 keeps the key-range imbalance within a few percent for small
// clusters without making ring construction noticeable. Every client of a
// cluster must agree on it, so it is a constant rather than an option.
const defaultReplicas = 64

// ClientOptions tunes the sharded store client; the zero value is the
// production default.
type ClientOptions struct {
	// Timeout bounds each node request (0 → 5s).
	Timeout time.Duration
	// Breaker is the per-node circuit-breaker policy (zero: 3 failures, 5s
	// probe), same semantics as the local store's.
	Breaker oraclestore.BreakerPolicy
	// Transport overrides the HTTP transport (tests inject an in-process
	// httptest transport); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// Client consistent-hashes content addresses across store nodes and speaks
// the record-file protocol to the owner of each key. It implements
// oraclestore.RemoteTier. Safe for concurrent use.
type Client struct {
	nodes []*clientNode
	ring  []ringPoint
	hc    *http.Client
}

// clientNode is one physical node: its base URL and its breaker.
type clientNode struct {
	base string
	brk  *oraclestore.Breaker
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

// NewClient builds a client over the given node addresses ("host:port" or a
// full http:// URL). The ring is deterministic in the address list, so every
// client of the same cluster routes every key identically regardless of
// address order.
func NewClient(addrs []string, opts ClientOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: no store nodes given")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = defaultTimeout
	}
	c := &Client{
		hc: &http.Client{Timeout: opts.Timeout, Transport: opts.Transport},
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		base, err := canonicalBase(a)
		if err != nil {
			return nil, err
		}
		if seen[base] {
			return nil, fmt.Errorf("remote: duplicate store node %q", a)
		}
		seen[base] = true
		idx := len(c.nodes)
		c.nodes = append(c.nodes, &clientNode{base: base, brk: oraclestore.NewBreaker(opts.Breaker)})
		for v := 0; v < defaultReplicas; v++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", base, v)))
			c.ring = append(c.ring, ringPoint{hash: binary.BigEndian.Uint64(h[:8]), node: idx})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool {
		if c.ring[i].hash != c.ring[j].hash {
			return c.ring[i].hash < c.ring[j].hash
		}
		return c.ring[i].node < c.ring[j].node
	})
	return c, nil
}

// canonicalBase normalises one node address to a base URL without a trailing
// slash. Bare host:port gets the http scheme.
func canonicalBase(addr string) (string, error) {
	a := strings.TrimSpace(addr)
	if a == "" {
		return "", fmt.Errorf("remote: empty store node address")
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return strings.TrimRight(a, "/"), nil
}

// nodeFor resolves a key's owner on the ring: the first virtual node at or
// clockwise past the key's hash point.
func (c *Client) nodeFor(key [32]byte) *clientNode {
	h := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0
	}
	return c.nodes[c.ring[i].node]
}

// recordURL is the resource path for a content address on its node.
func recordURL(base string, key [32]byte) string {
	return fmt.Sprintf("%s/records/%x", base, key)
}

// Fetch implements oraclestore.RemoteTier: GET the whole record file from the
// key's owner. The body is CRC-verified on receipt and only the valid prefix
// is returned; a 404 is a clean miss. A tripped breaker fails fast with
// ErrUnavailable.
func (c *Client) Fetch(key [32]byte) ([]byte, bool, error) {
	n := c.nodeFor(key)
	if !n.brk.Allow() {
		return nil, false, fmt.Errorf("%w: %s", ErrUnavailable, n.base)
	}
	resp, err := c.hc.Get(recordURL(n.base, key))
	if err != nil {
		n.brk.Failure(err)
		return nil, false, fmt.Errorf("remote: fetch %s: %w", n.base, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		n.brk.Success()
		return nil, false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		err := fmt.Errorf("remote: fetch %s: status %d", n.base, resp.StatusCode)
		n.brk.Failure(err)
		return nil, false, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFileBytes))
	if err != nil {
		n.brk.Failure(err)
		return nil, false, fmt.Errorf("remote: fetch %s: %w", n.base, err)
	}
	info, err := oraclestore.ValidateRecordFile(data)
	if err != nil || info.Key != key {
		// A node serving garbage for this address is as unavailable as a dead
		// one: count it against the breaker so the client stops asking.
		verr := fmt.Errorf("remote: fetch %s: invalid record file: %v", n.base, err)
		n.brk.Failure(verr)
		return nil, false, verr
	}
	n.brk.Success()
	return data[:info.ValidLen], true, nil
}

// Push implements oraclestore.RemoteTier: PUT the whole local file to the
// key's owner, which merges it record-by-record. Idempotent; a tripped
// breaker fails fast with ErrUnavailable.
func (c *Client) Push(key [32]byte, data []byte) error {
	n := c.nodeFor(key)
	if !n.brk.Allow() {
		return fmt.Errorf("%w: %s", ErrUnavailable, n.base)
	}
	req, err := http.NewRequest(http.MethodPut, recordURL(n.base, key), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("remote: push %s: %w", n.base, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		n.brk.Failure(err)
		return fmt.Errorf("remote: push %s: %w", n.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		err := fmt.Errorf("remote: push %s: status %d", n.base, resp.StatusCode)
		n.brk.Failure(err)
		return err
	}
	n.brk.Success()
	return nil
}

var _ oraclestore.RemoteTier = (*Client)(nil)
