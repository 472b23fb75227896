package qserve

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
)

// DefaultResultCacheBudget is the result-cache byte budget cmd/queryd
// serves with unless -result-cache-budget overrides it. The library
// default is off (Server.ResultCacheBudget 0): embedders opt in.
const DefaultResultCacheBudget = int64(256) << 20 // 256 MiB

// resultCacheKey names one fully resolved batch computation. Every
// input the answer depends on is in the key:
//
//   - the graph's publish generation (a republished graph is a new
//     release — its old answers must not resurface — while an
//     evict-then-reload keeps its gen, so cached answers survive
//     eviction);
//   - the resolved world budget and the effective request seed (the
//     content-derived seed of PR 6, or the caller's pinned override);
//   - the effective tolerance as exact float bits — tolerance is
//     excluded from the *seed* derivation (an adaptive run is a prefix
//     of the fixed run's world stream), but it changes how many of
//     those worlds a run consumes, hence the rendered answer;
//   - the canonicalized query list (decoded values, not request bytes:
//     field order, whitespace and default-vs-explicit fields collide);
//   - the graph name, placed last because names may contain the
//     separator byte — everything after the final field is name, so
//     hostile names cannot forge another request's key.
func resultCacheKey(name string, gen uint64, worlds int, seed int64, tol float64, queries []QueryRequest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v1|%d|%d|%d|%016x", gen, worlds, seed, math.Float64bits(tol))
	for _, q := range queries {
		fmt.Fprintf(&sb, "|%s:%d:%d:%d", q.Op, q.S, q.T, q.K)
	}
	sb.WriteByte('|')
	sb.WriteString(name)
	return sb.String()
}

// flight is one in-progress computation that concurrent identical
// requests attach to instead of recomputing. The leader's goroutine
// runs the batch under the flight's own context; every attached request
// holds a reference, and when the last one detaches before completion
// the flight cancels — nobody is left to read the answer.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	refs   int // attached requests; guarded by resultCache.mu

	ready  chan struct{} // closed when status/body are set
	status int
	body   []byte
}

// centry is one cached rendered response.
type centry struct {
	key   string
	graph string // owning graph name, for invalidation
	body  []byte
}

// ResultCacheStats is the result-cache block surfaced by /healthz and
// GET /graphs.
type ResultCacheStats struct {
	Enabled     bool  `json:"enabled"`
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Bytes/Entries describe the resident entries (response payload
	// bytes; keys and bookkeeping are not metered).
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	// Hits served a stored answer; Misses had to compute (or join a
	// computation); Evictions counts entries dropped under the budget.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Coalesced counts requests that attached to another request's
	// in-flight computation; Computations counts batch runs actually
	// started — N identical concurrent requests cost one.
	Coalesced    uint64 `json:"coalesced"`
	Computations uint64 `json:"computations"`
	// SharedRuns and SharedBatches always read 0: shared world streams
	// were removed, and the fields remain only because the end-to-end
	// harness (e2ebench/layers.go) reads them.
	SharedRuns    uint64 `json:"shared_runs"`
	SharedBatches uint64 `json:"shared_batches"`
}

// resultCache is a byte-bounded LRU of rendered batch responses plus
// the single-flight table coalescing concurrent identical requests.
// Only complete 200 responses are stored — errors are cheap to
// recompute and must not stick.
type resultCache struct {
	budget int64

	mu      sync.Mutex
	entries map[string]*list.Element // -> *centry, in lru
	lru     *list.List               // front = most recently used
	bytes   int64
	flights map[string]*flight

	hits, misses, evictions, coalesced, computations uint64
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// lookup resolves key in one mutex pass: a stored answer (body != nil),
// an existing flight to wait on (leader false), or a fresh flight this
// request must lead (leader true). Folding the three cases into one
// critical section is what makes "exactly one computation per distinct
// key" hold under concurrency — there is no window between a miss and
// the flight registration for a second request to miss through.
func (c *resultCache) lookup(key string) (body []byte, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*centry).body, nil, false
	}
	c.misses++
	if f, ok := c.flights[key]; ok {
		f.refs++
		c.coalesced++
		return nil, f, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	f = &flight{ctx: ctx, cancel: cancel, refs: 1, ready: make(chan struct{})}
	c.flights[key] = f
	return nil, f, true
}

// detach drops one request's reference on a flight. When the last
// reference goes before the flight settles, the computation is
// cancelled — its context only ever cancels through here, so a flight
// seeing ctx.Err() != nil knows every requester is gone.
func (c *resultCache) detach(f *flight) {
	c.mu.Lock()
	f.refs--
	abandoned := f.refs == 0 && !f.settled()
	c.mu.Unlock()
	if abandoned {
		f.cancel()
	}
}

func (f *flight) settled() bool {
	select {
	case <-f.ready:
		return true
	default:
		return false
	}
}

// computed counts one batch computation actually started.
func (c *resultCache) computed() {
	c.mu.Lock()
	c.computations++
	c.mu.Unlock()
}

// settle publishes a flight's outcome to its waiters and, for complete
// 200 answers, stores the rendered body under the owning graph's name.
func (c *resultCache) settle(key, graph string, f *flight, status int, body []byte, store bool) {
	c.mu.Lock()
	f.status, f.body = status, body
	close(f.ready)
	delete(c.flights, key)
	if store {
		c.putLocked(key, graph, body)
	}
	c.mu.Unlock()
	f.cancel() // release the context's resources; waiters already have the answer
}

// abort discards a flight whose computation was cancelled (every
// requester detached): nothing to publish, nothing to store. The ready
// channel stays open — no reader remains.
func (c *resultCache) abort(key string, f *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
}

func (c *resultCache) putLocked(key, graph string, body []byte) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*centry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&centry{key: key, graph: graph, body: body})
		c.bytes += int64(len(body))
	}
	// Strict budget: evict from the cold end until resident bytes fit —
	// a body larger than the whole budget evicts itself (never cached).
	for c.bytes > c.budget && c.lru.Len() > 0 {
		c.evictOldestLocked()
	}
}

func (c *resultCache) evictOldestLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*centry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.body))
	c.evictions++
}

// invalidate drops every stored entry for graph. In-progress flights
// are left to finish — they carry the generation they started against
// in their key, so a republish during a flight stores an answer under
// the *old* gen, which no future request will ever look up.
func (c *resultCache) invalidate(graph string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*centry)
		if e.graph == graph {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= int64(len(e.body))
		}
	}
}

func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Enabled:      true,
		BudgetBytes:  c.budget,
		Bytes:        c.bytes,
		Entries:      len(c.entries),
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		Coalesced:    c.coalesced,
		Computations: c.computations,
	}
}
