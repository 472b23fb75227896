// Package qserve is the query-serving layer over internal/query's
// batch engine: a long-lived HTTP/JSON daemon hosting a *registry* of
// published uncertain graphs — the paper's consumption story (§1, §6)
// at deployment shape, where releases pile up per dataset, per ε, per
// epoch and one daemon serves them all — answering reliability,
// distance-distribution and k-nearest-neighbour queries against any of
// them.
//
// Every named graph owns its serving state: a pool of query.Batch
// (world samplers, packed walkers and integer accumulators reused across
// that graph's requests, never another's), optional Worlds /
// Tolerance / MemoryBudget overrides falling back to the server
// defaults, and hit/miss/resident-bytes counters. The registry keeps
// hot graphs resident under a global memory budget and evicts the
// least-recently-used cold ones; each evicted graph's durable source
// (the uploaded bytes, or the file it was loaded from) stays, so the
// next request reloads it transparently.
//
// Determinism contract: a request that does not pin a seed gets one
// derived from the server's base seed, the graph's *name* and the
// request's content (worlds + query list), so identical requests
// against the same graph always return identical answers — including
// across an evict-then-reload cycle, which parses the identical source
// bytes — while different requests and different graphs get
// decorrelated world streams. A pinned "seed" field overrides the
// derivation. Responses echo the worlds and seed used.
//
// That contract is what makes cached answers safe: a response is a
// pure function of (graph release, resolved request), so with
// ResultCacheBudget set the server stores complete 200 bodies under a
// content-addressed key (graph generation + resolved worlds, seed,
// tolerance and query list) and coalesces identical concurrent
// requests into one computation. Both layers return bytes identical to
// a fresh recomputation — a cache hit and a coalesced response are
// indistinguishable from computing alone — and republishing or
// deleting a graph starts a new generation, so no stale answer can
// outlive its release.
//
// Resource limits: besides the worlds and query-count caps, every
// request is priced against a memory budget before any buffer grows —
// distinct k-NN sources dominate (each can fill an n² int32 histogram
// per worker), so they are capped outright and charged via
// query.WorstCaseAccumBytes. Over-budget requests get HTTP 413 with an
// error wrapping query.ErrOverBudget, and pooled batches shed
// accumulators retained above the same budget on Reset. The registry
// adds the global layer: summed graph footprints are bounded by
// GlobalMemBudget (LRU eviction) and the name table by MaxGraphs.
package qserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math"
	"net/http"
	"path"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"uncertaingraph/internal/query"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/ugbin"
	"uncertaingraph/internal/uncertain"
	"uncertaingraph/internal/worldloop"
)

// Default limits bounding the per-request Monte-Carlo cost and memory
// footprint.
const (
	DefaultMaxWorlds  = 20000
	DefaultMaxQueries = 1024
	// DefaultMemoryBudget caps the worst-case per-request accumulator
	// footprint (k-NN histograms dominate: each distinct k-NN source
	// can grow n² int32 counters per worker).
	DefaultMemoryBudget = int64(1) << 30 // 1 GiB
	// DefaultMaxKNNSources caps the distinct k-NN sources of one
	// request; each one costs a full-component BFS per world plus its
	// own histogram, so they are the most expensive query shape.
	DefaultMaxKNNSources = 64
	// DefaultMaxUploadBytes caps one PUT/POST /graphs/{name} body.
	DefaultMaxUploadBytes = int64(1) << 30
)

// Server answers possible-world Monte-Carlo queries over a registry of
// published uncertain graphs. The zero value serves an empty registry;
// publish graphs via Publish / PublishGraph / PublishFile / the HTTP
// surface. All exported fields must be set before the first request;
// after that a Server is safe for concurrent use — each in-flight
// request borrows a graph handle and a pooled query.Batch from that
// graph's pool, and resident graphs are read-only.
type Server struct {
	// DefaultGraph names the graph the legacy alias endpoints
	// (/batch, /reliability, /distance, /knn) resolve to. Empty leaves
	// the aliases answering 404.
	DefaultGraph string
	// Worlds is the per-request default sample size (0 selects the
	// Hoeffding default, 738); a per-graph Worlds override takes
	// precedence.
	Worlds int
	// MaxWorlds caps the per-request sample size (0 selects
	// DefaultMaxWorlds).
	MaxWorlds int
	// MaxQueries caps the number of queries per batch request (0
	// selects DefaultMaxQueries).
	MaxQueries int
	// Workers bounds concurrent world evaluations per request (<= 0
	// selects GOMAXPROCS); answers are identical for every value.
	Workers int
	// Seed is the base seed for the content-derived per-request world
	// streams (the derivation also hashes the graph name).
	Seed int64
	// Tolerance is the default adaptive-precision tolerance applied to
	// requests that do not carry their own "tolerance" field: when > 0,
	// a request's batch stops as soon as every query's relative SEM is
	// inside it (see query.Config.Tolerance), and the response reports
	// the worlds actually used. 0 keeps the fixed-worlds behaviour.
	// A per-graph Tolerance override takes precedence.
	Tolerance float64
	// MemoryBudget caps the worst-case accumulator bytes one request
	// may grow — query.WorstCaseAccumBytes(n, distinct k-NN sources,
	// workers) — and the bytes a pooled batch retains across requests
	// (0 selects DefaultMemoryBudget). Over-budget requests are
	// rejected with HTTP 413 and an error wrapping query.ErrOverBudget.
	// A per-graph MemoryBudget override takes precedence.
	MemoryBudget int64
	// MaxKNNSources caps the distinct k-NN sources per request (0
	// selects DefaultMaxKNNSources); the rejection is also 413-typed.
	MaxKNNSources int
	// GlobalMemBudget bounds the summed footprint of resident graphs;
	// crossing it evicts the least-recently-used cold graphs (0
	// selects DefaultGlobalMemBudget).
	GlobalMemBudget int64
	// MaxGraphs bounds the registry's name table (0 selects
	// DefaultMaxGraphs); registering past it gets HTTP 413.
	MaxGraphs int
	// MaxUploadBytes caps one graph-upload body (0 selects
	// DefaultMaxUploadBytes); larger uploads get HTTP 413.
	MaxUploadBytes int64
	// BinaryLoadMode selects how binary .ugb graph files are brought
	// into memory, at publish and post-eviction reload alike. The zero
	// value (ugbin.ModeAuto) memory-maps where the platform supports it
	// and falls back to a heap read elsewhere.
	BinaryLoadMode ugbin.Mode
	// ResultCacheBudget, when positive, enables the content-addressed
	// result cache: complete 200 responses are stored under a key
	// derived from the graph release and the fully resolved request
	// (see resultCacheKey), LRU-evicted once stored bodies exceed this
	// many bytes, and invalidated when their graph is republished or
	// deleted. Enabling the cache also turns on single-flight
	// coalescing (N identical concurrent requests compute once). 0 —
	// the zero value — disables both; cached answers are
	// byte-identical to recomputation, but embedders opt in. cmd/queryd
	// serves with DefaultResultCacheBudget.
	ResultCacheBudget int64

	initOnce sync.Once
	reg      *Registry
	cache    *resultCache
	// panics counts batch computations that panicked; /healthz
	// reports it.
	panics atomic.Uint64
	// beforeRun, when non-nil, sees every batch just before it runs:
	// the fault-injection point of the panic tests.
	beforeRun func(*query.Batch)
}

// init builds the registry on first use. The registry's pool hook
// resolves each graph's effective memory budget, so pooled batches
// shed to the same bound validate prices against.
func (s *Server) init() {
	s.initOnce.Do(func() {
		s.reg = &Registry{
			GlobalMemBudget: s.GlobalMemBudget,
			MaxGraphs:       s.MaxGraphs,
			NewPool: func(g *uncertain.Graph, cfg GraphConfig) *query.BatchPool {
				return query.NewBatchPool(g, query.Config{MemoryBudget: s.effMemBudget(cfg)})
			},
			BinaryLoadMode: s.BinaryLoadMode,
		}
		if s.ResultCacheBudget > 0 {
			s.cache = newResultCache(s.ResultCacheBudget)
		}
	})
}

// Publish parses src and registers (or replaces) it under name,
// keeping src for post-eviction reloads.
func (s *Server) Publish(name string, src []byte, cfg GraphConfig) (GraphStats, bool, error) {
	s.init()
	st, created, err := s.reg.Publish(name, src, cfg)
	if err == nil {
		s.invalidateResults(name)
	}
	return st, created, err
}

// invalidateResults drops name's cached answers after a registry
// mutation. The new release also carries a fresh generation — so even
// a racing flight that settles after this sweep stores its answer
// under the old gen, unreachable by any future lookup.
func (s *Server) invalidateResults(name string) {
	if s.cache != nil {
		s.cache.invalidate(name)
	}
}

// PublishGraph serializes g and registers it under name — the
// in-process form of an upload, used by daemons that already hold a
// parsed graph.
func (s *Server) PublishGraph(name string, g *uncertain.Graph, cfg GraphConfig) (GraphStats, error) {
	s.init()
	if err := validateGraphName(name); err != nil {
		return GraphStats{}, err
	}
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, g); err != nil {
		return GraphStats{}, err
	}
	st, _, err := s.reg.install(name, g, buf.Bytes(), "", cfg)
	if err == nil {
		s.invalidateResults(name)
	}
	return st, err
}

// PublishFile registers the graph stored at path under name; the file
// is re-read on every post-eviction reload.
func (s *Server) PublishFile(name, path string, cfg GraphConfig) (GraphStats, error) {
	s.init()
	st, err := s.reg.PublishFile(name, path, cfg)
	if err == nil {
		s.invalidateResults(name)
	}
	return st, err
}

// DeleteGraph removes name from the registry, reporting whether it
// existed; its cached answers go with it.
func (s *Server) DeleteGraph(name string) bool {
	s.init()
	ok := s.reg.Delete(name)
	if ok {
		s.invalidateResults(name)
	}
	return ok
}

// GraphStats returns every registered graph's snapshot and the
// registry totals.
func (s *Server) GraphStats() ([]GraphStats, RegistryStats) {
	s.init()
	return s.reg.Stats()
}

// QueryRequest is one query of a batch request.
type QueryRequest struct {
	// Op is "reliability", "distance" or "knn".
	Op string `json:"op"`
	// S is the source vertex (all ops).
	S int `json:"s"`
	// T is the target vertex (reliability, distance).
	T int `json:"t,omitempty"`
	// K is the neighbour count (knn).
	K int `json:"k,omitempty"`
}

// BatchRequest is the body of POST /graphs/{name}/batch (and the
// legacy alias POST /batch).
type BatchRequest struct {
	// Worlds overrides the graph's (or server's) per-request sample
	// size.
	Worlds int `json:"worlds,omitempty"`
	// Seed pins the world stream; omitted, it is derived from the
	// graph name and the request content.
	Seed *int64 `json:"seed,omitempty"`
	// Tolerance overrides the effective adaptive-precision tolerance:
	// > 0 lets the run stop early once every query's relative SEM is
	// inside it, an explicit 0 disables adaptive stopping for this
	// request, omitted inherits the graph override or server default.
	// The worlds value stays the budget — requests are priced against
	// it in validate — and the response's "worlds" reports how many
	// were actually used.
	Tolerance *float64       `json:"tolerance,omitempty"`
	Queries   []QueryRequest `json:"queries"`
}

// NeighborResult is one ranked k-NN neighbour.
type NeighborResult struct {
	V      int `json:"v"`
	Median int `json:"median"`
}

// QueryResult is one query's answer; exactly the fields of its op are
// populated. T and K are pointers so that valid zero arguments (t=0 is
// a vertex) are still echoed, while fields foreign to the op are
// omitted.
type QueryResult struct {
	Op string `json:"op"`
	S  int    `json:"s"`
	T  *int   `json:"t,omitempty"`
	K  *int   `json:"k,omitempty"`

	Reliability *float64 `json:"reliability,omitempty"`
	// Distances maps distance -> probability; Disconnected carries the
	// remaining mass and Median the count-rule median (-1 when the
	// median is a disconnection).
	Distances    map[int]float64  `json:"distances,omitempty"`
	Disconnected *float64         `json:"disconnected,omitempty"`
	Median       *int             `json:"median,omitempty"`
	Neighbors    []NeighborResult `json:"neighbors,omitempty"`
}

// BatchResponse is the body of every query response. Worlds is the
// number of worlds actually sampled — fewer than the request's budget
// when an adaptive run converged early.
type BatchResponse struct {
	// Graph is the registry name the request resolved to (the legacy
	// aliases echo the default graph's name here).
	Graph  string `json:"graph,omitempty"`
	Worlds int    `json:"worlds"`
	Seed   int64  `json:"seed"`
	// Tolerance and Converged are reported for adaptive runs only:
	// the effective tolerance, and whether every query's relative SEM
	// was inside it when the run stopped (false means the worlds
	// budget ran out first, or the batch carried a k-NN query).
	Tolerance float64       `json:"tolerance,omitempty"`
	Converged bool          `json:"converged,omitempty"`
	Results   []QueryResult `json:"results"`
}

type healthResponse struct {
	// Vertices and Pairs describe the default graph (zero without
	// one); the full per-graph picture is in Graphs.
	Vertices      int `json:"vertices"`
	Pairs         int `json:"pairs"`
	DefaultWorlds int `json:"default_worlds"`
	MaxWorlds     int `json:"max_worlds"`
	MaxQueries    int `json:"max_queries"`
	// Workers is the effective per-request worker clamp at the default
	// world count — what a default-sized request will actually fan out
	// to after GOMAXPROCS and world-count clamping.
	Workers       int     `json:"workers"`
	Tolerance     float64 `json:"tolerance,omitempty"`
	MemoryBudget  int64   `json:"memory_budget"`
	MaxKNNSources int     `json:"max_knn_sources"`
	// DefaultGraph is the name the legacy alias endpoints resolve to.
	DefaultGraph string `json:"default_graph,omitempty"`
	// Registry totals (graph count, residency, evictions) and the
	// per-graph list with hit/miss/resident counters.
	Registry RegistryStats `json:"registry"`
	// ResultCache reports the result cache's occupancy and hit/miss/
	// coalescing counters (Enabled false when the cache is off).
	ResultCache ResultCacheStats `json:"result_cache"`
	// ComputePanics counts batch computations that panicked and were
	// answered with 500.
	ComputePanics uint64       `json:"compute_panics"`
	Graphs        []GraphStats `json:"graphs"`
}

// graphListResponse is the body of GET /graphs.
type graphListResponse struct {
	Registry    RegistryStats    `json:"registry"`
	ResultCache ResultCacheStats `json:"result_cache"`
	Graphs      []GraphStats     `json:"graphs"`
}

// uploadResponse is the body of a successful PUT/POST /graphs/{name}.
type uploadResponse struct {
	Created bool       `json:"created"`
	Graph   GraphStats `json:"graph"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP handler serving the query API:
//
//	GET    /healthz
//	GET    /graphs                            (list with stats)
//	PUT    /graphs/{name}   (upload a published graph; query params
//	POST   /graphs/{name}    worlds=, tolerance=, mem-budget= set
//	                         per-graph overrides)
//	GET    /graphs/{name}                     (one graph's stats)
//	DELETE /graphs/{name}
//	GET    /graphs/{name}/reliability?s=&t=[&worlds=][&seed=][&tolerance=]
//	GET    /graphs/{name}/distance?s=&t=[...]
//	GET    /graphs/{name}/knn?s=&k=[...]
//	POST   /graphs/{name}/batch               (BatchRequest body)
//
// plus the legacy single-graph aliases GET /reliability, GET
// /distance, GET /knn and POST /batch, which resolve to the default
// graph (kept for one release).
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /graphs", s.handleGraphList)
	mux.HandleFunc("GET /graphs/{name}", s.handleGraphStats)
	mux.HandleFunc("PUT /graphs/{name}", s.handleGraphPut)
	mux.HandleFunc("POST /graphs/{name}", s.handleGraphPut)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleGraphDelete)
	mux.HandleFunc("GET /graphs/{name}/reliability", s.handleSingle("reliability"))
	mux.HandleFunc("GET /graphs/{name}/distance", s.handleSingle("distance"))
	mux.HandleFunc("GET /graphs/{name}/knn", s.handleSingle("knn"))
	mux.HandleFunc("POST /graphs/{name}/batch", s.handleBatch)
	mux.HandleFunc("GET /reliability", s.handleSingle("reliability"))
	mux.HandleFunc("GET /distance", s.handleSingle("distance"))
	mux.HandleFunc("GET /knn", s.handleSingle("knn"))
	mux.HandleFunc("POST /batch", s.handleBatch)
	// Catch-all: unmatched routes get the same JSON 404 shape as
	// unknown graphs, not ServeMux's plain-text page.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %q", r.URL.Path))
	})
	return canonicalPathOnly(mux)
}

// canonicalPathOnly rejects requests whose escaped path is not already
// clean (".." or "." segments, doubled or trailing slashes) with a
// plain 404 instead of ServeMux's 301 redirect: traversal-shaped paths
// never silently re-resolve to another graph's endpoint, and the
// response-status surface stays {200, 400, 404, 413}.
func canonicalPathOnly(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.EscapedPath()
		if p == "" || p[0] != '/' || (p != "/" && path.Clean(p) != p) {
			writeError(w, http.StatusNotFound, fmt.Errorf("non-canonical path %q", p))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// pathGraphName resolves the request's graph name: the {name} path
// segment when present (validated), otherwise the default graph.
// The empty string with a nil error never happens; failures carry the
// HTTP status to respond with.
func (s *Server) pathGraphName(r *http.Request) (string, int, error) {
	if name := r.PathValue("name"); name != "" {
		if err := validateGraphName(name); err != nil {
			return "", http.StatusBadRequest, err
		}
		return name, 0, nil
	}
	if name := s.defaultName(); name != "" {
		return name, 0, nil
	}
	return "", http.StatusNotFound, fmt.Errorf("%w: no default graph configured; address /graphs/{name}/...", ErrUnknownGraph)
}

// defaultName resolves the graph the legacy alias endpoints serve.
// DefaultGraph is read at call time, not frozen at init: cmd/queryd
// publishes its graphs first and names the default just before
// serving.
func (s *Server) defaultName() string { return s.DefaultGraph }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	graphs, totals := s.reg.Stats()
	h := healthResponse{
		DefaultWorlds: s.defaultWorlds(),
		MaxWorlds:     s.maxWorlds(),
		MaxQueries:    s.maxQueries(),
		Workers:       worldloop.Workers(s.Workers, s.defaultWorlds()),
		Tolerance:     s.Tolerance,
		MemoryBudget:  s.memoryBudget(),
		MaxKNNSources: s.maxKNNSources(),
		DefaultGraph:  s.defaultName(),
		Registry:      totals,
		ResultCache:   s.resultCacheStats(),
		ComputePanics: s.panics.Load(),
		Graphs:        graphs,
	}
	if st, ok := s.reg.GraphStatsFor(s.defaultName()); ok {
		h.Vertices, h.Pairs = st.Vertices, st.Pairs
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleGraphList(w http.ResponseWriter, _ *http.Request) {
	graphs, totals := s.reg.Stats()
	writeJSON(w, http.StatusOK, graphListResponse{
		Registry:    totals,
		ResultCache: s.resultCacheStats(),
		Graphs:      graphs,
	})
}

// resultCacheStats reports the cache's counters; the zero value
// (Enabled false) reports a disabled cache.
func (s *Server) resultCacheStats() ResultCacheStats {
	if s.cache == nil {
		return ResultCacheStats{}
	}
	return s.cache.stats()
}

func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateGraphName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, ok := s.reg.GraphStatsFor(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownGraph, name))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateGraphName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := graphConfigFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxUploadBytes()))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	st, created, err := s.Publish(name, body, cfg)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrRegistryFull) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, uploadResponse{Created: created, Graph: st})
}

// graphConfigFromQuery parses the per-graph override query parameters
// of an upload: worlds, tolerance, mem-budget. Absent parameters leave
// the zero value (inherit the server default).
func graphConfigFromQuery(r *http.Request) (GraphConfig, error) {
	var cfg GraphConfig
	q := r.URL.Query()
	if v := q.Get("worlds"); v != "" {
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return cfg, fmt.Errorf("parameter worlds: %q must be a non-negative integer", v)
		}
		cfg.Worlds = w
	}
	if v := q.Get("tolerance"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return cfg, fmt.Errorf("parameter tolerance: %q must be a finite non-negative number", v)
		}
		cfg.Tolerance = t
	}
	if v := q.Get("mem-budget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil || b < 0 {
			return cfg, fmt.Errorf("parameter mem-budget: %q must be a non-negative byte count", v)
		}
		cfg.MemoryBudget = b
	}
	return cfg, nil
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateGraphName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.DeleteGraph(name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownGraph, name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// handleSingle adapts one GET endpoint onto the batch path: the
// response is a BatchResponse carrying a single result.
func (s *Server) handleSingle(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name, status, err := s.pathGraphName(r)
		if err != nil {
			writeError(w, status, err)
			return
		}
		q := QueryRequest{Op: op}
		if q.S, err = intParam(r, "s"); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		switch op {
		case "knn":
			q.K, err = intParam(r, "k")
		default:
			q.T, err = intParam(r, "t")
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req := BatchRequest{Queries: []QueryRequest{q}}
		if v := r.URL.Query().Get("worlds"); v != "" {
			if req.Worlds, err = strconv.Atoi(v); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("parameter worlds: %w", err))
				return
			}
		}
		if v := r.URL.Query().Get("seed"); v != "" {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("parameter seed: %w", err))
				return
			}
			req.Seed = &seed
		}
		if v := r.URL.Query().Get("tolerance"); v != "" {
			tol, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("parameter tolerance: %w", err))
				return
			}
			req.Tolerance = &tol
		}
		s.serve(r.Context(), w, name, &req)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	name, status, err := s.pathGraphName(r)
	if err != nil {
		writeError(w, status, err)
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	s.serve(r.Context(), w, name, &req)
}

// serve answers one batch request. The request is validated against
// the graph's *registration* (peek: no load, no LRU touch), its worlds
// / seed / tolerance are resolved, and then:
//
//   - cache disabled (the zero-value Server): the graph is acquired
//     (reloading it if evicted) and the batch computed directly — the
//     pre-cache serving path, unchanged;
//   - cache enabled: the fully resolved request names a cache key. A
//     stored answer is written back without touching the graph at all
//     (a cache hit on an evicted graph stays a page-table no-op); a
//     key already being computed is joined (single-flight); otherwise
//     this request leads a new flight whose computation runs on its
//     own goroutine under the flight's context.
//
// A dropped connection (or server shutdown) cancels ctx: the request
// detaches from its flight — which cancels the computation only when
// no other request is attached — and no response is written to the
// dead client.
func (s *Server) serve(ctx context.Context, w http.ResponseWriter, name string, req *BatchRequest) {
	info, ok := s.reg.peek(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownGraph, name))
		return
	}
	if err := s.validate(info.vertices, info.cfg, req); err != nil {
		// Over-budget requests are a payload-size problem, not a
		// malformed one: 413 tells a well-behaved client to shrink the
		// request rather than fix it.
		status := http.StatusBadRequest
		if errors.Is(err, query.ErrOverBudget) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	worlds := s.resolveWorlds(info.cfg, req.Worlds)
	seed := s.requestSeed(name, req, worlds)
	tol := s.effTolerance(info.cfg)
	if req.Tolerance != nil {
		tol = *req.Tolerance
	}

	if s.cache == nil {
		status, body, abandoned := s.compute(ctx, name, req, worlds, seed, tol)
		if !abandoned {
			writeRawJSON(w, status, body)
		}
		return
	}

	key := resultCacheKey(name, info.gen, worlds, seed, tol, req.Queries)
	body, f, leader := s.cache.lookup(key)
	if f == nil {
		writeRawJSON(w, http.StatusOK, body)
		return
	}
	if leader {
		go s.runFlight(key, name, req, worlds, seed, tol, f)
	}
	select {
	case <-f.ready:
		s.cache.detach(f)
		writeRawJSON(w, f.status, f.body)
	case <-ctx.Done():
		s.cache.detach(f)
	}
}

// runFlight computes one flight's answer on the leader's goroutine —
// detached from any single request, cancelled only when every attached
// request has gone — and settles it for all waiters, storing complete
// 200 bodies in the cache. A computation that panics settles the flight
// with compute's 500, which is never stored.
func (s *Server) runFlight(key, name string, req *BatchRequest, worlds int, seed int64, tol float64, f *flight) {
	s.cache.computed()
	status, body, abandoned := s.compute(f.ctx, name, req, worlds, seed, tol)
	if abandoned {
		s.cache.abort(key, f)
		return
	}
	s.cache.settle(key, name, f, status, body, status == http.StatusOK)
}

// compute acquires the graph (reloading it if evicted), runs the fully
// resolved request through a pooled batch and renders the response to
// bytes. It returns abandoned=true — no status, no body — when ctx
// cancelled the run: nobody is listening.
//
// A panic during the computation — on this goroutine, or on a world
// loop lane, whose panics parallel.For re-raises here — is
// logged, counted and answered with 500. The panic skips the batch's
// return to the pool, so its half-run state is dropped, not reused.
// Recovering here rather than leaving it to net/http matters for the
// cache's flights, which run on goroutines of their own: a panic there
// would end the process and every tenant's requests with it.
func (s *Server) compute(ctx context.Context, name string, req *BatchRequest, worlds int, seed int64, tol float64) (status int, body []byte, abandoned bool) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			log.Printf("qserve: graph %q: batch computation panicked: %v\n%s", name, v, debug.Stack())
			status, body, abandoned = http.StatusInternalServerError,
				encodeJSON(errorResponse{Error: "internal error: the batch computation panicked"}), false
		}
	}()
	h, err := s.reg.acquire(name)
	if err != nil {
		// The graph vanished between peek and acquire, or a path-backed
		// reload failed.
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownGraph) {
			status = http.StatusNotFound
		}
		return status, encodeJSON(errorResponse{Error: err.Error()}), false
	}
	b := h.pool.Get()
	// Re-stamp the budget the validation priced against: the pool's
	// template was resolved at graph-load time, and validate must agree
	// with Run's own budget check even if the server's defaults were
	// adjusted since.
	b.MemoryBudget = s.effMemBudget(h.cfg)
	ids := make([]int, len(req.Queries))
	for i, q := range req.Queries {
		switch q.Op {
		case "reliability":
			ids[i] = b.AddReliability(q.S, q.T)
		case "distance":
			ids[i] = b.AddDistance(q.S, q.T)
		case "knn":
			ids[i] = b.AddKNearest(q.S, q.K)
		}
	}
	b.Worlds = worlds
	b.Seed = seed
	b.Workers = s.Workers
	// Always stamped, never merely defaulted: the batch is pooled, so a
	// previous request's tolerance must not leak into this one.
	b.Tolerance = tol
	if s.beforeRun != nil {
		s.beforeRun(b)
	}
	if err = b.Run(ctx); err != nil {
		h.pool.Put(b)
		// The usual cause: the client dropped (or the server is
		// shutting down) and the computation's context cancelled —
		// abandon the answer, nobody is listening.
		if ctx.Err() != nil {
			return 0, nil, true
		}
		// Any other failure must reach the live client — e.g. Run's
		// own budget check catching a worker-count drift between
		// validate's pricing and the run (GOMAXPROCS can change).
		status := http.StatusInternalServerError
		if errors.Is(err, query.ErrOverBudget) {
			status = http.StatusRequestEntityTooLarge
		}
		return status, encodeJSON(errorResponse{Error: err.Error()}), false
	}
	// Snapshot the merged results and release the batch before
	// rendering: the pooled buffers go back to work for the next
	// request while this one serializes (and possibly caches) an
	// immutable copy.
	res := b.Snapshot()
	h.pool.Put(b)
	return http.StatusOK, encodeJSON(s.buildResponse(name, req, ids, res, seed, tol)), false
}

// buildResponse renders a completed run's snapshot into the response
// shape. Worlds reports what the run actually sampled — bit-identical
// to a prefix of the full-budget stream when adaptive stopping kicked
// in.
func (s *Server) buildResponse(name string, req *BatchRequest, ids []int, res *query.Results, seed int64, tol float64) BatchResponse {
	resp := BatchResponse{Graph: name, Worlds: res.WorldsRun(), Seed: seed, Results: make([]QueryResult, len(req.Queries))}
	if tol > 0 {
		resp.Tolerance = tol
		resp.Converged = res.Converged()
	}
	for i, q := range req.Queries {
		r := QueryResult{Op: q.Op, S: q.S}
		switch q.Op {
		case "reliability", "distance":
			r.T = &q.T
		case "knn":
			r.K = &q.K
		}
		switch q.Op {
		case "reliability":
			rel := res.Reliability(ids[i])
			r.Reliability = &rel
		case "distance":
			dist, disc := res.DistanceDistribution(ids[i])
			med := res.MedianDistance(ids[i])
			r.Distances = dist
			r.Disconnected = &disc
			r.Median = &med
		case "knn":
			neighbors := res.KNearestWithMedians(ids[i])
			r.Neighbors = make([]NeighborResult, len(neighbors))
			for j, nb := range neighbors {
				r.Neighbors[j] = NeighborResult{V: nb.V, Median: nb.Median}
			}
		}
		resp.Results[i] = r
	}
	return resp
}

func (s *Server) validate(n int, cfg GraphConfig, req *BatchRequest) error {
	if len(req.Queries) == 0 {
		return fmt.Errorf("empty query list")
	}
	if max := s.maxQueries(); len(req.Queries) > max {
		return fmt.Errorf("%d queries exceed the per-request limit %d", len(req.Queries), max)
	}
	if max := s.maxWorlds(); req.Worlds > max {
		return fmt.Errorf("worlds %d exceeds the per-request limit %d", req.Worlds, max)
	}
	if req.Worlds < 0 {
		return fmt.Errorf("negative worlds %d", req.Worlds)
	}
	// Tolerance shapes when a run may stop, not what it may cost: the
	// memory pricing below stays against the full worlds budget, so a
	// tolerant request that never converges is still within its quota.
	if req.Tolerance != nil {
		if t := *req.Tolerance; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("tolerance %v must be a finite non-negative number", t)
		}
	}
	knnSources := make(map[int]struct{})
	for i, q := range req.Queries {
		if q.S < 0 || q.S >= n {
			return fmt.Errorf("query %d: vertex s=%d out of range [0,%d)", i, q.S, n)
		}
		switch q.Op {
		case "reliability", "distance":
			if q.T < 0 || q.T >= n {
				return fmt.Errorf("query %d: vertex t=%d out of range [0,%d)", i, q.T, n)
			}
		case "knn":
			if q.K < 1 {
				return fmt.Errorf("query %d: k=%d must be positive", i, q.K)
			}
			knnSources[q.S] = struct{}{}
		default:
			return fmt.Errorf("query %d: unknown op %q", i, q.Op)
		}
	}
	// Memory budget: price the request's worst-case accumulator
	// footprint before any buffer grows. Distinct k-NN sources dominate
	// — each can fill an n² int32 histogram per worker — so they are
	// both capped outright and charged against the byte budget.
	if max := s.maxKNNSources(); len(knnSources) > max {
		return fmt.Errorf("%w: %d distinct k-NN sources exceed the per-request cap %d",
			query.ErrOverBudget, len(knnSources), max)
	}
	workers := worldloop.Workers(s.Workers, s.resolveWorlds(cfg, req.Worlds))
	if need, budget := query.WorstCaseAccumBytes(n, len(knnSources), workers), s.effMemBudget(cfg); need > budget {
		return fmt.Errorf("%w: worst case %d bytes (%d k-NN sources × %d² vertices × 4 bytes × %d workers) > budget %d bytes",
			query.ErrOverBudget, need, len(knnSources), n, workers, budget)
	}
	return nil
}

// resolveWorlds resolves a request's effective sample size: the
// request's value, else the graph's override, else the server default,
// clamped by MaxWorlds.
func (s *Server) resolveWorlds(cfg GraphConfig, requested int) int {
	w := requested
	if w <= 0 {
		w = cfg.Worlds
	}
	if w <= 0 {
		w = s.Worlds
	}
	if w <= 0 {
		w = query.DefaultWorlds()
	}
	// The cap bounds every request, including ones that fall back to a
	// misconfigured default larger than MaxWorlds; explicit over-cap
	// requests were already rejected by validate.
	if max := s.maxWorlds(); w > max {
		w = max
	}
	return w
}

// defaultWorlds is the server-level default (no graph override in
// play), reported by /healthz.
func (s *Server) defaultWorlds() int { return s.resolveWorlds(GraphConfig{}, 0) }

func (s *Server) effTolerance(cfg GraphConfig) float64 {
	if cfg.Tolerance > 0 {
		return cfg.Tolerance
	}
	return s.Tolerance
}

func (s *Server) effMemBudget(cfg GraphConfig) int64 {
	if cfg.MemoryBudget > 0 {
		return cfg.MemoryBudget
	}
	return s.memoryBudget()
}

func (s *Server) maxWorlds() int {
	if s.MaxWorlds > 0 {
		return s.MaxWorlds
	}
	return DefaultMaxWorlds
}

func (s *Server) maxQueries() int {
	if s.MaxQueries > 0 {
		return s.MaxQueries
	}
	return DefaultMaxQueries
}

func (s *Server) memoryBudget() int64 {
	if s.MemoryBudget > 0 {
		return s.MemoryBudget
	}
	return DefaultMemoryBudget
}

func (s *Server) maxKNNSources() int {
	if s.MaxKNNSources > 0 {
		return s.MaxKNNSources
	}
	return DefaultMaxKNNSources
}

func (s *Server) maxUploadBytes() int64 {
	if s.MaxUploadBytes > 0 {
		return s.MaxUploadBytes
	}
	return DefaultMaxUploadBytes
}

// requestSeed maps a request to its world-stream seed: the pinned seed
// when given, otherwise a derivation from the server's base seed, the
// graph's registry name and the request content, so identical requests
// against the same graph return identical answers — including across
// an evict/reload cycle, whose reloaded graph is parsed from the same
// source bytes. Hashing the name keeps equal-shaped requests against
// different graphs on decorrelated world streams. Tolerance stays
// excluded from the derivation because an adaptive run is a prefix of
// the fixed run's world stream: requests that differ only in tolerance
// sample the same worlds, the tighter run extending the looser one.
func (s *Server) requestSeed(name string, req *BatchRequest, worlds int) int64 {
	if req.Seed != nil {
		return *req.Seed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", name, worlds)
	for _, q := range req.Queries {
		fmt.Fprintf(h, "|%s:%d:%d:%d", q.Op, q.S, q.T, q.K)
	}
	return randx.Derive(s.Seed, h.Sum64())
}

func intParam(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing parameter %s", name)
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", name, err)
	}
	return i, nil
}

// encodeJSON renders v exactly as writeJSON would put it on the wire
// (same encoder settings, same trailing newline). All responses —
// cached, coalesced or computed — pass through this one encoder, which
// is what makes "cache hit" and "recomputation" byte-identical by
// construction: encoding/json sorts map keys, so the rendering is a
// pure function of the response value.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Response types are plain data — maps, slices, numbers, strings
		// — which cannot fail to encode.
		panic(fmt.Sprintf("qserve: encoding response: %v", err))
	}
	return buf.Bytes()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeRawJSON(w, status, encodeJSON(v))
}

func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
