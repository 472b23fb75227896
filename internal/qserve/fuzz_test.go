package qserve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"uncertaingraph/internal/uncertain"
)

// FuzzBatchRequestJSON drives arbitrary bytes through the POST /batch
// decoder, validate and (for accepted requests) a full batch run. The
// invariants: the handler never panics, every response is 200/400/413
// JSON, and no request body can push the server past its configured
// resource limits — worlds clamp to MaxWorlds, k-NN sources to
// MaxKNNSources, and the accumulator worst case to MemoryBudget, so
// malformed JSON, negative ids and huge k/worlds values can neither
// crash the server nor make it over-allocate.
func FuzzBatchRequestJSON(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"op":"reliability","s":0,"t":4}]}`,
		`{"worlds":16,"queries":[{"op":"distance","s":0,"t":3},{"op":"knn","s":1,"k":2}]}`,
		`{"worlds":16,"seed":7,"queries":[{"op":"knn","s":0,"k":3}]}`,
		`{"queries":[{"op":"knn","s":-1,"k":2}]}`,
		`{"queries":[{"op":"knn","s":0,"k":-5}]}`,
		`{"queries":[{"op":"reliability","s":0,"t":-9000000}]}`,
		`{"queries":[{"op":"knn","s":0,"k":9223372036854775807}]}`,
		`{"worlds":9223372036854775807,"queries":[{"op":"reliability","s":0,"t":1}]}`,
		`{"worlds":-3,"queries":[{"op":"reliability","s":0,"t":1}]}`,
		`{"queries":[{"op":"pagerank","s":0}]}`,
		`{"queries":[]}`,
		`{"queries":[{"op":"knn","s":0,"k":2},{"op":"knn","s":1,"k":2},{"op":"knn","s":2,"k":2}]}`,
		`{"seed":null,"queries":[{"op":"reliability","s":0,"t":1}]}`,
		`{"unknown_field":1,"queries":[{"op":"reliability","s":0,"t":1}]}`,
		`{"queries":[{"op":"reliability","s":1e309,"t":1}]}`,
		`not json at all`,
		`{"queries":`,
		`[]`,
		`{}`,
		"",
		`{"queries":[{"op":"reliability","s":0.5,"t":1}]}`,
	} {
		f.Add(seed)
	}

	g, err := uncertain.New(5, []uncertain.Pair{
		{U: 0, V: 1, P: 0.8}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.8},
		{U: 3, V: 4, P: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	// Tight limits so accepted requests stay cheap and every rejection
	// path (worlds cap, query cap, k-NN source cap, byte budget) is
	// reachable by the fuzzer.
	srv := &Server{
		DefaultGraph: "default", Worlds: 8, MaxWorlds: 32, MaxQueries: 16,
		Workers: 1, Seed: 1, MemoryBudget: 2 * 5 * 5 * 4, MaxKNNSources: 2,
	}
	if _, err := srv.PublishGraph("default", g, GraphConfig{}); err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("rejection without a JSON error for body %q: %s", body, rec.Body.Bytes())
			}
			return
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted request returned non-JSON for body %q: %v", body, err)
		}
		if resp.Worlds < 1 || resp.Worlds > 32 {
			t.Fatalf("served worlds %d escaped the [1, MaxWorlds=32] clamp for body %q", resp.Worlds, body)
		}
		if len(resp.Results) == 0 || len(resp.Results) > 16 {
			t.Fatalf("served %d results outside (0, MaxQueries=16] for body %q", len(resp.Results), body)
		}
	})
}

// FuzzGraphRouting drives arbitrary graph names through the /graphs/
// routing layer on a two-tenant registry whose global budget fits only
// one graph, so the fuzzer churns evictions as a side effect. Each
// name is tried both path-escaped and raw (when it still parses as a
// URL, covering traversal shapes like ../a). The invariants: the
// handler never panics, every status is 200/400/404/413, rejections
// carry a JSON error, and — the anti-leakage pin — every 200 body is
// byte-identical to one of the two precomputed per-graph references,
// so no name can ever be answered from the other tenant's structure.
func FuzzGraphRouting(f *testing.F) {
	for _, seed := range []string{
		"a", "b", "", ".", "..", "../a", "a/b", "a\\b",
		"café", "%61", "%2e%2e", "a%00b", "a b",
		strings.Repeat("x", 200), "nosuch", "a?x=1", "a#frag",
		"\x00", "‮", "a\n",
	} {
		f.Add(seed)
	}

	mk := func(pairs []uncertain.Pair) *uncertain.Graph {
		g, err := uncertain.New(5, pairs)
		if err != nil {
			f.Fatal(err)
		}
		return g
	}
	ga := mk([]uncertain.Pair{
		{U: 0, V: 1, P: 0.8}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.8}, {U: 3, V: 4, P: 1},
	})
	gb := mk([]uncertain.Pair{
		{U: 0, V: 1, P: 1}, {U: 0, V: 2, P: 1}, {U: 0, V: 3, P: 1}, {U: 0, V: 4, P: 0.5},
	})
	srv := &Server{
		Worlds: 8, MaxWorlds: 32, MaxQueries: 16, Workers: 1, Seed: 1,
		// One graph resident at a time: every a/b alternation evicts.
		GlobalMemBudget: ga.FootprintBytes() + ga.FootprintBytes()/2,
	}
	for name, g := range map[string]*uncertain.Graph{"a": ga, "b": gb} {
		if _, err := srv.PublishGraph(name, g, GraphConfig{}); err != nil {
			f.Fatal(err)
		}
	}
	handler := srv.Handler()
	const query = "/reliability?s=0&t=3"

	// Per-graph reference bodies: determinism (and evict/reload bit-
	// identity) make these the only legal 200 responses for the fuzzed
	// query, whichever name shape reached them.
	ref := map[string]string{}
	for _, name := range []string{"a", "b"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/graphs/"+name+query, nil))
		if rec.Code != http.StatusOK {
			f.Fatalf("reference request for %q: status %d: %s", name, rec.Code, rec.Body.Bytes())
		}
		ref[name] = rec.Body.String()
	}

	check := func(t *testing.T, target string) {
		req, err := http.NewRequest("GET", "http://qserve.test"+target, nil)
		if err != nil {
			return // not a parseable URL; nothing reaches the handler
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with non-JSON body for %q: %v", target, err)
			}
			if len(resp.Results) == 0 {
				// A raw name with a '?' truncates the path and lands on
				// a stats/list endpoint — a legal 200 that is not a
				// query answer, so the leakage pin does not apply.
				return
			}
			want, ok := ref[resp.Graph]
			if !ok {
				t.Fatalf("200 for %q served unknown graph %q", target, resp.Graph)
			}
			if rec.Body.String() != want {
				t.Fatalf("cross-graph leakage for %q: got\n%s\nwant %q's reference\n%s",
					target, rec.Body.Bytes(), resp.Graph, want)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("rejection without a JSON error for %q: %d %s", target, rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("unexpected status %d for %q: %s", rec.Code, target, rec.Body.Bytes())
		}
	}

	f.Fuzz(func(t *testing.T, name string) {
		check(t, "/graphs/"+url.PathEscape(name)+query)
		check(t, "/graphs/"+name+query) // raw: traversal/extra-segment shapes
	})
}

// cacheKeyNorm is the semantic content resultCacheKey must be a
// bijection over: two valid requests map to the same key exactly when
// their fully resolved forms agree. Tolerance is normalized to its
// float bits — exactly the equality the key uses — and the query list
// to a rendering with separators unrelated to the key's, so a
// separator-injection bug in the key cannot hide in the norm too.
type cacheKeyNorm struct {
	name    string
	worlds  int
	seed    int64
	tolBits uint64
	queries string
}

// FuzzResultCacheKey fuzzes the cache key's canonicalization and
// injectivity: semantically equal request bodies — whatever their JSON
// field order, whitespace, or default-vs-explicit fields — must
// collide, any semantic difference (ids, k, ops, worlds, tolerance,
// seed, graph name) must not, and nothing panics on hostile input,
// including graph names containing the key's separator byte.
func FuzzResultCacheKey(f *testing.F) {
	const q1 = `{"op":"reliability","s":0,"t":4}`
	f.Add("g", "g", `{"queries":[`+q1+`]}`, `{"queries":[{"t":4,"s":0,"op":"reliability"}]}`) // field order
	f.Add("g", "g", `{"queries":[`+q1+`]}`, ` {  "queries" : [ `+q1+` ] } `)                  // whitespace
	f.Add("g", "g", `{"worlds":400,"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`)              // explicit default worlds
	f.Add("g", "g", `{"tolerance":0,"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`)             // explicit default tolerance
	f.Add("g", "g", `{"queries":[`+q1+`]}`, `{"queries":[{"op":"reliability","s":0,"t":3}]}`) // different target
	f.Add("g", "g", `{"queries":[`+q1+`]}`, `{"queries":[{"op":"distance","s":0,"t":4}]}`)    // different op
	f.Add("g", "g", `{"queries":[{"op":"knn","s":0,"k":2}]}`, `{"queries":[{"op":"knn","s":0,"k":3}]}`)
	f.Add("g", "g", `{"worlds":16,"queries":[`+q1+`]}`, `{"worlds":17,"queries":[`+q1+`]}`)
	f.Add("g", "g", `{"seed":7,"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`)
	f.Add("g", "h", `{"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`)   // different graphs
	f.Add("a|b", "a", `{"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`) // separator in the name
	f.Add("g|0", "g", `{"worlds":16,"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`)
	f.Add("café", "café", `{"queries":[`+q1+`]}`, `{"queries":[`+q1+`]}`)

	// The derivation context: a 5-vertex graph with no per-graph
	// overrides. Generation is held fixed — its role in the key is
	// pinned by TestCacheInvalidatedOnRepublish.
	srv := &Server{Worlds: 400, Seed: 11, Workers: 1}
	const vertices = 5
	cfg := GraphConfig{}

	decode := func(body string) (*BatchRequest, bool) {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req BatchRequest
		if err := dec.Decode(&req); err != nil {
			return nil, false
		}
		if err := srv.validate(vertices, cfg, &req); err != nil {
			return nil, false
		}
		return &req, true
	}
	derive := func(name string, req *BatchRequest) (string, cacheKeyNorm) {
		worlds := srv.resolveWorlds(cfg, req.Worlds)
		seed := srv.requestSeed(name, req, worlds)
		tol := srv.effTolerance(cfg)
		if req.Tolerance != nil {
			tol = *req.Tolerance
		}
		var qs strings.Builder
		for _, q := range req.Queries {
			fmt.Fprintf(&qs, "<%s,%d,%d,%d>", q.Op, q.S, q.T, q.K)
		}
		key := resultCacheKey(name, 1, worlds, seed, tol, req.Queries)
		return key, cacheKeyNorm{name, worlds, seed, math.Float64bits(tol), qs.String()}
	}

	f.Fuzz(func(t *testing.T, name1, name2, a, b string) {
		if validateGraphName(name1) != nil || validateGraphName(name2) != nil {
			return
		}
		ra, ok := decode(a)
		if !ok {
			return
		}
		rb, ok := decode(b)
		if !ok {
			return
		}
		k1, n1 := derive(name1, ra)
		k2, n2 := derive(name2, rb)
		if n1 == n2 && k1 != k2 {
			t.Fatalf("semantically equal requests got distinct keys:\n%q (%q)\n%q (%q)\nnorm %+v", a, k1, b, k2, n1)
		}
		if n1 != n2 && k1 == k2 {
			t.Fatalf("distinct requests collide on key %q:\n%q on %q (norm %+v)\n%q on %q (norm %+v)",
				k1, a, name1, n1, b, name2, n2)
		}
	})
}
