package qserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postBody posts a batch request body and returns the status and
// response bytes.
func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// cacheStatsOf reads the result_cache block of GET /graphs.
func cacheStatsOf(t *testing.T, baseURL string) ResultCacheStats {
	t.Helper()
	status, body := get(t, baseURL+"/graphs")
	if status != http.StatusOK {
		t.Fatalf("GET /graphs: status %d: %s", status, body)
	}
	var list graphListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	return list.ResultCache
}

// graphStatsOf reads one graph's stats row out of GET /graphs.
func graphStatsOf(t *testing.T, baseURL, name string) GraphStats {
	t.Helper()
	status, body := get(t, baseURL+"/graphs")
	if status != http.StatusOK {
		t.Fatalf("GET /graphs: status %d: %s", status, body)
	}
	var list graphListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	for _, st := range list.Graphs {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("graph %q not in GET /graphs", name)
	return GraphStats{}
}

// referenceAnswer computes a request on a fresh cache-disabled
// single-tenant server — the ground truth every cached or coalesced
// answer must be byte-identical to. Workers is pinned to 1, the
// canonical stream shape.
func referenceAnswer(t *testing.T, src []byte, name, reqBody string) []byte {
	t.Helper()
	srv := &Server{Worlds: 400, Seed: 11, Workers: 1}
	if _, _, err := srv.Publish(name, src, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, b := postBody(t, ts.URL+"/graphs/"+name+"/batch", reqBody)
	if status != http.StatusOK {
		t.Fatalf("reference %s on %q: status %d: %s", reqBody, name, status, b)
	}
	return b
}

// corpusRequest renders one random valid batch request over a 5-vertex
// graph: mixed ops, default-vs-explicit worlds, absent/zero/adaptive
// tolerance, derived-vs-pinned seed.
func corpusRequest(rng *rand.Rand) string {
	nq := 1 + rng.Intn(3)
	qs := make([]string, nq)
	for i := range qs {
		switch rng.Intn(3) {
		case 0:
			qs[i] = fmt.Sprintf(`{"op":"reliability","s":%d,"t":%d}`, rng.Intn(5), rng.Intn(5))
		case 1:
			qs[i] = fmt.Sprintf(`{"op":"distance","s":%d,"t":%d}`, rng.Intn(5), rng.Intn(5))
		default:
			qs[i] = fmt.Sprintf(`{"op":"knn","s":%d,"k":%d}`, rng.Intn(5), 1+rng.Intn(4))
		}
	}
	fields := []string{fmt.Sprintf(`"queries":[%s]`, strings.Join(qs, ","))}
	if w := []int{0, 50, 64, 120}[rng.Intn(4)]; w > 0 {
		fields = append(fields, fmt.Sprintf(`"worlds":%d`, w))
	}
	switch rng.Intn(3) {
	case 0:
		fields = append(fields, `"tolerance":0.05`)
	case 1:
		fields = append(fields, `"tolerance":0`)
	}
	if rng.Intn(3) == 0 {
		fields = append(fields, `"seed":7`)
	}
	return "{" + strings.Join(fields, ",") + "}"
}

// TestResultCacheBitIdentityProperty is the cache's core contract as a
// property test: over a randomized request corpus on two graphs, the
// cold (computing) response and the warm (cached) response are both
// byte-identical to a fresh cache-disabled single-tenant
// recomputation, at Workers 1 and 4 alike.
func TestResultCacheBitIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srcs := map[string][]byte{
		"chain": ugBytes(t, testGraph(t)),
		"star":  ugBytes(t, starGraph(t)),
	}
	type sample struct{ graph, body string }
	corpus := make([]sample, 12)
	for i := range corpus {
		name := "chain"
		if i%2 == 1 {
			name = "star"
		}
		corpus[i] = sample{name, corpusRequest(rng)}
	}
	refs := make([][]byte, len(corpus))
	for i, c := range corpus {
		refs[i] = referenceAnswer(t, srcs[c.graph], c.graph, c.body)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			srv := &Server{Worlds: 400, Seed: 11, Workers: workers, ResultCacheBudget: DefaultResultCacheBudget}
			for name, src := range srcs {
				if _, _, err := srv.Publish(name, src, GraphConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			for i, c := range corpus {
				url := ts.URL + "/graphs/" + c.graph + "/batch"
				for _, phase := range []string{"cold", "warm"} {
					status, got := postBody(t, url, c.body)
					if status != http.StatusOK {
						t.Fatalf("request %d (%s) %s: status %d: %s", i, phase, c.body, status, got)
					}
					if !bytes.Equal(got, refs[i]) {
						t.Errorf("request %d (%s) %s diverges from fresh recomputation:\n got %s\nwant %s",
							i, phase, c.body, got, refs[i])
					}
				}
			}
			st := cacheStatsOf(t, ts.URL)
			if !st.Enabled {
				t.Fatal("result cache reported disabled")
			}
			if st.Hits < uint64(len(corpus)) {
				t.Errorf("cache hits = %d over %d warm repeats", st.Hits, len(corpus))
			}
			if st.Entries == 0 || st.Bytes == 0 {
				t.Errorf("cache occupancy entries=%d bytes=%d, want > 0", st.Entries, st.Bytes)
			}
		})
	}
}

// TestResultCacheEvictThenWarm pins the evict-then-warm scenario: a
// budget that fits one stored answer evicts it when a second lands,
// and re-asking the evicted request recomputes the byte-identical
// answer (and never an over-budget stale one).
func TestResultCacheEvictThenWarm(t *testing.T) {
	src := ugBytes(t, testGraph(t))
	const reqA = `{"worlds":120,"queries":[{"op":"reliability","s":0,"t":3}]}`
	const reqB = `{"worlds":120,"queries":[{"op":"reliability","s":0,"t":4}]}`
	refA := referenceAnswer(t, src, "g", reqA)

	// Room for one body plus slack, never two.
	srv := &Server{Worlds: 400, Seed: 11, ResultCacheBudget: int64(len(refA)) + 16}
	if _, _, err := srv.Publish("g", src, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/graphs/g/batch"

	if _, got := postBody(t, url, reqA); !bytes.Equal(got, refA) {
		t.Fatalf("cold answer diverges:\n got %s\nwant %s", got, refA)
	}
	postBody(t, url, reqB) // evicts reqA's entry
	if st := cacheStatsOf(t, ts.URL); st.Evictions == 0 {
		t.Errorf("no eviction after the second distinct answer (stats %+v)", st)
	} else if st.Bytes > srv.ResultCacheBudget {
		t.Errorf("resident %d bytes exceed the %d budget", st.Bytes, srv.ResultCacheBudget)
	}
	if _, got := postBody(t, url, reqA); !bytes.Equal(got, refA) {
		t.Errorf("evict-then-warm answer diverges:\n got %s\nwant %s", got, refA)
	}
	if st := cacheStatsOf(t, ts.URL); st.Computations < 3 {
		t.Errorf("computations = %d, want 3 (the evicted answer recomputed)", st.Computations)
	}
}

// TestResultCacheHitSurvivesGraphEviction pins the post-graph-reload
// scenarios: a cached answer keeps serving byte-identically while its
// graph is evicted — without reloading it — and a fresh request after
// the reload recomputes byte-identically too.
func TestResultCacheHitSurvivesGraphEviction(t *testing.T) {
	fp := graphFootprint(t)
	chainSrc := ugBytes(t, testGraph(t))
	starSrc := ugBytes(t, starGraph(t))
	const reqA = `{"queries":[{"op":"reliability","s":0,"t":3},{"op":"knn","s":2,"k":3}]}`
	const reqB = `{"queries":[{"op":"distance","s":0,"t":4}]}`
	refA := referenceAnswer(t, chainSrc, "chain", reqA)
	refB := referenceAnswer(t, chainSrc, "chain", reqB)
	refStar := referenceAnswer(t, starSrc, "star", reqA)

	// Budget fits one graph: every acquire of one evicts the other.
	srv := &Server{Worlds: 400, Seed: 11, GlobalMemBudget: fp + fp/2, ResultCacheBudget: DefaultResultCacheBudget}
	if _, _, err := srv.Publish("chain", chainSrc, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Publish("star", starSrc, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// chain was evicted by star's publish: this request reloads it.
	if _, got := postBody(t, ts.URL+"/graphs/chain/batch", reqA); !bytes.Equal(got, refA) {
		t.Fatalf("post-reload answer diverges:\n got %s\nwant %s", got, refA)
	}
	// star's turn evicts chain again.
	if _, got := postBody(t, ts.URL+"/graphs/star/batch", reqA); !bytes.Equal(got, refStar) {
		t.Fatalf("star answer diverges:\n got %s\nwant %s", got, refStar)
	}
	misses := graphStatsOf(t, ts.URL, "chain").Misses

	// Cache hit on the evicted graph: byte-identical, and the graph
	// stays evicted — a hit is a lookup, not a reload.
	if _, got := postBody(t, ts.URL+"/graphs/chain/batch", reqA); !bytes.Equal(got, refA) {
		t.Errorf("cached answer for the evicted graph diverges:\n got %s\nwant %s", got, refA)
	}
	if st := graphStatsOf(t, ts.URL, "chain"); st.Loaded || st.Misses != misses {
		t.Errorf("cache hit touched the evicted graph: %+v (misses were %d)", st, misses)
	}

	// A fresh request misses the cache, reloads the graph, and still
	// answers byte-identically to the single-tenant reference.
	if _, got := postBody(t, ts.URL+"/graphs/chain/batch", reqB); !bytes.Equal(got, refB) {
		t.Errorf("fresh request after reload diverges:\n got %s\nwant %s", got, refB)
	}
	if st := graphStatsOf(t, ts.URL, "chain"); !st.Loaded || st.Misses != misses+1 {
		t.Errorf("fresh request did not reload the graph: %+v", st)
	}
}

// TestCacheInvalidatedOnRepublish is the stale-answer regression
// guard: deleting and republishing a name with different bytes — or
// replacing it in place — must never serve the old release's cached
// answers.
func TestCacheInvalidatedOnRepublish(t *testing.T) {
	chainSrc := ugBytes(t, testGraph(t))
	starSrc := ugBytes(t, starGraph(t))
	const req = `{"queries":[{"op":"reliability","s":1,"t":3}]}`
	refChain := referenceAnswer(t, chainSrc, "g", req)
	refStar := referenceAnswer(t, starSrc, "g", req)
	if bytes.Equal(refChain, refStar) {
		t.Fatal("fixture graphs answer identically; the test cannot see staleness")
	}

	srv := &Server{Worlds: 400, Seed: 11, ResultCacheBudget: DefaultResultCacheBudget}
	if _, _, err := srv.Publish("g", chainSrc, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/graphs/g/batch"

	if _, got := postBody(t, url, req); !bytes.Equal(got, refChain) {
		t.Fatalf("first release diverges:\n got %s\nwant %s", got, refChain)
	}
	postBody(t, url, req) // warm the cache
	if st := cacheStatsOf(t, ts.URL); st.Hits == 0 {
		t.Fatalf("warm repeat did not hit the cache: %+v", st)
	}

	// Delete, then republish different bytes under the same name.
	if status, body := do(t, "DELETE", ts.URL+"/graphs/g", nil); status != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", status, body)
	}
	if status, body := do(t, "PUT", ts.URL+"/graphs/g", bytes.NewReader(starSrc)); status != http.StatusOK {
		t.Fatalf("republish: status %d: %s", status, body)
	}
	if _, got := postBody(t, url, req); !bytes.Equal(got, refStar) {
		t.Errorf("republished graph served a stale answer:\n got %s\nwant %s", got, refStar)
	}

	// In-place replace back to the first release's bytes: determinism
	// makes the answer equal again, but it must be a recomputation
	// under the new generation, not a resurfaced cache entry.
	before := cacheStatsOf(t, ts.URL).Computations
	if status, body := do(t, "PUT", ts.URL+"/graphs/g", bytes.NewReader(chainSrc)); status != http.StatusOK {
		t.Fatalf("replace: status %d: %s", status, body)
	}
	if _, got := postBody(t, url, req); !bytes.Equal(got, refChain) {
		t.Errorf("replaced graph diverges from its release's reference:\n got %s\nwant %s", got, refChain)
	}
	if after := cacheStatsOf(t, ts.URL).Computations; after != before+1 {
		t.Errorf("computations %d -> %d across the replace, want a fresh computation", before, after)
	}
}

// TestHealthzReportsResultCache pins the observability surface: with
// the cache off /healthz says so, with it on the budget and counters
// appear.
func TestHealthzReportsResultCache(t *testing.T) {
	off := &Server{G: testGraph(t), Worlds: 50, Seed: 11}
	tsOff := httptest.NewServer(off.Handler())
	t.Cleanup(tsOff.Close)
	status, body := get(t, tsOff.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.ResultCache.Enabled || h.ResultCache.BudgetBytes != 0 {
		t.Errorf("cache-off healthz reports %+v", h.ResultCache)
	}

	on := &Server{G: testGraph(t), Worlds: 50, Seed: 11, ResultCacheBudget: 1 << 20}
	tsOn := httptest.NewServer(on.Handler())
	t.Cleanup(tsOn.Close)
	get(t, tsOn.URL+"/reliability?s=0&t=4")
	status, body = get(t, tsOn.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	rc := h.ResultCache
	if !rc.Enabled || rc.BudgetBytes != 1<<20 || rc.Entries != 1 || rc.Misses != 1 || rc.Computations != 1 {
		t.Errorf("cache-on healthz reports %+v", rc)
	}
	if rc.SharedRuns != 0 || rc.SharedBatches != 0 {
		t.Errorf("shared_runs %d / shared_batches %d, want the retired counters at 0", rc.SharedRuns, rc.SharedBatches)
	}
}
