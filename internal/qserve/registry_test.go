package qserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"uncertaingraph/internal/ugbin"
	"uncertaingraph/internal/uncertain"
)

// chainGraph is the 0-1-2-3 chain with probability 0.8 per edge plus a
// certain edge 3-4 (the single-graph tests' fixture); starGraph is a
// certain star around 0 — structurally distinct, so any cross-graph
// answer leakage is visible in the numbers.
func starGraph(t testing.TB) *uncertain.Graph {
	t.Helper()
	g, err := uncertain.New(5, []uncertain.Pair{
		{U: 0, V: 1, P: 1}, {U: 0, V: 2, P: 1}, {U: 0, V: 3, P: 1}, {U: 0, V: 4, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ugBytes(t testing.TB, g *uncertain.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// graphFootprint is the FootprintBytes of the 5-vertex 4-pair test
// fixtures; the eviction tests size their global budget around it.
func graphFootprint(t testing.TB) int64 {
	t.Helper()
	return testGraph(t.(*testing.T)).FootprintBytes()
}

func do(t *testing.T, method, url string, body io.Reader) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestRegistryMultiGraphServing is the core acceptance path: one
// daemon hosts two graphs, query endpoints address them by name, each
// answers from its own structure, and an unknown graph is 404.
func TestRegistryMultiGraphServing(t *testing.T) {
	srv := &Server{Worlds: 200, Seed: 11}
	if _, _, err := srv.Publish("chain", ugBytes(t, testGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Publish("star", ugBytes(t, starGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// In the star, 1 and 4 connect only through 0's certain spokes:
	// Pr(1~3) = 1. In the chain, Pr(1~3) = 0.64.
	var chain, star BatchResponse
	status, body := get(t, ts.URL+"/graphs/chain/reliability?s=1&t=3")
	if status != http.StatusOK {
		t.Fatalf("chain: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &chain); err != nil {
		t.Fatal(err)
	}
	status, body = get(t, ts.URL+"/graphs/star/reliability?s=1&t=3")
	if status != http.StatusOK {
		t.Fatalf("star: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &star); err != nil {
		t.Fatal(err)
	}
	if got := *star.Results[0].Reliability; got != 1 {
		t.Errorf("star Pr(1~3) = %v, want 1 (certain spokes)", got)
	}
	if got := *chain.Results[0].Reliability; got >= 1 || got <= 0 {
		t.Errorf("chain Pr(1~3) = %v, want in (0,1)", got)
	}
	if chain.Graph != "chain" || star.Graph != "star" {
		t.Errorf("responses echo graphs %q/%q, want chain/star", chain.Graph, star.Graph)
	}

	// Unknown graph: 404 with a JSON error.
	status, body = get(t, ts.URL+"/graphs/nosuch/reliability?s=0&t=1")
	if status != http.StatusNotFound {
		t.Errorf("unknown graph: status %d (%s), want 404", status, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("unknown graph: no JSON error in %s", body)
	}
	// Batch endpoint too.
	resp, err := http.Post(ts.URL+"/graphs/nosuch/batch", "application/json",
		strings.NewReader(`{"queries":[{"op":"reliability","s":0,"t":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown graph batch: status %d, want 404", resp.StatusCode)
	}
}

// TestEvictionReloadBitIdentical pins the acceptance criterion:
// evicting a cold graph under the global budget and re-requesting it
// reloads it and returns byte-identical answers to the pre-eviction
// request, with the hit/miss/eviction counters telling the story.
func TestEvictionReloadBitIdentical(t *testing.T) {
	fp := graphFootprint(t)
	// Budget fits one fixture graph but not two, so every publish or
	// reload of one evicts the other.
	srv := &Server{Worlds: 300, Seed: 7, GlobalMemBudget: fp + fp/2}
	if _, _, err := srv.Publish("a", ugBytes(t, testGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const q = "/graphs/a/batch"
	reqBody := `{"queries":[{"op":"reliability","s":0,"t":3},{"op":"distance","s":0,"t":4},{"op":"knn","s":2,"k":3}]}`
	post := func() (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+q, "application/json", strings.NewReader(reqBody))
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

	status, before := post() // hot: a resident since publish
	if status != http.StatusOK {
		t.Fatalf("pre-eviction: status %d: %s", status, before)
	}

	// Publishing b exceeds the budget and must evict a (the colder).
	if _, _, err := srv.Publish("b", ugBytes(t, starGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	stats, totals := srv.GraphStats()
	byName := map[string]GraphStats{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if byName["a"].Loaded || byName["a"].Evictions != 1 || byName["a"].ResidentBytes != 0 {
		t.Fatalf("a not evicted by b's publish: %+v", byName["a"])
	}
	if !byName["b"].Loaded {
		t.Fatalf("b not resident after publish: %+v", byName["b"])
	}
	if totals.Evictions != 1 || totals.Loaded != 1 || totals.ResidentBytes != byName["b"].ResidentBytes {
		t.Errorf("registry totals after eviction: %+v", totals)
	}

	// Re-requesting a reloads it transparently and bit-identically.
	status, after := post()
	if status != http.StatusOK {
		t.Fatalf("post-eviction: status %d: %s", status, after)
	}
	if string(before) != string(after) {
		t.Errorf("evict/reload changed the answer:\n%s\nvs\n%s", before, after)
	}
	stats, _ = srv.GraphStats()
	for _, st := range stats {
		byName[st.Name] = st
	}
	if !byName["a"].Loaded || byName["a"].Misses != 1 {
		t.Errorf("a after reload: %+v, want loaded with 1 miss", byName["a"])
	}
	if byName["b"].Loaded || byName["b"].Evictions != 1 {
		t.Errorf("b after a's reload: %+v, want evicted once", byName["b"])
	}

	// Hot repeat: a hit, not another reload.
	if status, again := post(); status != http.StatusOK || string(again) != string(before) {
		t.Errorf("hot repeat diverged (status %d)", status)
	}
	stats, _ = srv.GraphStats()
	for _, st := range stats {
		byName[st.Name] = st
	}
	if byName["a"].Hits < 2 || byName["a"].Misses != 1 {
		t.Errorf("a counters after hot repeat: %+v, want >=2 hits and still 1 miss", byName["a"])
	}
}

// TestGraphListAndHealthz pins the observability surface: GET /graphs
// and /healthz report per-graph residency and hit/miss/eviction
// counters plus the registry totals.
func TestGraphListAndHealthz(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 100, Seed: 11})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if _, _, err := srv.Publish("extra", ugBytes(t, starGraph(t)), GraphConfig{Worlds: 64}); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, ts.URL+"/graphs")
	if status != http.StatusOK {
		t.Fatalf("GET /graphs: status %d: %s", status, body)
	}
	var list graphListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "default" || list.Graphs[1].Name != "extra" {
		t.Fatalf("graph list = %+v, want [default extra]", list.Graphs)
	}
	if !list.Graphs[0].Loaded || list.Graphs[0].ResidentBytes == 0 {
		t.Errorf("default graph not reported resident: %+v", list.Graphs[0])
	}
	if list.Graphs[1].Worlds != 64 {
		t.Errorf("extra's worlds override not listed: %+v", list.Graphs[1])
	}
	if list.Registry.Graphs != 2 || list.Registry.Loaded != 2 || list.Registry.GlobalMemBudget != DefaultGlobalMemBudget {
		t.Errorf("registry totals = %+v", list.Registry)
	}

	status, body = get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.DefaultGraph != "default" || h.Vertices != 5 || h.Pairs != 4 {
		t.Errorf("healthz default-graph fields: %+v", h)
	}
	if len(h.Graphs) != 2 || h.Registry.Graphs != 2 {
		t.Errorf("healthz registry view: %d graphs, totals %+v", len(h.Graphs), h.Registry)
	}

	// Single-graph stats endpoint.
	status, body = get(t, ts.URL+"/graphs/extra")
	if status != http.StatusOK {
		t.Fatalf("GET /graphs/extra: status %d", status)
	}
	var st GraphStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "extra" || st.Vertices != 5 {
		t.Errorf("GET /graphs/extra = %+v", st)
	}
	if status, _ := get(t, ts.URL+"/graphs/nosuch"); status != http.StatusNotFound {
		t.Errorf("GET /graphs/nosuch: status %d, want 404", status)
	}
}

// TestUploadReplaceDelete drives the publish lifecycle over HTTP: PUT
// creates, a second PUT replaces (created=false, counters kept), the
// per-graph overrides ride the query string, and DELETE removes the
// graph for good.
func TestUploadReplaceDelete(t *testing.T) {
	srv := &Server{Worlds: 100, Seed: 11}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	src := ugBytes(t, testGraph(t))
	status, body := do(t, "PUT", ts.URL+"/graphs/rel1?worlds=50&tolerance=0.2", bytes.NewReader(src))
	if status != http.StatusOK {
		t.Fatalf("PUT: status %d: %s", status, body)
	}
	var up uploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if !up.Created || up.Graph.Name != "rel1" || up.Graph.Worlds != 50 || up.Graph.Tolerance != 0.2 {
		t.Fatalf("PUT response = %+v", up)
	}

	// The override takes effect: default-worlds requests run 50 worlds.
	status, body = get(t, ts.URL+"/graphs/rel1/reliability?s=3&t=4")
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Worlds > 50 {
		t.Errorf("worlds = %d, want <= the graph's 50-world override", resp.Worlds)
	}

	// Replace with the star graph: same name, created=false, new
	// structure served immediately.
	status, body = do(t, "POST", ts.URL+"/graphs/rel1", bytes.NewReader(ugBytes(t, starGraph(t))))
	if status != http.StatusOK {
		t.Fatalf("replace: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Created {
		t.Errorf("replacing PUT reported created=true")
	}
	status, body = get(t, ts.URL+"/graphs/rel1/reliability?s=1&t=3")
	if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusOK {
		t.Fatalf("post-replace query: status %d err %v", status, err)
	}
	if got := *resp.Results[0].Reliability; got != 1 {
		t.Errorf("post-replace Pr(1~3) = %v, want the star's 1", got)
	}

	// Malformed upload: 400 with the parse error.
	if status, body := do(t, "PUT", ts.URL+"/graphs/bad", strings.NewReader("0 1 not-a-prob\n")); status != http.StatusBadRequest {
		t.Errorf("malformed upload: status %d (%s), want 400", status, body)
	}
	// Bad override param: 400.
	if status, _ := do(t, "PUT", ts.URL+"/graphs/bad?worlds=-5", bytes.NewReader(src)); status != http.StatusBadRequest {
		t.Errorf("negative worlds override: status %d, want 400", status)
	}
	// Oversized upload: 413.
	srv.MaxUploadBytes = 16
	if status, _ := do(t, "PUT", ts.URL+"/graphs/big", bytes.NewReader(src)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", status)
	}
	srv.MaxUploadBytes = 0

	// Delete, then both the stats and the queries 404.
	if status, _ := do(t, "DELETE", ts.URL+"/graphs/rel1", nil); status != http.StatusOK {
		t.Errorf("DELETE: status %d, want 200", status)
	}
	if status, _ := do(t, "DELETE", ts.URL+"/graphs/rel1", nil); status != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", status)
	}
	if status, _ := get(t, ts.URL+"/graphs/rel1/reliability?s=0&t=1"); status != http.StatusNotFound {
		t.Errorf("query after DELETE: status %d, want 404", status)
	}
}

// TestLegacyAliasesResolveDefaultGraph pins the documented alias
// contract: the single-graph paths serve the default graph and share
// its world streams with the named paths (the seed derivation hashes
// the resolved name, not the URL shape).
func TestLegacyAliasesResolveDefaultGraph(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 150, Seed: 11})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	s1, b1 := get(t, ts.URL+"/reliability?s=0&t=3")
	s2, b2 := get(t, ts.URL+"/graphs/default/reliability?s=0&t=3")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s / %s", s1, s2, b1, b2)
	}
	if string(b1) != string(b2) {
		t.Errorf("alias and named path diverge:\n%s\nvs\n%s", b1, b2)
	}

	// Without a default graph the aliases 404 and name the fix.
	bare := &Server{Worlds: 50, Seed: 1}
	if _, _, err := bare.Publish("only", ugBytes(t, testGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(bare.Handler())
	t.Cleanup(ts2.Close)
	status, body := get(t, ts2.URL+"/reliability?s=0&t=1")
	if status != http.StatusNotFound || !strings.Contains(string(body), "no default graph") {
		t.Errorf("alias without default: status %d body %s, want 404 naming the fix", status, body)
	}
	// The named path still works.
	if status, _ := get(t, ts2.URL+"/graphs/only/reliability?s=0&t=1"); status != http.StatusOK {
		t.Errorf("named path on default-less server: status %d, want 200", status)
	}
}

// TestGraphNameAndPathValidation covers the routing edge cases the
// fuzzer also probes: traversal-shaped and non-canonical paths are
// 404, bad names are 400, and nothing panics.
func TestGraphNameAndPathValidation(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 50, Seed: 11})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for _, c := range []struct {
		path string
		want int
	}{
		{"/graphs/../reliability?s=0&t=1", http.StatusNotFound},                                 // traversal → non-canonical
		{"/graphs//reliability?s=0&t=1", http.StatusNotFound},                                   // empty segment
		{"/graphs/a/b/reliability?s=0&t=1", http.StatusNotFound},                                // no such route
		{"/graphs/" + strings.Repeat("x", 300) + "/reliability?s=0&t=1", http.StatusBadRequest}, // overlong name
		{"/graphs/a%2Fb/reliability?s=0&t=1", http.StatusBadRequest},                            // encoded slash in name
		{"/graphs/%2e%2e/reliability?s=0&t=1", http.StatusBadRequest},                           // encoded ".."
		{"/graphs/caf%C3%A9/reliability?s=0&t=1", http.StatusNotFound},                          // valid unicode name, unknown
	} {
		req, err := http.NewRequest("GET", ts.URL+c.path, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		// Keep the raw path: the default client would clean it before
		// the server ever saw the traversal shape.
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}

	// A unicode name round-trips through publish and query.
	if _, _, err := srv.Publish("café", ugBytes(t, starGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	if status, body := get(t, ts.URL+"/graphs/caf%C3%A9/reliability?s=0&t=1"); status != http.StatusOK {
		t.Errorf("unicode graph query: status %d (%s), want 200", status, body)
	}
	// Invalid names are rejected at publish time too.
	for _, name := range []string{"", ".", "..", "a/b", "ctrl\x01", strings.Repeat("x", 300)} {
		if _, _, err := srv.Publish(name, ugBytes(t, starGraph(t)), GraphConfig{}); err == nil {
			t.Errorf("Publish(%q) accepted an invalid name", name)
		}
	}
}

// TestRegistryFull pins the name-table cap: registering past MaxGraphs
// is rejected with ErrRegistryFull (HTTP 413), replacing an existing
// name is not.
func TestRegistryFull(t *testing.T) {
	srv := &Server{Worlds: 50, Seed: 11, MaxGraphs: 1}
	if _, _, err := srv.Publish("one", ugBytes(t, testGraph(t)), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Publish("one", ugBytes(t, starGraph(t)), GraphConfig{}); err != nil {
		t.Errorf("replacing at the cap failed: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	status, body := do(t, "PUT", ts.URL+"/graphs/two", bytes.NewReader(ugBytes(t, starGraph(t))))
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("publish past MaxGraphs: status %d (%s), want 413", status, body)
	}
}

// TestSeedsDecorrelateAcrossGraphs pins that two graphs with identical
// content and identical requests still get different world streams:
// the graph name is part of the seed derivation.
func TestSeedsDecorrelateAcrossGraphs(t *testing.T) {
	srv := &Server{Worlds: 100, Seed: 11}
	src := ugBytes(t, testGraph(t))
	for _, name := range []string{"left", "right"} {
		if _, _, err := srv.Publish(name, src, GraphConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var seeds [2]int64
	for i, name := range []string{"left", "right"} {
		status, body := get(t, ts.URL+"/graphs/"+name+"/reliability?s=0&t=3")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		seeds[i] = resp.Seed
	}
	if seeds[0] == seeds[1] {
		t.Errorf("identical requests against different graphs share seed %d", seeds[0])
	}
}

// TestRegistryConcurrentChurn is the registry's race exercise:
// concurrent publishes, queries, evictions (via a tight global budget)
// and deletes against one registry, with a surviving graph's answers
// asserted bit-identical before and after its neighbours' churn. Run
// with -race this also proves handles outlive eviction safely.
func TestRegistryConcurrentChurn(t *testing.T) {
	fp := graphFootprint(t)
	// Room for ~2 fixture graphs: every publish/reload of a third
	// evicts somebody, so eviction churns constantly under load.
	srv := &Server{Worlds: 60, Seed: 5, GlobalMemBudget: 2*fp + fp/2}
	keepSrc := ugBytes(t, testGraph(t))
	churnSrc := ugBytes(t, starGraph(t))
	if _, _, err := srv.Publish("keep", keepSrc, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const reqBody = `{"queries":[{"op":"reliability","s":0,"t":4},{"op":"knn","s":1,"k":3}]}`
	post := func(name string) (int, string) {
		resp, err := http.Post(ts.URL+"/graphs/"+name+"/batch", "application/json", strings.NewReader(reqBody))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	status, want := post("keep")
	if status != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", status, want)
	}

	const workers, rounds = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%d", w%3)
			for i := 0; i < rounds; i++ {
				switch w % 4 {
				case 0: // publisher: create/replace its churn graph
					if status, body := do(t, "PUT", ts.URL+"/graphs/"+name, bytes.NewReader(churnSrc)); status != http.StatusOK {
						t.Errorf("publish %s: status %d: %s", name, status, body)
						return
					}
				case 1: // deleter: delete (absent is fine), then republish
					do(t, "DELETE", ts.URL+"/graphs/"+name, nil)
					do(t, "PUT", ts.URL+"/graphs/"+name, bytes.NewReader(churnSrc))
				case 2: // churn reader: query whatever exists right now
					if status, body := post(name); status != http.StatusOK && status != http.StatusNotFound {
						t.Errorf("churn query %s: status %d: %s", name, status, body)
						return
					}
				default: // keep reader: the survivor must answer bit-identically throughout
					if status, body := post("keep"); status != http.StatusOK || body != want {
						t.Errorf("keep diverged mid-churn (status %d):\n%s\nvs\n%s", status, body, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles the survivor still answers identically,
	// whether or not the churn evicted it along the way.
	if status, body := post("keep"); status != http.StatusOK || body != want {
		t.Errorf("keep diverged after churn (status %d):\n%s\nvs\n%s", status, body, want)
	}
	_, totals := srv.GraphStats()
	if totals.ResidentBytes > srv.GlobalMemBudget {
		t.Errorf("resident %d bytes exceed the global budget %d after churn", totals.ResidentBytes, srv.GlobalMemBudget)
	}
}

// ugbBytes serializes g in the binary .ugb format.
func ugbBytes(t testing.TB, g *uncertain.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ugbin.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryPublishBitIdenticalToText pins the format-sniffing publish
// paths: the same graph published as text bytes, binary bytes and a
// binary file answers every query byte-identically (the request seed
// hashes the graph *name*, so the three publishes share one under
// rotating names), and the binary copies report mapped-not-resident
// memory.
func TestBinaryPublishBitIdenticalToText(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.ugb")
	if err := ugbin.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}

	const reqBody = `{"queries":[{"op":"reliability","s":0,"t":3},{"op":"distance","s":0,"t":4},{"op":"knn","s":2,"k":3}]}`
	answers := make(map[string]string)
	for _, tc := range []string{"text", "binary-upload", "binary-file"} {
		srv := &Server{Worlds: 200, Seed: 11}
		var st GraphStats
		var err error
		switch tc {
		case "text":
			st, _, err = srv.Publish("g", ugBytes(t, g), GraphConfig{})
		case "binary-upload":
			st, _, err = srv.Publish("g", ugbBytes(t, g), GraphConfig{})
		case "binary-file":
			st, err = srv.PublishFile("g", path, GraphConfig{})
		}
		if err != nil {
			t.Fatalf("%s: %v", tc, err)
		}
		if st.Vertices != g.NumVertices() || st.Pairs != g.NumPairs() {
			t.Errorf("%s: stats %d/%d, want %d/%d", tc, st.Vertices, st.Pairs, g.NumVertices(), g.NumPairs())
		}
		if tc == "text" {
			if st.ResidentBytes == 0 || st.MappedBytes != 0 {
				t.Errorf("text: resident=%d mapped=%d, want heap-resident", st.ResidentBytes, st.MappedBytes)
			}
		} else if st.MappedBytes == 0 || st.ResidentBytes != 0 {
			// Uploads adopt the retained bytes zero-copy; files mmap
			// (or, on platforms without mmap, PublishFile would be
			// heap-resident — this repo's CI targets are all unix).
			t.Errorf("%s: resident=%d mapped=%d, want mapped-backed", tc, st.ResidentBytes, st.MappedBytes)
		}

		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Post(ts.URL+"/graphs/g/batch", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%v): %s", tc, resp.StatusCode, err, b)
		}
		answers[tc] = string(b)
	}
	for _, tc := range []string{"binary-upload", "binary-file"} {
		if answers[tc] != answers["text"] {
			t.Errorf("%s answers diverge from text:\n%s\nvs\n%s", tc, answers[tc], answers["text"])
		}
	}
}

// TestMappedGraphsExemptFromEviction pins the honest-accounting rule: a
// mapped graph's memory is not metered by the global budget, so it is
// never chosen as an eviction victim — evicting it would free nothing
// while forcing a remap.
func TestMappedGraphsExemptFromEviction(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.ugb")
	if err := ugbin.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	fp := g.FootprintBytes()
	reg := &Registry{GlobalMemBudget: fp + fp/2}
	if _, err := reg.PublishFile("mapped", path, GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Publish("heap1", ugBytes(t, g), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	// heap2 pushes resident past the budget; the only evictable victim
	// is heap1 — "mapped" has zero footprint and must survive.
	if _, _, err := reg.Publish("heap2", ugBytes(t, g), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	list, totals := reg.Stats()
	byName := map[string]GraphStats{}
	for _, st := range list {
		byName[st.Name] = st
	}
	if !byName["mapped"].Loaded || byName["mapped"].Evictions != 0 {
		t.Errorf("mapped graph was evicted: %+v", byName["mapped"])
	}
	if byName["heap1"].Loaded || byName["heap1"].Evictions != 1 {
		t.Errorf("heap1 not evicted: %+v", byName["heap1"])
	}
	if totals.ResidentBytes != byName["heap2"].ResidentBytes || totals.MappedBytes != byName["mapped"].MappedBytes {
		t.Errorf("registry totals %+v inconsistent with per-graph stats", totals)
	}

	// An evicted heap graph reloads via acquire; the mapped graph keeps
	// serving without ever having missed.
	h, err := reg.acquire("heap1")
	if err != nil {
		t.Fatal(err)
	}
	if h.g == nil {
		t.Fatal("acquire returned nil graph")
	}
	if h2, err := reg.acquire("mapped"); err != nil || h2.g.MappedBytes() == 0 {
		t.Errorf("mapped acquire: err=%v", err)
	}
	list, _ = reg.Stats()
	for _, st := range list {
		byName[st.Name] = st
	}
	if byName["heap1"].Misses != 1 {
		t.Errorf("heap1 misses = %d, want 1", byName["heap1"].Misses)
	}
	if byName["mapped"].Misses != 0 || byName["mapped"].Hits != 1 {
		t.Errorf("mapped counters: %+v, want 1 hit / 0 misses", byName["mapped"])
	}
}
