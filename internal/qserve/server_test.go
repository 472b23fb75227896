package qserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uncertaingraph/internal/uncertain"
)

// testGraph is the chain 0-1-2-3 with probability 0.8 per edge plus a
// certain edge 3-4, giving both probabilistic and deterministic
// structure.
func testGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	g, err := uncertain.New(5, []uncertain.Pair{
		{U: 0, V: 1, P: 0.8}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.8},
		{U: 3, V: 4, P: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withTestGraph publishes testGraph under "default" and makes it the
// graph the alias routes (/batch, /reliability, ...) serve.
func withTestGraph(t *testing.T, srv *Server) *Server {
	t.Helper()
	srv.DefaultGraph = "default"
	if _, err := srv.PublishGraph("default", testGraph(t), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	return srv
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := withTestGraph(t, &Server{Worlds: 400, Seed: 11})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Vertices != 5 || h.Pairs != 4 || h.DefaultWorlds != 400 {
		t.Errorf("health = %+v", h)
	}
	// The caps that 400 a request must be discoverable.
	if h.MaxQueries != DefaultMaxQueries {
		t.Errorf("max_queries = %d, want %d", h.MaxQueries, DefaultMaxQueries)
	}
	if h.MaxWorlds != DefaultMaxWorlds {
		t.Errorf("max_worlds = %d, want %d", h.MaxWorlds, DefaultMaxWorlds)
	}
	if h.Workers < 1 {
		t.Errorf("workers = %d, want the effective clamp >= 1", h.Workers)
	}
}

func TestHealthzEchoesConfiguredLimits(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 16, Seed: 11, MaxQueries: 7, Workers: 3, Tolerance: 0.25})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.MaxQueries != 7 {
		t.Errorf("max_queries = %d, want 7", h.MaxQueries)
	}
	// Workers is the effective clamp, not the raw setting: 3 workers
	// over 16 default worlds stays 3.
	if h.Workers != 3 {
		t.Errorf("workers = %d, want 3", h.Workers)
	}
	if h.Tolerance != 0.25 {
		t.Errorf("tolerance = %v, want 0.25", h.Tolerance)
	}
}

func TestReliabilityEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/reliability?s=3&t=4")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Reliability == nil {
		t.Fatalf("response %s", body)
	}
	// The 3-4 edge is certain.
	if got := *resp.Results[0].Reliability; got != 1 {
		t.Errorf("Pr(3~4) = %v, want 1", got)
	}
	if resp.Worlds != 400 {
		t.Errorf("worlds = %d, want the server default 400", resp.Worlds)
	}
	// A zero-valued target must still be echoed (T is a pointer
	// precisely so t=0 survives omitempty).
	_, body0 := get(t, ts.URL+"/reliability?s=3&t=0")
	if !strings.Contains(string(body0), `"t":0`) {
		t.Errorf("t=0 not echoed in %s", body0)
	}
}

func TestDistanceEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/distance?s=0&t=2&worlds=2000")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if res.Median == nil || res.Disconnected == nil || res.Distances == nil {
		t.Fatalf("response %s", body)
	}
	// P(d=2) = 0.64: the median must be 2 and all mass accountable.
	if *res.Median != 2 {
		t.Errorf("median = %d, want 2", *res.Median)
	}
	var mass float64
	for _, p := range res.Distances {
		mass += p
	}
	if diff := mass + *res.Disconnected - 1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("mass %v + disconnected %v != 1", mass, *res.Disconnected)
	}
}

func TestKNNEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/knn?s=4&k=2")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	nb := resp.Results[0].Neighbors
	if len(nb) != 2 || nb[0].V != 3 || nb[0].Median != 1 {
		t.Errorf("neighbors = %+v, want 3 (median 1) first", nb)
	}
}

func TestBatchEndpointAndDeterminism(t *testing.T) {
	ts := testServer(t)
	reqBody := `{"worlds":500,"queries":[
		{"op":"reliability","s":0,"t":3},
		{"op":"distance","s":0,"t":3},
		{"op":"knn","s":0,"k":3}]}`
	post := func() (int, []byte) {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	status, body1 := get(t, ts.URL+"/healthz") // warm an unrelated path
	if status != http.StatusOK {
		t.Fatal(string(body1))
	}
	s1, b1 := post()
	s2, b2 := post()
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("status %d/%d: %s", s1, s2, b1)
	}
	// Content-derived seeds: identical requests, identical answers.
	if string(b1) != string(b2) {
		t.Errorf("identical requests answered differently:\n%s\nvs\n%s", b1, b2)
	}
	var resp BatchResponse
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	// Same worlds inside the batch: reliability == 1 - disconnected (up
	// to the float division by r).
	rel := *resp.Results[0].Reliability
	disc := *resp.Results[1].Disconnected
	if diff := rel - (1 - disc); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("reliability %v != 1 - disconnected %v on shared worlds", rel, disc)
	}
	// A pinned seed overrides the derivation and changes the answer
	// stream (same estimator, different worlds).
	resp2, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"worlds":500,"seed":123,"queries":[{"op":"reliability","s":0,"t":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var pinned BatchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.Seed != 123 {
		t.Errorf("pinned seed not echoed: %d", pinned.Seed)
	}
}

// TestBatchAdaptiveTolerance exercises the request-level tolerance:
// an adaptive run stops short of its worlds budget, reports the worlds
// actually used, and answers bit-identically to a fixed run of exactly
// that prefix length on the same pinned seed.
func TestBatchAdaptiveTolerance(t *testing.T) {
	ts := testServer(t)
	post := func(reqBody string) BatchResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		return br
	}

	adaptive := post(`{"worlds":2000,"seed":123,"tolerance":0.1,"queries":[{"op":"reliability","s":0,"t":1}]}`)
	if adaptive.Worlds >= 2000 {
		t.Fatalf("adaptive run used all %d worlds, expected early stop", adaptive.Worlds)
	}
	if !adaptive.Converged || adaptive.Tolerance != 0.1 {
		t.Errorf("adaptive response converged=%v tolerance=%v, want true/0.1", adaptive.Converged, adaptive.Tolerance)
	}

	// A fixed run of exactly the prefix length on the same seed must
	// answer bit-identically.
	fixed := post(fmt.Sprintf(`{"worlds":%d,"seed":123,"queries":[{"op":"reliability","s":0,"t":1}]}`, adaptive.Worlds))
	if fixed.Worlds != adaptive.Worlds {
		t.Fatalf("fixed prefix run used %d worlds, want %d", fixed.Worlds, adaptive.Worlds)
	}
	if got, want := *fixed.Results[0].Reliability, *adaptive.Results[0].Reliability; got != want {
		t.Errorf("prefix reliability %v != adaptive %v", got, want)
	}

	// An explicit zero tolerance disables adaptive stopping even when
	// the server would otherwise default to one.
	full := post(`{"worlds":2000,"seed":123,"tolerance":0,"queries":[{"op":"reliability","s":0,"t":1}]}`)
	if full.Worlds != 2000 {
		t.Errorf("tolerance 0 run used %d worlds, want the full 2000", full.Worlds)
	}
	if full.Converged || full.Tolerance != 0 {
		t.Errorf("fixed response should not carry adaptive fields: %+v", full)
	}

	// A batch carrying a k-NN query has no scalar CI and must run its
	// full budget, reporting converged=false.
	knn := post(`{"worlds":200,"seed":123,"tolerance":0.1,"queries":[{"op":"knn","s":0,"k":2}]}`)
	if knn.Worlds != 200 || knn.Converged {
		t.Errorf("k-NN batch worlds=%d converged=%v, want 200/false", knn.Worlds, knn.Converged)
	}
}

func TestValidationErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, url string
	}{
		{"missing t", "/reliability?s=0"},
		{"bad vertex", "/reliability?s=0&t=99"},
		{"negative vertex", "/distance?s=-1&t=2"},
		{"zero k", "/knn?s=0&k=0"},
		{"bad int", "/knn?s=abc&k=2"},
		{"worlds over cap", fmt.Sprintf("/reliability?s=0&t=1&worlds=%d", DefaultMaxWorlds+1)},
		{"negative tolerance", "/reliability?s=0&t=1&tolerance=-0.1"},
		{"NaN tolerance", "/reliability?s=0&t=1&tolerance=NaN"},
	}
	for _, c := range cases {
		status, body := get(t, ts.URL+c.url)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, status, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error message in %s", c.name, body)
		}
	}
	// Unknown op and empty list via POST.
	for _, reqBody := range []string{
		`{"queries":[{"op":"pagerank","s":0}]}`,
		`{"queries":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", reqBody, resp.StatusCode)
		}
	}
}

// TestOverBudgetKNNRejected is the regression for the memory-budget
// layer: a k-NN request whose worst-case accumulator footprint exceeds
// the server's budget is rejected with HTTP 413 and an error wrapping
// query.ErrOverBudget, while reliability requests (worst case 0 bytes)
// keep serving under the same budget.
func TestOverBudgetKNNRejected(t *testing.T) {
	// 5 vertices, Workers 1: one k-NN source prices at 5*5*4 = 100
	// bytes, so a 99-byte budget rejects it.
	srv := withTestGraph(t, &Server{Worlds: 50, Seed: 11, Workers: 1, MemoryBudget: 99})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status, body := get(t, ts.URL+"/knn?s=0&k=2")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", status, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "memory budget") {
		t.Errorf("error body %s does not name the memory budget", body)
	}
	if status, body := get(t, ts.URL+"/reliability?s=0&t=4"); status != http.StatusOK {
		t.Errorf("reliability under the same budget: status %d (%s), want 200", status, body)
	}
	// Raising the budget by one byte admits the identical request.
	srv.MemoryBudget = 100
	if status, body := get(t, ts.URL+"/knn?s=0&k=2"); status != http.StatusOK {
		t.Errorf("at-budget k-NN: status %d (%s), want 200", status, body)
	}
}

// TestKNNSourceCapRejected pins the distinct-source cap: queries
// naming more distinct k-NN sources than MaxKNNSources get 413;
// repeats of one source count once.
func TestKNNSourceCapRejected(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 50, Seed: 11, MaxKNNSources: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	over := `{"queries":[{"op":"knn","s":0,"k":2},{"op":"knn","s":1,"k":2},{"op":"knn","s":2,"k":2}]}`
	if status := post(over); status != http.StatusRequestEntityTooLarge {
		t.Errorf("3 distinct sources: status %d, want 413", status)
	}
	dupes := `{"queries":[{"op":"knn","s":0,"k":2},{"op":"knn","s":0,"k":3},{"op":"knn","s":1,"k":2}]}`
	if status := post(dupes); status != http.StatusOK {
		t.Errorf("2 distinct sources (one repeated): status %d, want 200", status)
	}
}

// TestRequestCancellationStopsRun pins the request-scoped cancellation
// wiring: a client that drops mid-batch cancels its context, the run
// aborts with no response written, and the pooled batch stays healthy —
// the next request reuses it and answers deterministically.
func TestRequestCancellationStopsRun(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 4000, Seed: 11})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/reliability?s=0&t=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Error("dropped request completed with a response")
	}

	// The server keeps serving after the abandoned run: same request
	// twice, identical (content-derived seed) answers.
	s1, b1 := get(t, ts.URL+"/reliability?s=0&t=4&worlds=200")
	s2, b2 := get(t, ts.URL+"/reliability?s=0&t=4&worlds=200")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("post-cancel statuses %d/%d, want 200", s1, s2)
	}
	if string(b1) != string(b2) {
		t.Errorf("post-cancel answers diverge: %s vs %s", b1, b2)
	}
}

// TestServerDefaultWorldsClamped pins that the MaxWorlds cap also
// bounds the server-configured default: a daemon misconfigured with
// Worlds > MaxWorlds must not serve uncapped requests whenever the
// client omits the worlds field.
func TestServerDefaultWorldsClamped(t *testing.T) {
	srv := withTestGraph(t, &Server{Worlds: 500, MaxWorlds: 200, Seed: 11})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	status, body := get(t, ts.URL+"/reliability?s=0&t=1")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Worlds != 200 {
		t.Errorf("default worlds served = %d, want clamped 200", resp.Worlds)
	}
}
