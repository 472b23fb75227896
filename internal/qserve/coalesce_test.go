package qserve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// slowCachedServer hosts one n-vertex benchGraph on a cache-enabled
// server: big enough that batch runs take long enough for concurrent
// requests to overlap deliberately.
func slowCachedServer(t *testing.T, n int) (*Server, *httptest.Server) {
	t.Helper()
	srv := &Server{Worlds: 400, Workers: 1, Seed: 3, ResultCacheBudget: DefaultResultCacheBudget}
	if _, err := srv.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// asyncPost fires a batch request on its own goroutine; the returned
// function joins it (goroutine-safe: no t.Fatal off the test
// goroutine).
func asyncPost(url, body string) func() (int, []byte, error) {
	type result struct {
		status int
		body   []byte
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		ch <- result{resp.StatusCode, b, err}
	}()
	return func() (int, []byte, error) {
		r := <-ch
		return r.status, r.body, r.err
	}
}

// waitForStats polls GET /graphs until pred accepts the result-cache
// stats (the deadline failing the test).
func waitForStats(t *testing.T, baseURL string, pred func(ResultCacheStats) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred(cacheStatsOf(t, baseURL)) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (stats %+v)", what, cacheStatsOf(t, baseURL))
}

// TestSingleFlightCoalesces is the race exercise of the single-flight
// layer (run it under -race): N concurrent identical requests plus N
// near-identical ones (same seed, different tolerance) produce
// exactly one computation per distinct key, every response within a
// group byte-identical, whatever the interleaving — late arrivals
// either join the flight or hit the cache it filled.
func TestSingleFlightCoalesces(t *testing.T) {
	_, ts := slowCachedServer(t, 300)
	const queries = `"queries":[{"op":"reliability","s":0,"t":150},{"op":"distance","s":1,"t":200}]`
	const ident = `{"worlds":600,` + queries + `}`
	const tolVariant = `{"worlds":600,"tolerance":0.5,` + queries + `}`
	url := ts.URL + "/graphs/big/batch"

	const n = 8
	joins := make([]func() (int, []byte, error), 0, 2*n)
	for i := 0; i < 2*n; i++ {
		body := ident
		if i%2 == 1 {
			body = tolVariant
		}
		joins = append(joins, asyncPost(url, body))
	}

	var identBodies, tolBodies [][]byte
	for i, join := range joins {
		status, body, err := join()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		if i%2 == 0 {
			identBodies = append(identBodies, body)
		} else {
			tolBodies = append(tolBodies, body)
		}
	}
	for name, group := range map[string][][]byte{"identical": identBodies, "tolerance": tolBodies} {
		for i, b := range group {
			if !bytes.Equal(b, group[0]) {
				t.Errorf("%s request %d diverges:\n%s\nvs\n%s", name, i, b, group[0])
			}
		}
	}

	st := cacheStatsOf(t, ts.URL)
	if st.Computations != 2 {
		t.Errorf("computations = %d over %d requests with 2 distinct keys, want 2", st.Computations, 2*n)
	}
	if st.Hits+st.Coalesced != 2*n-2 {
		t.Errorf("hits %d + coalesced %d != %d non-leader requests", st.Hits, st.Coalesced, 2*n-2)
	}

	// And the coalesced answer is the recomputation's answer: a fresh
	// cache-disabled server agrees byte-for-byte.
	ref := &Server{Worlds: 400, Workers: 1, Seed: 3}
	if _, err := ref.PublishGraph("big", benchGraph(t, 300), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	_, want := postBody(t, tsRef.URL+"/graphs/big/batch", ident)
	if !bytes.Equal(identBodies[0], want) {
		t.Errorf("coalesced answer diverges from fresh recomputation:\n%s\nvs\n%s", identBodies[0], want)
	}
}

// TestAbandonedFlightStopsAndGoroutinesSettle pins mid-flight
// cancellation: when the only attached request drops, the flight's
// computation is cancelled, nothing is cached, the goroutine count
// returns to its pre-request baseline, and the same request afterwards
// recomputes a correct answer.
func TestAbandonedFlightStopsAndGoroutinesSettle(t *testing.T) {
	const n = 1000
	_, ts := slowCachedServer(t, n)
	url := ts.URL + "/graphs/big/batch"
	const body = `{"worlds":6000,"tolerance":0,"queries":[{"op":"reliability","s":0,"t":500}]}`

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitForStats(t, ts.URL, func(st ResultCacheStats) bool { return st.Computations >= 1 }, "the flight to start")
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled request completed with a response")
	}

	// The abandoned flight and its run wind down; no goroutine leaks.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+3 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+3 {
		t.Errorf("goroutines %d after cancellation, baseline was %d", got, baseline)
	}
	if st := cacheStatsOf(t, ts.URL); st.Entries != 0 {
		t.Errorf("cancelled flight stored %d cache entries", st.Entries)
	}

	// The identical request recomputes from scratch and matches the
	// cache-disabled reference: errors and aborts never stick.
	status, got := postBody(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("post-cancel request: status %d: %s", status, got)
	}
	ref := &Server{Worlds: 400, Workers: 1, Seed: 3}
	if _, err := ref.PublishGraph("big", benchGraph(t, n), GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	if _, want := postBody(t, tsRef.URL+"/graphs/big/batch", body); !bytes.Equal(got, want) {
		t.Errorf("post-cancel answer diverges from fresh recomputation:\n%s\nvs\n%s", got, want)
	}
}

// TestLookupNeverJoinsAbandonedFlight pins the single-flight table
// against a request that arrives after every requester of a flight has
// detached, but before the cancelled computation has aborted: it must
// lead a fresh flight, not wait on one that will never settle, and the
// late abort must not unregister the flight that replaced it.
// (TestAbandonedFlightStopsAndGoroutinesSettle's post-cancel request
// used to hang in that window.)
func TestLookupNeverJoinsAbandonedFlight(t *testing.T) {
	c := newResultCache(1 << 20)
	_, old, leader := c.lookup("k")
	if !leader {
		t.Fatal("first lookup did not lead a flight")
	}
	c.detach(old) // the only requester leaves, which cancels the flight
	if old.ctx.Err() == nil {
		t.Fatal("abandoned flight was not cancelled")
	}
	_, fresh, leader := c.lookup("k")
	if !leader || fresh == old {
		t.Fatalf("a request after the abandon joined the cancelled flight (leader %v)", leader)
	}
	c.abort("k", old) // the cancelled computation returns late
	if _, joined, leader := c.lookup("k"); leader || joined != fresh {
		t.Fatal("the late abort unregistered the flight that replaced it")
	}
	c.settle("k", "g", fresh, http.StatusOK, []byte("answer"), true)
	if !fresh.settled() {
		t.Fatal("settling the fresh flight did not release its waiters")
	}
	if body, f, _ := c.lookup("k"); f != nil || string(body) != "answer" {
		t.Errorf("after settle: body %q flight %v, want the stored answer", body, f)
	}
}
