package qserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"uncertaingraph/internal/query"
)

// TestFlightPanicAnswers500 is the fault-injection test of a panicking
// computation. The hook makes each world's Progress callback panic;
// Progress runs on the world loop's lane right after the world's scan,
// so at Workers 2 the panic starts on a parallel.ForWorkers goroutine,
// the path a panicking scan takes. Both the flight's leader and a
// request joined to it must get 500, nothing may be cached, the
// counter must read 1, and the daemon must answer the same request
// with 200 once the fault is gone — from a fresh batch, not the one
// the panic abandoned.
func TestFlightPanicAnswers500(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := &Server{Worlds: 400, Workers: workers, Seed: 3, ResultCacheBudget: DefaultResultCacheBudget}
			if _, err := srv.PublishGraph("big", benchGraph(t, 300), GraphConfig{}); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)

			var inject atomic.Bool
			inject.Store(true)
			release := make(chan struct{})
			var faulty, last atomic.Pointer[query.Batch]
			srv.beforeRun = func(b *query.Batch) {
				last.Store(b)
				if !inject.Load() {
					b.Progress = nil
					return
				}
				faulty.Store(b)
				b.Progress = func(int, int) {
					<-release
					panic("injected fault in the world loop")
				}
			}

			const body = `{"queries":[{"op":"reliability","s":0,"t":150},{"op":"knn","s":7,"k":5}]}`
			url := ts.URL + "/graphs/big/batch"
			leader := asyncPost(url, body)
			waitForStats(t, ts.URL, func(st ResultCacheStats) bool { return st.Computations == 1 }, "the leader's flight")
			joiner := asyncPost(url, body)
			waitForStats(t, ts.URL, func(st ResultCacheStats) bool { return st.Coalesced == 1 }, "the joiner")
			close(release)

			for who, join := range map[string]func() (int, []byte, error){"leader": leader, "joiner": joiner} {
				status, b, err := join()
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				var e errorResponse
				if status != http.StatusInternalServerError || json.Unmarshal(b, &e) != nil || e.Error == "" {
					t.Errorf("%s: status %d body %s, want 500 with a JSON error", who, status, b)
				}
			}
			if st := cacheStatsOf(t, ts.URL); st.Entries != 0 || st.Bytes != 0 {
				t.Errorf("the failed answer was cached: %+v", st)
			}
			status, hb := get(t, ts.URL+"/healthz")
			var h healthResponse
			if status != http.StatusOK || json.Unmarshal(hb, &h) != nil {
				t.Fatalf("healthz: status %d body %s", status, hb)
			}
			if h.ComputePanics != 1 {
				t.Errorf("compute_panics = %d, want 1", h.ComputePanics)
			}

			inject.Store(false)
			status, b := postBody(t, url, body)
			if status != http.StatusOK {
				t.Fatalf("request after the panic: status %d body %s", status, b)
			}
			if last.Load() == faulty.Load() {
				t.Error("the batch the panic abandoned went back to the pool")
			}
			if st := cacheStatsOf(t, ts.URL); st.Computations != 2 || st.Entries != 1 {
				t.Errorf("after recovery: %+v, want a second computation and its answer cached", st)
			}
		})
	}
}
