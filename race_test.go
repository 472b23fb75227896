// Concurrency exercise for `go test -race`: these tests drive every
// parallel component — the trial engine with its concurrent trials, the
// adversary's chunked entropy scan, the BFS distance sampler, and the
// possible-world sampling pipeline — from several goroutines at once
// over shared inputs, so the race detector sees the real interleavings.
// They are sized to stay cheap in -short mode.
package uncertaingraph_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	ug "uncertaingraph"
	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/sampling"
)

func TestRaceConcurrentObfuscateTrials(t *testing.T) {
	g := gen.HolmeKim(randx.New(21), 200, 3, 0.3)
	var wg sync.WaitGroup
	results := make([]*core.Result, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Workers > 1 turns on concurrent trials, even when the host
			// has a single CPU.
			res, err := core.Obfuscate(context.Background(), g, core.Params{
				K: 3, Eps: 0.15, Trials: 3, Delta: 1e-3, Workers: 4, Seed: 5,
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] == nil || results[0] == nil {
			return // error already reported
		}
		if results[i].Sigma != results[0].Sigma || results[i].EpsTilde != results[0].EpsTilde {
			t.Errorf("concurrent run %d diverged: (%v,%v) vs (%v,%v)", i,
				results[i].Sigma, results[i].EpsTilde, results[0].Sigma, results[0].EpsTilde)
		}
	}
}

func TestRaceSharedAdversaryScan(t *testing.T) {
	g := gen.HolmeKim(randx.New(22), 300, 3, 0.3)
	att := core.GenerateObfuscation(g, 0.3, core.Params{K: 3, Eps: 0.3, Trials: 1, Seed: 2})
	if att.Failed() {
		t.Fatal("setup obfuscation failed")
	}
	degrees := g.Degrees()
	var wg sync.WaitGroup
	fracs := make([]float64, 4)
	for i := range fracs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct worker counts over one shared model: the chunked
			// scan must neither race nor change its answer.
			model := adversary.UncertainModel{G: att.G, Workers: i + 1}
			fracs[i] = adversary.NotObfuscatedFraction(model, degrees, 3)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(fracs); i++ {
		if fracs[i] != fracs[0] {
			t.Errorf("worker count %d changed the scan result: %v vs %v", i+1, fracs[i], fracs[0])
		}
	}
}

// TestRaceConcurrentQuerydRequests drives the query-serving engine the
// way queryd does in production: many goroutines posting batch
// requests (with per-request Workers fan-out) against one shared
// uncertain graph and one shared batch pool. Identical requests must
// return byte-identical responses — the content-derived seed contract
// — and the race detector sees pooled batches handed across
// goroutines.
func TestRaceConcurrentQuerydRequests(t *testing.T) {
	g := gen.HolmeKim(randx.New(24), 120, 3, 0.3)
	var pairs []ug.Pair
	g.ForEachEdge(func(u, v int) {
		pairs = append(pairs, ug.Pair{U: u, V: v, P: float64((u+v)%9+1) / 10})
	})
	pub, err := ug.NewUncertainGraph(g.NumVertices(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	srv := &qserve.Server{DefaultGraph: "default", Worlds: 60, Workers: 4, Seed: 3}
	if _, err := srv.PublishGraph("default", pub, qserve.GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients, rounds = 6, 4
	bodies := make([][]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Half the clients send one shared request shape, the rest
				// send per-client shapes, so the pool sees mixed traffic.
				s := 0
				if c%2 == 1 {
					s = c
				}
				req := fmt.Sprintf(`{"queries":[{"op":"reliability","s":%d,"t":50},`+
					`{"op":"distance","s":%d,"t":51},{"op":"knn","s":%d,"k":5}]}`, s, s, s)
				resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d err %v: %s", c, resp.StatusCode, err, body)
					return
				}
				bodies[c] = append(bodies[c], string(body))
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		for i := 1; i < len(bodies[c]); i++ {
			if bodies[c][i] != bodies[c][0] {
				t.Errorf("client %d: identical requests answered differently:\n%s\nvs\n%s",
					c, bodies[c][i], bodies[c][0])
			}
		}
	}
	// Even-numbered clients all sent the same request; cross-check.
	if bodies[0][0] != bodies[2][0] || bodies[0][0] != bodies[4][0] {
		t.Error("shared request shape answered differently across clients")
	}
}

func TestRaceParallelScans(t *testing.T) {
	g := gen.HolmeKim(randx.New(23), 250, 3, 0.2)
	att := core.GenerateObfuscation(g, 0.2, core.Params{K: 2, Eps: 0.4, Trials: 1, Seed: 3})
	if att.Failed() {
		t.Fatal("setup obfuscation failed")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// bfs fans the sampled sources out over four workers.
		dd := bfs.NewScratch().SampledDistanceDistribution(g, 32, ug.NewRand(4), 4)
		if dd.AvgDistance() <= 0 {
			t.Error("sampled BFS produced no distances")
		}
	}()
	go func() {
		defer wg.Done()
		// sampling.Run materializes and scores worlds in parallel.
		rep, err := sampling.Run(context.Background(), att.G, sampling.Config{
			Worlds: 4, Seed: 5, Distances: sampling.DistanceExactBFS,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if len(rep.Samples["S_NE"]) != 4 {
			t.Error("sampling run lost worlds")
		}
	}()
	wg.Wait()
}
