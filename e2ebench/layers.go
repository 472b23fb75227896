package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/anf"
	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/pbinom"
	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/query"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/stats"
	"uncertaingraph/internal/ugbin"
	"uncertaingraph/internal/uncertain"
)

// layerMetric is one per-layer metric and the workloads whose traced
// runs measure it; on any other workload the layer does not run and the
// metric reads 0.
type layerMetric struct {
	name, unit string
	on         []string
}

var (
	onPublish  = []string{"publish"}
	onEvaluate = []string{"evaluate"}
	onNovel    = []string{"serve-novel"}
	onServe    = []string{"serve-novel", "serve-repeat"}
	onAll      = []string{"publish", "evaluate", "serve-novel", "serve-repeat"}
)

// perLayer lists the traced run's metrics, in report order.
var perLayer = []layerMetric{
	{"core.obfuscate_ms", "ms", onPublish},
	{"core.probe_wait_ms", "ms", onPublish},
	{"core.probes", "count", onPublish},
	{"core.trials", "count", onPublish},
	{"core.generate_ms", "ms", onPublish},
	{"core.cpu_s", "s", onPublish},
	{"core.useful_cpu_ratio", "ratio", onPublish},
	{"core.alloc_mb", "MiB", onPublish},
	{"core.mallocs", "count", onPublish},
	{"core.gc_cycles", "count", onPublish},
	{"adversary.scan_ms", "ms", onPublish},
	{"pbinom.dists_ms", "ms", onPublish},
	{"uncertain.new_ms", "ms", onPublish},
	{"uncertain.sample_ms", "ms", []string{"evaluate", "serve-novel"}},
	{"uncertain.read_ms", "ms", []string{"evaluate", "serve-novel", "serve-repeat"}},
	{"ugbin.load_ms", "ms", onServe},
	{"sampling.run_ms", "ms", onEvaluate},
	{"sampling.world_ms", "ms", onEvaluate},
	{"sampling.worlds", "count", onEvaluate},
	{"sampling.alloc_mb", "MiB", onEvaluate},
	{"anf.world_ms", "ms", onEvaluate},
	{"stats.world_ms", "ms", onEvaluate},
	{"query.run_ms", "ms", onNovel},
	{"query.worlds", "count", onNovel},
	{"query.early_stop_share", "ratio", onNovel},
	{"bfs.walk_ms", "ms", onNovel},
	{"bfs.walks", "count", onNovel},
	{"qserve.handler_ms", "ms", onServe},
	{"qserve.transport_ms", "ms", onServe},
	{"qserve.cache_hits", "count", onServe},
	{"qserve.cache_misses", "count", onServe},
	{"qserve.cache_hit_ratio", "ratio", onServe},
	{"qserve.cache_computations", "count", onServe},
	{"qserve.cache_coalesced", "count", onServe},
	{"qserve.cache_evictions", "count", onServe},
	{"qserve.cache_bytes", "bytes", onServe},
	{"qserve.shared_runs", "count", onServe},
	{"qserve.shared_batches", "count", onServe},
	{"qserve.graph_reloads", "count", onServe},
	{"qserve.graph_evictions", "count", onServe},
	{"qserve.publish_ug_ms", "ms", onServe},
	{"qserve.publish_ugb_ms", "ms", onServe},
	{"daemon.cpu_s", "s/1000req", onServe},
	{"client.cpu_s", "s/1000req", onServe},
	{"client.dials", "count", onServe},
	{"host.spin_ms", "ms", onAll},
	{"host.steal_pct", "%", onAll},
	{"trace.overhead_pct", "%", onAll},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// fillPerLayer checks that the traced run measured every per-layer
// metric of its workload, in the declared unit, and sets the others to
// 0. It also reports the median self time of every span name whose
// spans nest others.
func fillPerLayer(o *outcome, workload string) error {
	for _, m := range perLayer {
		runs := false
		for _, w := range m.on {
			runs = runs || w == workload
		}
		rw, ok := o.get(m.name)
		switch {
		case runs && !ok:
			return fmt.Errorf("metric %s was not measured on %s", m.name, workload)
		case runs && rw.unit != m.unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.name, rw.unit, m.unit)
		case !runs:
			o.set(m.name, 0, m.unit, 0, "layer not exercised by "+workload)
		}
	}
	return nil
}

// reportSelfTimes adds, for every span name that has children, the
// median self time of its spans.
func reportSelfTimes(o *outcome, spans []span) {
	self := selfTimes(spans)
	hasChild := map[int]bool{}
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	byName := map[string][]float64{}
	for i, s := range spans {
		if hasChild[s.ID] {
			byName[s.Name] = append(byName[s.Name], ms(self[i]))
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o.set("self."+n+"_ms", median(byName[n]), "ms", len(byName[n]), "median self time: span minus the time its children cover")
	}
}

// memDelta measures the heap allocation of fn.
type memDelta struct {
	allocMB         float64
	mallocs, gcRuns uint64
}

func measureMem(fn func()) memDelta {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return memDelta{
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs: m1.Mallocs - m0.Mallocs,
		gcRuns:  uint64(m1.NumGC - m0.NumGC),
	}
}

// obfuscateRun is one timed in-process Algorithm 1 run.
type obfuscateRun struct {
	res    *core.Result
	wall   time.Duration
	cpu    time.Duration
	mem    memDelta
	stamps []time.Time // one per consumed σ probe
	start  time.Time
	span   int
}

func (r *runner) obfuscate(g *graph.Graph, params core.Params) (obfuscateRun, error) {
	var run obfuscateRun
	params.Progress = func(done, total int) { run.stamps = append(run.stamps, time.Now()) }
	var err error
	run.mem = measureMem(func() {
		cpu0 := selfCPU()
		run.span = r.tr.begin("core.obfuscate", -1, params.Workers)
		run.start = time.Now()
		run.res, err = core.Obfuscate(context.Background(), g, params)
		run.wall = time.Since(run.start)
		r.tr.end(run.span)
		run.cpu = selfCPU() - cpu0
	})
	prev := run.start
	for i, s := range run.stamps {
		r.tr.add("core.probe", run.span, i, prev, s)
		prev = s
	}
	return run, err
}

// tracePublish times Algorithm 1 and its layers in-process on the
// publish workload's input, with the CLI's parameters.
func tracePublish(r *runner, g *graph.Graph, release []byte) error {
	params := core.Params{K: publishK, Eps: publishEps, C: 2, Q: 0.01, Trials: 5, Delta: 1e-8, Seed: r.seed}
	all, err := r.obfuscate(g, params)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, all.res.G); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), release) {
		r.out.problem("the in-process release differs from the obfuscate binary's")
	}
	params.Workers = 1
	one, err := r.obfuscate(g, params)
	if err != nil {
		return err
	}
	if one.res.Sigma != all.res.Sigma || one.res.Generations != all.res.Generations || one.res.Trials != all.res.Trials {
		r.out.problem("workers=1 and workers=%d disagree: sigma %v/%v, probes %d/%d, trials %d/%d", r.nproc,
			one.res.Sigma, all.res.Sigma, one.res.Generations, all.res.Generations, one.res.Trials, all.res.Trials)
	}
	res := all.res
	o := &r.out
	o.set("core.obfuscate_ms", ms(all.wall), "ms", 1, "core.Obfuscate at nproc workers")
	o.set("core.probe_wait_ms", median(gaps(all.start, all.stamps)), "ms", len(all.stamps), "median gap between Progress callbacks")
	o.set("core.probes", float64(res.Generations), "count", 0, "sigma probes consumed")
	o.set("core.trials", float64(res.Trials), "count", 0, "trials examined")
	o.set("core.cpu_s", all.cpu.Seconds(), "s", 1, "process CPU during core.Obfuscate")
	o.set("core.useful_cpu_ratio", one.cpu.Seconds()/all.cpu.Seconds(), "ratio", 2, "CPU at 1 worker over CPU at nproc workers")
	o.set("core.alloc_mb", all.mem.allocMB, "MiB", 1, "runtime.MemStats TotalAlloc delta")
	o.set("core.mallocs", float64(all.mem.mallocs), "count", 1, "runtime.MemStats Mallocs delta")
	o.set("core.gc_cycles", float64(all.mem.gcRuns), "count", 1, "runtime.MemStats NumGC delta")
	o.keep("core.probes", res.Generations)
	o.keep("core.trials", res.Trials)
	o.keep("core.sigma", res.Sigma)

	t, err := r.timeSpan("core.generate", 3, func() error {
		if core.GenerateObfuscation(g, res.Sigma, params).Failed() {
			return fmt.Errorf("GenerateObfuscation failed at the release sigma %v", res.Sigma)
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("core.generate_ms", t, "ms", 3, "core.GenerateObfuscation at the release sigma, median")
	degrees := g.Degrees()
	t, _ = r.timeSpan("adversary.scan", 3, func() error {
		adversary.NotObfuscatedFraction(adversary.UncertainModel{G: res.G}, degrees, publishK)
		return nil
	})
	o.set("adversary.scan_ms", t, "ms", 3, "NotObfuscatedFraction on the release, median")
	t, _ = r.timeSpan("pbinom.dists", 3, func() error {
		for v := 0; v < res.G.NumVertices(); v++ {
			pbinom.New(res.G.IncidentProbs(v), 0)
		}
		return nil
	})
	o.set("pbinom.dists_ms", t, "ms", 3, "pbinom.New over every vertex, median")
	pairs := res.G.Pairs()
	t, err = r.timeSpan("uncertain.new", 5, func() error {
		_, err := uncertain.New(res.G.NumVertices(), pairs)
		return err
	})
	if err != nil {
		return err
	}
	o.set("uncertain.new_ms", t, "ms", 5, "uncertain.New of the release's pairs, median")
	reportSelfTimes(o, r.tr.snapshot())
	return nil
}

// timeSpan runs fn reps times, each inside a span, and returns the
// median wall time in milliseconds, stopping at the first error.
func (r *runner) timeSpan(name string, reps int, fn func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		id := r.tr.begin(name, -1, i)
		t := time.Now()
		err := fn()
		xs[i] = ms(time.Since(t))
		r.tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// traceEvaluate reports the in-process estimate's timings and times its
// per-world layers on the evaluate workload's release.
func traceEvaluate(r *runner, rel *uncertain.Graph, path string, est estimateRun) error {
	o := &r.out
	o.set("sampling.run_ms", ms(est.wall), "ms", 1, "EstimateStatistics, 100 worlds at nproc workers")
	o.set("sampling.world_ms", median(gaps(est.start, est.stamps)), "ms", len(est.stamps), "median gap between Progress callbacks")
	o.set("sampling.worlds", float64(est.rep.WorldsUsed), "count", 0, "worlds sampled")
	o.set("sampling.alloc_mb", est.mem.allocMB, "MiB", 1, "runtime.MemStats TotalAlloc delta")

	const worlds = 5
	sampler := rel.NewSampler()
	var sampleMS, anfMS, statsMS []float64
	for w := 0; w < worlds; w++ {
		rng := randx.New(randx.Derive(r.seed, tagWorlds, uint64(w)))
		t := time.Now()
		world := sampler.Sample(rng)
		sampleMS = append(sampleMS, ms(time.Since(t)))
		r.tr.add("uncertain.sample", -1, w, t, time.Now())
		t = time.Now()
		anf.DistanceDistribution(world, anf.Options{Seed: uint64(w) + 1})
		anfMS = append(anfMS, ms(time.Since(t)))
		r.tr.add("anf.world", -1, w, t, time.Now())
		t = time.Now()
		stats.CountTriangles(world)
		stats.DegreeVariance(world)
		stats.MaxDegree(world)
		stats.PowerLawExponent(world, 0)
		statsMS = append(statsMS, ms(time.Since(t)))
		r.tr.add("stats.world", -1, w, t, time.Now())
	}
	o.set("uncertain.sample_ms", median(sampleMS), "ms", worlds, "Sampler.Sample per world, median")
	o.set("anf.world_ms", median(anfMS), "ms", worlds, "anf.DistanceDistribution on one world, median")
	o.set("stats.world_ms", median(statsMS), "ms", worlds, "triangles and degree statistics of one world, median")
	return r.timeRead(path)
}

// timeRead times uncertain.Read of one text release file.
func (r *runner) timeRead(path string) error {
	t, err := r.timeSpan("uncertain.read", 5, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = uncertain.Read(f)
		return err
	})
	if err != nil {
		return err
	}
	r.out.set("uncertain.read_ms", t, "ms", 5, "uncertain.Read of one text release, median")
	return nil
}

// traceServe reports the daemon's counters over the traced window,
// replays requests one at a time through the daemon and an in-process
// handler, and times the engine layers under them.
func traceServe(e *serveEnv, h http.Handler, before, after health, ws windowStats, replay []request, repeat bool) error {
	r, o := e.r, &e.r.out
	c0, c1 := before.ResultCache, after.ResultCache
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	o.set("qserve.cache_hits", float64(hits), "count", ws.ops, "daemon result-cache hits over the traced window")
	o.set("qserve.cache_misses", float64(misses), "count", ws.ops, "daemon result-cache misses over the traced window")
	o.set("qserve.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio", ws.ops, "hits / (hits + misses)")
	o.set("qserve.cache_computations", float64(c1.Computations-c0.Computations), "count", ws.ops, "batch runs started")
	o.set("qserve.cache_coalesced", float64(c1.Coalesced-c0.Coalesced), "count", ws.ops, "requests joined to an in-flight run")
	o.set("qserve.cache_evictions", float64(c1.Evictions-c0.Evictions), "count", ws.ops, "entries dropped under the cache budget")
	o.set("qserve.cache_bytes", float64(c1.Bytes), "bytes", 0, "cache payload bytes at the end of the window")
	o.set("qserve.shared_runs", float64(c1.SharedRuns-c0.SharedRuns), "count", ws.ops, "world streams that served more than one batch")
	o.set("qserve.shared_batches", float64(c1.SharedBatches-c0.SharedBatches), "count", ws.ops, "batches those streams served")
	o.set("qserve.graph_reloads", float64(after.reloads()-before.reloads()), "count", ws.ops, "requests that reloaded an evicted graph")
	o.set("qserve.graph_evictions", float64(after.Registry.Evictions-before.Registry.Evictions), "count", ws.ops, "graphs evicted under the global budget")
	if repeat {
		o.keep("qserve.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}

	// Replay: each request goes to the daemon (client span), then to an
	// identically configured in-process handler (handler span); both
	// replies must match byte for byte.
	hc := e.lc.hcs[0]
	var handlerMS, transportMS []float64
	resps := make([]qserve.BatchResponse, len(replay))
	for i, rq := range replay {
		parent := r.tr.begin("replay", -1, i)
		t := time.Now()
		st, body, err := send(hc, e.d.base, rq)
		cl := time.Since(t)
		r.tr.add("client", parent, i, t, t.Add(cl))
		t = time.Now()
		hst, hbody := serveInProcess(h, rq)
		hd := time.Since(t)
		r.tr.add("qserve.handler", parent, i, t, t.Add(hd))
		r.tr.end(parent)
		o.attempted++
		if err != nil || st != http.StatusOK || hst != http.StatusOK || !bytes.Equal(body, hbody) {
			o.failed++
			o.problem("replayed request %d: daemon status %d (%v), in-process status %d, bodies equal %t", i, st, err, hst, bytes.Equal(body, hbody))
			continue
		}
		handlerMS = append(handlerMS, ms(hd))
		transportMS = append(transportMS, ms(cl-hd))
		if !repeat {
			if err := json.Unmarshal(body, &resps[i]); err != nil {
				return fmt.Errorf("replayed request %d: %w", i, err)
			}
		}
	}
	o.set("qserve.handler_ms", median(handlerMS), "ms", len(handlerMS), "in-process Handler().ServeHTTP per replayed request, median")
	o.set("qserve.transport_ms", median(transportMS), "ms", len(transportMS), "client span minus handler time for the same request, median")

	if err := e.timeLoads(); err != nil {
		return err
	}
	if !repeat {
		if err := e.traceEngine(replay, resps); err != nil {
			return err
		}
	}
	reportSelfTimes(o, r.tr.snapshot())
	return nil
}

// timeLoads times reading one text tenant, mapping one binary tenant,
// and publishing every tenant into a fresh server.
func (e *serveEnv) timeLoads() error {
	r, o := e.r, &e.r.out
	var text, bin tenant
	for _, t := range e.tenants {
		if t.binary {
			bin = t
		} else {
			text = t
		}
	}
	if err := r.timeRead(text.path); err != nil {
		return err
	}
	t, err := r.timeSpan("ugbin.load", 5, func() error {
		_, err := ugbin.Load(bin.path)
		return err
	})
	if err != nil {
		return err
	}
	o.set("ugbin.load_ms", t, "ms", 5, "ugbin.Load of one binary tenant, median")

	const reps = 3
	byFormat := map[bool][]float64{}
	for i := 0; i < reps; i++ {
		srv := &qserve.Server{GlobalMemBudget: e.budget, BinaryLoadMode: ugbin.ModeAuto}
		for _, t := range e.tenants {
			id := r.tr.begin("qserve.publish", -1, i)
			start := time.Now()
			_, err := srv.PublishFile(t.name, t.path, qserve.GraphConfig{})
			byFormat[t.binary] = append(byFormat[t.binary], ms(time.Since(start)))
			r.tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	o.set("qserve.publish_ug_ms", median(byFormat[false]), "ms", len(byFormat[false]), "PublishFile of a text tenant, median")
	o.set("qserve.publish_ugb_ms", median(byFormat[true]), "ms", len(byFormat[true]), "PublishFile of a binary tenant, median")
	return nil
}

// traceEngine reruns each replayed serve-novel request through
// query.NewBatch + Run at the worlds and seed its reply echoed, and
// times the sampler and the BFS walks beneath it.
func (e *serveEnv) traceEngine(replay []request, resps []qserve.BatchResponse) error {
	r, o := e.r, &e.r.out
	graphs := map[string]*uncertain.Graph{}
	for _, t := range e.tenants {
		graphs[t.name] = t.g
	}
	var runMS, sampleMS, walkMS []float64
	worlds, early, walks := 0, 0, 0
	scratch := bfs.NewScratch()
	for i, rq := range replay {
		var req qserve.BatchRequest
		if err := json.Unmarshal(rq.Body, &req); err != nil {
			return err
		}
		g := graphs[strings.Split(rq.Path, "/")[2]]
		resp := resps[i]
		id := r.tr.begin("query.run", -1, i)
		t := time.Now()
		b := query.NewBatch(g, query.Config{Worlds: resp.Worlds, Seed: resp.Seed, Workers: r.nproc, MemoryBudget: qserve.DefaultMemoryBudget})
		type source struct {
			v       int
			targets []int32
			full    bool
		}
		var sources []*source
		bySrc := map[int]*source{}
		for _, q := range req.Queries {
			s := bySrc[q.S]
			if s == nil {
				s = &source{v: q.S}
				bySrc[q.S] = s
				sources = append(sources, s)
			}
			switch q.Op {
			case "reliability":
				b.AddReliability(q.S, q.T)
				s.targets = append(s.targets, int32(q.T))
			case "distance":
				b.AddDistance(q.S, q.T)
				s.targets = append(s.targets, int32(q.T))
			case "knn":
				b.AddKNearest(q.S, q.K)
				s.full = true
			}
		}
		err := b.Run(context.Background())
		runMS = append(runMS, ms(time.Since(t)))
		r.tr.end(id)
		if err != nil {
			return err
		}
		if b.WorldsRun() != resp.Worlds {
			o.problem("replayed request %d: query ran %d worlds, the reply echoed %d", i, b.WorldsRun(), resp.Worlds)
		}
		worlds += b.WorldsRun()
		if resp.Worlds < query.DefaultWorlds() {
			early++
		}

		sampler := g.NewSampler()
		for w := 0; w < sampleWorlds; w++ {
			rng := randx.New(randx.Derive(r.seed, tagWorlds, uint64(i), uint64(w)))
			parent := r.tr.begin("world", -1, i)
			t := time.Now()
			world := sampler.Sample(rng)
			sampleMS = append(sampleMS, ms(time.Since(t)))
			r.tr.add("uncertain.sample", parent, i, t, time.Now())
			for _, s := range sources {
				t := time.Now()
				if s.full {
					scratch.FromSourceInto(world, s.v)
				} else {
					scratch.FromSourceTargetsInto(world, s.v, s.targets)
				}
				walkMS = append(walkMS, ms(time.Since(t)))
				r.tr.add("bfs.walk", parent, i, t, time.Now())
				walks++
			}
			r.tr.end(parent)
		}
	}
	o.set("query.run_ms", median(runMS), "ms", len(runMS), "NewBatch + Run at each reply's worlds and seed, median")
	o.set("query.worlds", float64(worlds), "count", len(runMS), "worlds run over the replayed requests")
	o.set("query.early_stop_share", float64(early)/float64(len(replay)), "ratio", len(replay), "replies that stopped before the default worlds")
	o.set("uncertain.sample_ms", median(sampleMS), "ms", len(sampleMS), "Sampler.Sample per world, median")
	o.set("bfs.walk_ms", median(walkMS), "ms", len(walkMS), "one BFS walk per (world, source), median")
	o.set("bfs.walks", float64(walks), "count", 0, "walks timed")
	o.keep("query.worlds", worlds)
	o.keep("bfs.walks", walks)
	return nil
}
