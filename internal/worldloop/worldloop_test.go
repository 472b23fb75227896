package worldloop

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// ring returns an uncertain n-cycle with every edge at probability p.
func ring(t testing.TB, n int, p float64) *uncertain.Graph {
	t.Helper()
	pairs := make([]uncertain.Pair, n)
	for i := range pairs {
		pairs[i] = uncertain.Pair{U: i, V: (i + 1) % n, P: p}
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// recorder is a Scanner that records each world's seed and edge count
// into world-indexed slots and logs every convergence check.
type recorder struct {
	seeds   []int64
	edges   []int
	scanned atomic.Int64
	// converge decides each check; nil never converges.
	converge func(done int) bool
	checks   []int // done at each Converged call
	// barrierOK is false once a check saw a world count other than done.
	barrierOK bool
}

func newRecorder(worlds int) *recorder {
	return &recorder{seeds: make([]int64, worlds), edges: make([]int, worlds), barrierOK: true}
}

func (r *recorder) ScanWorld(_, i int, world *graph.Graph, seed int64, _ int) {
	r.seeds[i] = seed
	r.edges[i] = world.NumEdges()
	r.scanned.Add(1)
}

func (r *recorder) Converged(_, done int) bool {
	r.checks = append(r.checks, done)
	if r.scanned.Load() != int64(done) {
		r.barrierOK = false
	}
	return r.converge != nil && r.converge(done)
}

func run(t *testing.T, g *uncertain.Graph, cfg Config, s Scanner) int {
	t.Helper()
	var l Loop
	done, err := l.Run(context.Background(), g, cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestSeedTablePrefixStable pins the seed table: world i's seed is the
// i-th draw of randx.New(Seed), whatever the budget or worker count, so
// a shorter run samples exactly the prefix of a longer one.
func TestSeedTablePrefixStable(t *testing.T) {
	g := ring(t, 40, 0.5)
	want := make([]int64, 100)
	randx.FillWorldSeeds(want, randx.New(9))
	long := newRecorder(100)
	run(t, g, Config{Worlds: 100, Seed: 9, Workers: 1}, long)
	for _, workers := range []int{1, 4} {
		for _, worlds := range []int{37, 100} {
			rec := newRecorder(worlds)
			if done := run(t, g, Config{Worlds: worlds, Seed: 9, Workers: workers}, rec); done != worlds {
				t.Fatalf("workers=%d worlds=%d: ran %d worlds", workers, worlds, done)
			}
			if !reflect.DeepEqual(rec.seeds, want[:worlds]) {
				t.Errorf("workers=%d worlds=%d: seed table is not the randx prefix", workers, worlds)
			}
			if !reflect.DeepEqual(rec.edges, long.edges[:worlds]) {
				t.Errorf("workers=%d worlds=%d: sampled worlds diverge from the prefix", workers, worlds)
			}
		}
	}
}

// TestAdaptiveStopsOnlyAtBarriers pins the block schedule: checks run
// only at Block boundaries short of the budget, with every earlier
// world scanned and no later one started, never on fewer than two
// worlds; a converging scanner stops at the first barrier and a
// never-converging one runs the whole budget.
func TestAdaptiveStopsOnlyAtBarriers(t *testing.T) {
	g := ring(t, 40, 0.5)
	for _, workers := range []int{1, 4} {
		always := newRecorder(100)
		always.converge = func(int) bool { return true }
		if done := run(t, g, Config{Worlds: 100, Seed: 3, Workers: workers, Adaptive: true}, always); done != Block {
			t.Errorf("workers=%d: converging run stopped at %d worlds, want %d", workers, done, Block)
		}

		never := newRecorder(100)
		if done := run(t, g, Config{Worlds: 100, Seed: 3, Workers: workers, Adaptive: true}, never); done != 100 {
			t.Errorf("workers=%d: never-converging run stopped at %d worlds, want 100", workers, done)
		}
		if want := []int{32, 64, 96}; !reflect.DeepEqual(never.checks, want) {
			t.Errorf("workers=%d: checks at %v, want %v", workers, never.checks, want)
		}
		if !always.barrierOK || !never.barrierOK {
			t.Errorf("workers=%d: a check ran before its block finished or after the next started", workers)
		}

		// A one-world budget ends before any barrier: a single sample
		// has no spread to test.
		one := newRecorder(1)
		one.converge = func(int) bool { return true }
		if done := run(t, g, Config{Worlds: 1, Seed: 3, Workers: workers, Adaptive: true}, one); done != 1 || len(one.checks) != 0 {
			t.Errorf("workers=%d: one-world run scanned %d worlds with checks %v", workers, done, one.checks)
		}

		// A fixed run never consults the scanner.
		fixed := newRecorder(100)
		fixed.converge = func(int) bool { return true }
		if done := run(t, g, Config{Worlds: 100, Seed: 3, Workers: workers}, fixed); done != 100 || len(fixed.checks) != 0 {
			t.Errorf("workers=%d: fixed run scanned %d worlds with checks %v", workers, done, fixed.checks)
		}
	}
}

// canceller cancels the run's context from inside world cancelAt and
// tracks worlds in flight. Later worlds already handed to a lane wait
// for the cancel, so at most one in-flight world per other lane can
// complete after it.
type canceller struct {
	cancel    context.CancelFunc
	cancelAt  int
	cancelled chan struct{}
	inFlight  atomic.Int64
	scanned   atomic.Int64
}

func newCanceller(cancel context.CancelFunc, at int) *canceller {
	return &canceller{cancel: cancel, cancelAt: at, cancelled: make(chan struct{})}
}

func (c *canceller) ScanWorld(_, i int, _ *graph.Graph, _ int64, _ int) {
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	switch {
	case i == c.cancelAt:
		c.cancel()
		close(c.cancelled)
	case i > c.cancelAt:
		<-c.cancelled
	}
	c.scanned.Add(1)
}

func (c *canceller) Converged(int, int) bool { return false }

// TestCancelJoinsLanes pins cancellation: Run returns ctx.Err() with
// every lane joined — nothing in flight, nothing scanned afterwards —
// a pre-cancelled run scans no world, and a nil ctx never cancels.
func TestCancelJoinsLanes(t *testing.T) {
	g := ring(t, 40, 0.5)
	for _, workers := range []int{1, 4} {
		for _, adaptive := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			c := newCanceller(cancel, 40)
			var l Loop
			_, err := l.Run(ctx, g, Config{Worlds: 500, Seed: 1, Workers: workers, Adaptive: adaptive}, c)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d adaptive=%v: err = %v, want context.Canceled", workers, adaptive, err)
			}
			if n := c.inFlight.Load(); n != 0 {
				t.Errorf("workers=%d adaptive=%v: %d worlds still in flight after Run returned", workers, adaptive, n)
			}
			after := c.scanned.Load()
			runtime.Gosched()
			if c.scanned.Load() != after || after > 40+int64(workers) {
				t.Errorf("workers=%d adaptive=%v: scanned %d worlds after cancelling at world 40", workers, adaptive, after)
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		c := newCanceller(cancel, 1<<30)
		var l Loop
		if _, err := l.Run(ctx, g, Config{Worlds: 50, Seed: 1, Workers: workers}, c); !errors.Is(err, context.Canceled) || c.scanned.Load() != 0 {
			t.Errorf("workers=%d: pre-cancelled run: err %v, %d worlds scanned", workers, err, c.scanned.Load())
		}
		if done, err := l.Run(nil, g, Config{Worlds: 50, Seed: 1, Workers: workers}, &counter{}); err != nil || done != 50 {
			t.Errorf("workers=%d: nil-ctx run: %d worlds, err %v; want 50 and nil", workers, done, err)
		}
	}
}

// counter is an allocation-free Scanner, safe on concurrent lanes.
type counter struct{ n atomic.Int64 }

func (c *counter) ScanWorld(int, int, *graph.Graph, int64, int) { c.n.Add(1) }
func (c *counter) Converged(int, int) bool                      { return false }

// TestOneLaneZeroAllocs pins the steady state of the serving path: a
// reused Loop on one lane allocates nothing per run, fixed or
// adaptive, with or without Progress.
func TestOneLaneZeroAllocs(t *testing.T) {
	g := ring(t, 60, 0.5)
	var l Loop
	c := &counter{}
	ctx := context.Background()
	progressed := 0
	for _, cfg := range []Config{
		{Worlds: 80, Seed: 2, Workers: 1},
		{Worlds: 80, Seed: 2, Workers: 1, Adaptive: true, Progress: func(done, _ int) { progressed = done }},
	} {
		if _, err := l.Run(ctx, g, cfg, c); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			cfg.Seed++
			if _, err := l.Run(ctx, g, cfg, c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("adaptive=%v: one-lane run allocates %v times, want 0", cfg.Adaptive, allocs)
		}
	}
	if progressed != 80 {
		t.Errorf("last Progress reported %d worlds, want 80", progressed)
	}
}

// TestProgressCountsEveryWorld pins Progress under concurrent lanes:
// one call per world, ending at the budget.
func TestProgressCountsEveryWorld(t *testing.T) {
	g := ring(t, 40, 0.5)
	var mu sync.Mutex
	calls, last := 0, 0
	cfg := Config{Worlds: 70, Seed: 4, Workers: 4, Adaptive: true, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > last {
			last = done
		}
		if total != 70 {
			t.Errorf("Progress total %d, want 70", total)
		}
	}}
	run(t, g, cfg, &counter{})
	if calls != 70 || last != 70 {
		t.Errorf("Progress called %d times, max done %d; want 70 and 70", calls, last)
	}
}

// TestSplit pins the one split rule: the budget goes across worlds
// while width × queued worlds can absorb it and spills inside each
// world per busy lane when it cannot.
func TestSplit(t *testing.T) {
	cases := []struct {
		total, lanes, jobs, width, want int
	}{
		{8, 8, 738, 1, 1},  // worlds plentiful: all budget across worlds
		{8, 8, 4, 1, 2},    // 1 walk × 4 worlds < 8: 2 workers per walk
		{64, 64, 1, 1, 64}, // single world: whole budget inside it
		{1, 1, 1, 1, 1},    // no budget to spill
		{8, 8, 0, 1, 1},    // empty segment degenerates safely
		{8, 8, 4, 3, 1},    // 3 walks × 4 worlds >= 8: across worlds
		{8, 8, 2, 3, 4},    // 3 walks × 2 worlds < 8: 4 per walk
		{16, 4, 2, 5, 8},   // lanes above jobs clamp to the busy ones
	}
	for _, c := range cases {
		if got := Split(c.total, c.lanes, c.jobs, c.width); got != c.want {
			t.Errorf("Split(total=%d, lanes=%d, jobs=%d, width=%d) = %d, want %d",
				c.total, c.lanes, c.jobs, c.width, got, c.want)
		}
	}

	// The loop applies the rule per segment: 2 worlds on an 8-worker
	// budget put 4 workers inside each world. A 40-world adaptive run
	// keeps its 32-world block and its 8-world tail sequential (8 tail
	// worlds fill the 8-worker budget); a 36-world run spills 2 workers
	// into each of its 4 tail worlds.
	for _, c := range []struct {
		cfg  Config
		want []int
	}{
		{Config{Worlds: 2, Workers: 8, Width: 1}, []int{4, 4}},
		{Config{Worlds: 40, Workers: 8, Width: 1, Adaptive: true}, append(repeat(1, 32), repeat(1, 8)...)},
		{Config{Worlds: 36, Workers: 8, Width: 1, Adaptive: true}, append(repeat(1, 32), repeat(2, 4)...)},
	} {
		rec := &intraRecorder{intra: make([]int, c.cfg.Worlds)}
		run(t, ring(t, 40, 0.5), c.cfg, rec)
		if !reflect.DeepEqual(rec.intra, c.want) {
			t.Errorf("%+v: per-world split %v, want %v", c.cfg, rec.intra, c.want)
		}
	}
}

// intraRecorder records the within-world split each world was given.
type intraRecorder struct{ intra []int }

func (r *intraRecorder) ScanWorld(_, i int, _ *graph.Graph, _ int64, intra int) { r.intra[i] = intra }
func (r *intraRecorder) Converged(int, int) bool                                { return false }

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestWorkersClamp pins the worker clamp shared by the engines and
// qserve's pricing.
func TestWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ configured, worlds, want int }{
		{4, 100, 4},
		{4, 3, 3},
		{0, 1 << 20, procs},
		{-1, 1 << 20, procs},
		{4, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.configured, c.worlds); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.configured, c.worlds, got, c.want)
		}
	}
}
