package worldloop

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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
// into world-indexed slots, each group's first world and width, and
// every convergence check. It draws each world with SampleSeed, the
// statistics form, or, with packed set, the whole group with
// SampleGroup, the query form.
type recorder struct {
	mu      sync.Mutex
	groups  [][2]int // first world, width
	seeds   []int64
	edges   []int
	packed  bool
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

func (r *recorder) ScanGroup(_, i int, seeds []int64, sampler *uncertain.Sampler) {
	copy(r.seeds[i:], seeds)
	if r.packed {
		for _, mask := range sampler.SampleGroup(seeds).Masks {
			for j := range seeds {
				r.edges[i+j] += int(mask >> j & 1)
			}
		}
	} else {
		for j, seed := range seeds {
			r.edges[i+j] = sampler.SampleSeed(seed).NumEdges()
		}
	}
	r.mu.Lock()
	r.groups = append(r.groups, [2]int{i, len(seeds)})
	r.mu.Unlock()
	r.scanned.Add(int64(len(seeds)))
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

// canceller cancels the run's context from inside the group holding
// world cancelAt and tracks groups in flight. Later groups already
// handed to a lane wait for the cancel, so at most one in-flight group
// per other lane can complete after it.
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

func (c *canceller) ScanGroup(_, i int, seeds []int64, _ *uncertain.Sampler) {
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	switch {
	case i <= c.cancelAt && c.cancelAt < i+len(seeds):
		c.cancel()
		close(c.cancelled)
	case i > c.cancelAt:
		<-c.cancelled
	}
	c.scanned.Add(int64(len(seeds)))
}

func (c *canceller) Converged(int, int) bool { return false }

// TestCancelJoinsLanes pins cancellation: Run returns ctx.Err() with
// every lane joined — nothing in flight, nothing scanned afterwards,
// at most one group per other lane finishing after the cancelling one
// — Progress reports no world of a group that ended cancelled, a
// pre-cancelled run scans no world, and a nil ctx never cancels.
func TestCancelJoinsLanes(t *testing.T) {
	g := ring(t, 40, 0.5)
	for _, workers := range []int{1, 4} {
		for _, adaptive := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			c := newCanceller(cancel, 40)
			var reported atomic.Int64
			cfg := Config{Worlds: 500, Seed: 1, Workers: workers, Adaptive: adaptive, Progress: func(done, _ int) {
				reported.Add(1)
			}}
			var l Loop
			_, err := l.Run(ctx, g, cfg, c)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d adaptive=%v: err = %v, want context.Canceled", workers, adaptive, err)
			}
			if n := c.inFlight.Load(); n != 0 {
				t.Errorf("workers=%d adaptive=%v: %d groups still in flight after Run returned", workers, adaptive, n)
			}
			after := c.scanned.Load()
			runtime.Gosched()
			if c.scanned.Load() != after || after > int64(64*(1+workers)) {
				t.Errorf("workers=%d adaptive=%v: scanned %d worlds after cancelling at world 40", workers, adaptive, after)
			}
			// Only groups wholly before world 40 can end with ctx live.
			if n := reported.Load(); n > 40 {
				t.Errorf("workers=%d adaptive=%v: Progress reported %d worlds, more than precede the cancel", workers, adaptive, n)
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

// counter is an allocation-free Scanner, safe on concurrent lanes. It
// draws its worlds as packed groups or, with perWorld set, one
// materialized world at a time: the two forms the engines read.
type counter struct {
	n        atomic.Int64
	perWorld bool
}

func (c *counter) ScanGroup(_, _ int, seeds []int64, sampler *uncertain.Sampler) {
	if c.perWorld {
		for _, seed := range seeds {
			sampler.SampleSeed(seed)
		}
	} else {
		sampler.SampleGroup(seeds)
	}
	c.n.Add(int64(len(seeds)))
}

func (c *counter) Converged(int, int) bool { return false }

// TestOneLaneZeroAllocs pins the steady state of the serving path: a
// reused Loop on one lane allocates nothing per run, fixed or
// adaptive, with or without Progress, whether its scan packs groups or
// materializes worlds.
func TestOneLaneZeroAllocs(t *testing.T) {
	g := ring(t, 60, 0.5)
	var l Loop
	ctx := context.Background()
	progressed := 0
	for _, cfg := range []Config{
		{Worlds: 80, Seed: 2, Workers: 1},
		{Worlds: 80, Seed: 2, Workers: 1, Adaptive: true, Progress: func(done, _ int) { progressed = done }},
	} {
		for _, perWorld := range []bool{false, true} {
			c := &counter{perWorld: perWorld}
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
				t.Errorf("adaptive=%v perWorld=%v: one-lane run allocates %v times, want 0", cfg.Adaptive, perWorld, allocs)
			}
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
	run(t, g, cfg, newRecorder(70))
	if calls != 70 || last != 70 {
		t.Errorf("Progress called %d times, max done %d; want 70 and 70", calls, last)
	}
}

// TestRunGroupsMatchesRun pins that a run whose scan packs each group
// (the query form) sees the same worlds, checks and stopping point as
// one whose scan draws each world (the statistics form), and the group
// schedule: every world is scanned once with its own seed, groups tile
// the scanned worlds, never cross a block barrier and hold
// min(64, ⌈block worlds / lanes⌉) worlds, the block's last group taking
// the remainder, and an adaptive run stops at the first barrier its
// scanner accepts.
func TestRunGroupsMatchesRun(t *testing.T) {
	g := ring(t, 90, 0.5)
	table := make([]int64, 738)
	randx.FillWorldSeeds(table, randx.New(6))
	for _, workers := range []int{1, 2, 3, 7} {
		for _, worlds := range []int{1, 2, 33, 100, 738} {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d worlds=%d adaptive=%v", workers, worlds, adaptive)
				stop := func(done int) bool { return done >= 64 }
				cfg := Config{Worlds: worlds, Seed: 6, Workers: workers, Adaptive: adaptive}
				want := newRecorder(worlds)
				want.converge = stop
				wantDone := run(t, g, cfg, want)
				got := newRecorder(worlds)
				got.packed = true
				got.converge = stop
				done := run(t, g, cfg, got)
				if done != wantDone {
					t.Fatalf("%s: packed run scanned %d worlds, per-world %d", name, done, wantDone)
				}
				if !reflect.DeepEqual(got.edges, want.edges) || !reflect.DeepEqual(got.checks, want.checks) || !got.barrierOK {
					t.Fatalf("%s: packed worlds or checks diverge from the per-world run (checks %v vs %v)", name, got.checks, want.checks)
				}
				stopAt := worlds
				if adaptive && worlds > 64 {
					stopAt = 64
				}
				if done != stopAt || !want.barrierOK {
					t.Fatalf("%s: scanned %d worlds, want %d (checks %v)", name, done, stopAt, want.checks)
				}
				if !reflect.DeepEqual(got.seeds[:done], table[:done]) {
					t.Fatalf("%s: scanned worlds do not carry the seed table's prefix", name)
				}
				sort.Slice(got.groups, func(a, b int) bool { return got.groups[a][0] < got.groups[b][0] })
				block := worlds
				if adaptive {
					block = Block
				}
				lanes := Workers(workers, worlds)
				next := 0
				for _, gr := range got.groups {
					lo, width := gr[0], gr[1]
					blockLo := lo / block * block
					blockHi := min(blockLo+block, worlds)
					full := min(64, (blockHi-blockLo+lanes-1)/lanes)
					if lo != next || lo+width > blockHi || (width != full && lo+width != blockHi) {
						t.Fatalf("%s: group [%d, %d) after %d breaks the schedule (block [%d, %d), width %d)",
							name, lo, lo+width, next, blockLo, blockHi, full)
					}
					next = lo + width
				}
				if next != done {
					t.Fatalf("%s: groups cover [0, %d), want [0, %d)", name, next, done)
				}
			}
		}
	}
	// queryd's default shape: 738 worlds on 2 lanes make 12 groups.
	rec := newRecorder(738)
	run(t, g, Config{Worlds: 738, Seed: 1, Workers: 2}, rec)
	if len(rec.groups) != 12 {
		t.Errorf("738 worlds on 2 lanes ran %d groups, want 12", len(rec.groups))
	}
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
