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

func (r *recorder) ScanWorld(_, i int, world *graph.Graph, seed int64) {
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

func (c *canceller) ScanWorld(_, i int, _ *graph.Graph, _ int64) {
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

// ScanGroup makes canceller a GroupScanner: the group holding world
// cancelAt cancels, and later groups wait for the cancel.
func (c *canceller) ScanGroup(_, i int, w *uncertain.PackedWorlds) {
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	switch {
	case i <= c.cancelAt && c.cancelAt < i+w.Width:
		c.cancel()
		close(c.cancelled)
	case i > c.cancelAt:
		<-c.cancelled
	}
	c.scanned.Add(int64(w.Width))
}

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

		// Packed groups: cancellation lands between groups, so at most
		// one group per other lane finishes after the cancelling one.
		ctx, cancel := context.WithCancel(context.Background())
		c := newCanceller(cancel, 40)
		var gl Loop
		if _, err := gl.RunGroups(ctx, g, Config{Worlds: 500, Seed: 1, Workers: workers}, c); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: packed run: err = %v, want context.Canceled", workers, err)
		}
		if n, got := c.inFlight.Load(), c.scanned.Load(); n != 0 || got > int64(64*(1+workers)) {
			t.Errorf("workers=%d: packed run left %d groups in flight and scanned %d worlds", workers, n, got)
		}

		ctx, cancel = context.WithCancel(context.Background())
		cancel()
		c = newCanceller(cancel, 1<<30)
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

func (c *counter) ScanWorld(int, int, *graph.Graph, int64) { c.n.Add(1) }
func (c *counter) Converged(int, int) bool                 { return false }

// groupCounter is counter for packed groups.
type groupCounter struct{ n atomic.Int64 }

func (c *groupCounter) ScanGroup(_, _ int, w *uncertain.PackedWorlds) { c.n.Add(int64(w.Width)) }
func (c *groupCounter) Converged(int, int) bool                       { return false }

// TestOneLaneZeroAllocs pins the steady state of the serving path: a
// reused Loop on one lane allocates nothing per run, fixed or
// adaptive, with or without Progress.
func TestOneLaneZeroAllocs(t *testing.T) {
	g := ring(t, 60, 0.5)
	var l Loop
	c := &counter{}
	ctx := context.Background()
	progressed := 0
	grp := &groupCounter{}
	for _, cfg := range []Config{
		{Worlds: 80, Seed: 2, Workers: 1},
		{Worlds: 80, Seed: 2, Workers: 1, Adaptive: true, Progress: func(done, _ int) { progressed = done }},
	} {
		for _, packed := range []bool{false, true} {
			runOnce := func() {
				var err error
				if packed {
					_, err = l.RunGroups(ctx, g, cfg, grp)
				} else {
					_, err = l.Run(ctx, g, cfg, c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			runOnce() // warm up
			allocs := testing.AllocsPerRun(20, func() {
				cfg.Seed++
				runOnce()
			})
			if allocs != 0 {
				t.Errorf("adaptive=%v packed=%v: one-lane run allocates %v times, want 0", cfg.Adaptive, packed, allocs)
			}
		}
	}
	if progressed != 80 {
		t.Errorf("last Progress reported %d worlds, want 80", progressed)
	}
}

// TestProgressCountsEveryWorld pins Progress under concurrent lanes:
// one call per world, ending at the budget, for per-world and packed
// scans alike.
func TestProgressCountsEveryWorld(t *testing.T) {
	g := ring(t, 40, 0.5)
	for _, packed := range []bool{false, true} {
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
		if packed {
			runGroups(t, g, cfg, newGroupRecorder(70))
		} else {
			run(t, g, cfg, &counter{})
		}
		if calls != 70 || last != 70 {
			t.Errorf("packed=%v: Progress called %d times, max done %d; want 70 and 70", packed, calls, last)
		}
	}
}

// groupRecorder is a GroupScanner that records each group's first
// world and width, and each world's present-pair count read off the
// masks, into world-indexed slots.
type groupRecorder struct {
	mu      sync.Mutex
	groups  [][2]int // first world, width
	edges   []int
	scanned atomic.Int64
	checks  []int
	// converge decides each check; nil never converges.
	converge func(done int) bool
	// barrierOK is false once a check saw a world count other than done.
	barrierOK bool
}

func newGroupRecorder(worlds int) *groupRecorder {
	return &groupRecorder{edges: make([]int, worlds), barrierOK: true}
}

func (r *groupRecorder) ScanGroup(_, i int, w *uncertain.PackedWorlds) {
	for _, m := range w.Masks {
		for j := 0; j < w.Width; j++ {
			r.edges[i+j] += int(m >> j & 1)
		}
	}
	r.mu.Lock()
	r.groups = append(r.groups, [2]int{i, w.Width})
	r.mu.Unlock()
	r.scanned.Add(int64(w.Width))
}

func (r *groupRecorder) Converged(_, done int) bool {
	r.checks = append(r.checks, done)
	if r.scanned.Load() != int64(done) {
		r.barrierOK = false
	}
	return r.converge != nil && r.converge(done)
}

func runGroups(t *testing.T, g *uncertain.Graph, cfg Config, s GroupScanner) int {
	t.Helper()
	var l Loop
	done, err := l.RunGroups(context.Background(), g, cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestRunGroupsMatchesRun pins the packed schedule against the
// per-world one: the same worlds (each world's present-pair count
// equals its materialized edge count), the same stopping point, and
// groups that tile the scanned worlds, never cross a block barrier and
// hold min(64, ⌈block worlds / lanes⌉) worlds, the block's last group
// taking the remainder.
func TestRunGroupsMatchesRun(t *testing.T) {
	g := ring(t, 90, 0.5)
	for _, workers := range []int{1, 2, 3, 7} {
		for _, worlds := range []int{1, 2, 33, 100, 738} {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d worlds=%d adaptive=%v", workers, worlds, adaptive)
				stop := func(done int) bool { return done >= 64 }
				cfg := Config{Worlds: worlds, Seed: 6, Workers: workers, Adaptive: adaptive}
				want := newRecorder(worlds)
				want.converge = stop
				wantDone := run(t, g, cfg, want)
				got := newGroupRecorder(worlds)
				got.converge = stop
				if done := runGroups(t, g, cfg, got); done != wantDone {
					t.Fatalf("%s: packed run scanned %d worlds, per-world %d", name, done, wantDone)
				}
				if !reflect.DeepEqual(got.edges, want.edges) || !reflect.DeepEqual(got.checks, want.checks) || !got.barrierOK {
					t.Fatalf("%s: packed worlds or checks diverge from the per-world run (checks %v vs %v)", name, got.checks, want.checks)
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
				if next != wantDone {
					t.Fatalf("%s: groups cover [0, %d), want [0, %d)", name, next, wantDone)
				}
			}
		}
	}
	// queryd's default shape: 738 worlds on 2 lanes make 12 groups.
	rec := newGroupRecorder(738)
	runGroups(t, g, Config{Worlds: 738, Seed: 1, Workers: 2}, rec)
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
