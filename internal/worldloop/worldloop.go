// Package worldloop is the one possible-world Monte Carlo loop behind
// both the statistic estimation of paper Section 6.1 (internal/sampling)
// and every query answered on a release (internal/query): sample r
// worlds from pre-derived seeds, hand each to a caller-supplied scan,
// and — for an adaptive run — stop at the first block barrier where the
// caller's Hoeffding-style convergence test passes (Lemma 2 /
// Corollary 1 size the budget it may stop short of).
//
// The loop owns everything the two engines used to duplicate: the
// world-seed table, one sampler (a clone of one shared template) and
// one reseedable RNG per worker lane, the worker clamp, the
// fixed/adaptive block schedule, Progress and cancellation. Callers
// keep only their per-world scan, their merge and their convergence
// test.
//
// Parallelism has one axis: the worker budget is spent across worlds,
// one lane per worker, and every world is scanned sequentially on its
// lane. A run never uses more lanes than worlds.
//
// Determinism: world i's seed is the i-th draw of a master RNG seeded
// with Config.Seed, so the table is prefix-stable and world i samples
// the same world for every worker count, block schedule and budget.
// Block boundaries depend only on the configuration, a scan must write
// only lane-owned or world-indexed state, and convergence is tested
// only at barriers (every world of the block scanned, none of the next
// started), so a stopped run is bit-identical to the same-length prefix
// of a full-budget run.
package worldloop

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// Block is the number of worlds an adaptive run samples between
// convergence checks.
const Block = 32

// Scanner is a caller's per-world work.
type Scanner interface {
	// ScanWorld folds world i into lane-owned or world-indexed state.
	// world aliases the lane's sampler buffers and is valid only for
	// the call; seed is world i's seed. Calls for one lane never
	// overlap.
	ScanWorld(lane, i int, world *graph.Graph, seed int64)
	// Converged reports, at a block barrier, whether the first done
	// worlds — scanned on lanes lanes — meet the run's tolerance.
	Converged(lanes, done int) bool
}

// Config describes one run.
type Config struct {
	// Worlds is the world budget: the exact length of a fixed run and
	// the cap an adaptive run may stop short of.
	Worlds int
	// Seed determines every world: world i depends only on (Seed, i).
	Seed int64
	// Workers is the total worker budget (<= 0 selects GOMAXPROCS).
	Workers int
	// Adaptive runs the budget in Block-world blocks and consults
	// Scanner.Converged at each barrier; otherwise the whole budget is
	// one block with no barrier.
	Adaptive bool
	// Progress, when non-nil, is invoked after each world with the
	// number of finished worlds and the budget. Lanes invoke it
	// concurrently.
	Progress func(done, total int)
}

// Workers resolves a configured worker bound against a world count:
// <= 0 selects GOMAXPROCS, and a run never uses more lanes than
// worlds. It is the lane count Loop.Run uses, so callers sizing
// per-lane state or pricing per-lane memory agree with it.
func Workers(configured, worlds int) int {
	if configured <= 0 {
		configured = runtime.GOMAXPROCS(0)
	}
	return max(1, min(configured, worlds))
}

// Loop runs the block-scheduled world loop. It keeps its seed table,
// samplers and RNGs across runs, so a reused Loop allocates nothing in
// steady state. The zero value is ready to use; a Loop must not be
// used concurrently.
type Loop struct {
	proto  *uncertain.Sampler
	master *rand.Rand
	seeds  []int64
	lanes  []lane
}

// lane is one worker's sampling state: a sampler cloned from the
// shared template and a generator reseeded per world.
type lane struct {
	sampler *uncertain.Sampler
	rng     *rand.Rand
}

// Run samples up to cfg.Worlds worlds of g and scans each with s,
// returning the number of worlds scanned: the budget for a fixed run,
// possibly fewer for an adaptive one. An adaptive run never stops on
// fewer than two worlds (one sample has no spread) and stops only at
// block barriers.
//
// Cancelling ctx stops the run at world granularity: no new world is
// scanned once ctx is done, in-flight worlds finish, every lane is
// joined before Run returns, and ctx.Err() is returned. A nil ctx
// never cancels. With one lane the loop runs inline, free of closures
// and channels.
func (l *Loop) Run(ctx context.Context, g *uncertain.Graph, cfg Config, s Scanner) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := cfg.Worlds
	lanes := Workers(cfg.Workers, r)
	l.prepare(g, cfg.Seed, r, lanes)
	block := r
	if cfg.Adaptive {
		block = Block
	}
	done := 0
	for done < r {
		end := min(done+block, r)
		if lanes == 1 {
			for i := done; i < end; i++ {
				if err := ctx.Err(); err != nil {
					return done, err
				}
				l.scan(s, 0, i)
				if cfg.Progress != nil {
					cfg.Progress(i+1, r)
				}
			}
		} else {
			l.runParallel(ctx, s, cfg, min(lanes, end-done), done, end)
		}
		if err := ctx.Err(); err != nil {
			return done, err
		}
		done = end
		if cfg.Adaptive && done >= 2 && done < r && s.Converged(lanes, done) {
			break
		}
	}
	return done, nil
}

// runParallel fans the worlds [base, end) out over lanes goroutines and
// joins them all, which is what makes the block boundary a barrier. It
// is separate from Run so the closure's captures never force the
// one-lane path to allocate.
func (l *Loop) runParallel(ctx context.Context, s Scanner, cfg Config, lanes, base, end int) {
	var finished atomic.Int64
	// Run reads ctx.Err() itself once every lane has joined.
	_ = parallel.ForWorkers(ctx, end-base, lanes, func(k, j int) {
		l.scan(s, k, base+j)
		if cfg.Progress != nil {
			cfg.Progress(base+int(finished.Add(1)), cfg.Worlds)
		}
	})
}

// scan materializes world i on lane k and hands it to s.
func (l *Loop) scan(s Scanner, k, i int) {
	ln := &l.lanes[k]
	// Reseeding replays exactly the stream randx.New(seed) would
	// produce, without constructing a new generator.
	ln.rng.Seed(l.seeds[i])
	s.ScanWorld(k, i, ln.sampler.Sample(ln.rng), l.seeds[i])
}

// prepare derives the seed table for r worlds and readies lanes lanes,
// reusing every buffer of previous runs on the same graph.
func (l *Loop) prepare(g *uncertain.Graph, seed int64, r, lanes int) {
	if cap(l.seeds) < r {
		l.seeds = make([]int64, r)
	}
	l.seeds = l.seeds[:r]
	if l.master == nil {
		l.master = randx.New(seed)
	} else {
		l.master.Seed(seed)
	}
	randx.FillWorldSeeds(l.seeds, l.master)
	if l.proto == nil || l.proto.Graph() != g {
		l.proto = g.NewSampler()
		l.lanes = append(l.lanes[:0], lane{sampler: l.proto, rng: randx.New(0)})
	}
	for len(l.lanes) < lanes {
		l.lanes = append(l.lanes, lane{sampler: l.proto.Clone(), rng: randx.New(0)})
	}
}
