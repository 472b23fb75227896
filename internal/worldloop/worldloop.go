// Package worldloop is the one possible-world Monte Carlo loop behind
// both the statistic estimation of paper Section 6.1 (internal/sampling)
// and every query answered on a release (internal/query): sample r
// worlds from pre-derived seeds, hand them to a caller-supplied scan,
// and — for an adaptive run — stop at the first block barrier where the
// caller's Hoeffding-style convergence test passes (Lemma 2 /
// Corollary 1 size the budget it may stop short of).
//
// The loop owns everything the two engines used to duplicate: the
// world-seed table, one sampler per worker lane (a clone of one shared
// template), the worker clamp, the fixed/adaptive block schedule,
// Progress and cancellation. Callers keep only their scan, their merge
// and their convergence test.
//
// A scan receives groups of consecutive worlds: their seeds and the
// lane's sampler. Each scan draws its worlds in the form it reads:
// the statistics pipeline materializes one world at a time
// (uncertain.Sampler.SampleSeed), and the query engine packs the whole
// group one bit per world (uncertain.Sampler.SampleGroup). A group
// never crosses a block barrier: each block is cut into groups of
// min(64, ⌈block worlds / lanes⌉) worlds, so every lane gets work and
// an adaptive run stops at exactly the same world for every lane
// count. Progress is reported once per world, after the world's group
// finishes.
//
// Parallelism has one axis: the worker budget is spent across groups,
// one lane per worker, and every group is scanned sequentially on its
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

	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// Block is the number of worlds an adaptive run samples between
// convergence checks.
const Block = 32

// Scanner is a caller's work over groups of worlds.
type Scanner interface {
	// ScanGroup folds worlds [i, i+len(seeds)) into lane-owned or
	// world-indexed state. seeds[j] is world i+j's seed, and sampler is
	// the lane's, which draws a world with SampleSeed(seeds[j]) or packs
	// the group with SampleGroup(seeds); what it returns aliases the
	// sampler. Calls for one lane never overlap.
	ScanGroup(lane, i int, seeds []int64, sampler *uncertain.Sampler)
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
	// Progress, when non-nil, is invoked once per world, after the
	// world's group is scanned, with the number of finished worlds and
	// the budget. A group that ends with the run's ctx done reports
	// none of its worlds. Lanes invoke it concurrently.
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

// Loop runs the block-scheduled world loop. It keeps its seed table
// and samplers across runs, so a reused Loop allocates nothing in
// steady state. The zero value is ready to use; a Loop must not be
// used concurrently.
type Loop struct {
	proto    *uncertain.Sampler
	master   *rand.Rand
	seeds    []int64
	samplers []*uncertain.Sampler // one per lane, cloned from proto
}

// Run samples up to cfg.Worlds worlds of g and scans them with s in
// groups, returning the number of worlds scanned: the budget for a
// fixed run, possibly fewer for an adaptive one. An adaptive run never
// stops on fewer than two worlds (one sample has no spread) and stops
// only at block barriers.
//
// Cancelling ctx stops the run between groups: no new group is scanned
// once ctx is done, a group in flight finishes (a scan may return early
// by watching ctx itself), every lane is joined before Run returns, and
// ctx.Err() is returned. A nil ctx never cancels. With one lane the
// loop runs inline, free of closures and channels.
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
		width := min(uncertain.GroupWidth, (end-done+lanes-1)/lanes)
		if lanes == 1 {
			for i := done; i < end; i += width {
				if err := ctx.Err(); err != nil {
					return done, err
				}
				hi := min(i+width, end)
				s.ScanGroup(0, i, l.seeds[i:hi], l.samplers[0])
				if cfg.Progress != nil && ctx.Err() == nil {
					for j := i; j < hi; j++ {
						cfg.Progress(j+1, r)
					}
				}
			}
		} else {
			l.runParallel(ctx, s, cfg, lanes, done, end, width)
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

// runParallel fans the worlds [base, end), in groups of width worlds,
// out over at most lanes goroutines and joins them all, which is what
// makes the block boundary a barrier. It is separate from Run so the
// closures' captures never force the one-lane path to allocate.
func (l *Loop) runParallel(ctx context.Context, s Scanner, cfg Config, lanes, base, end, width int) {
	var finished atomic.Int64
	// Run reads ctx.Err() itself once every lane has joined.
	stop := func() bool { return ctx.Err() != nil }
	parallel.For((end-base+width-1)/width, lanes, stop, func(k, u int) {
		lo := base + u*width
		hi := min(lo+width, end)
		s.ScanGroup(k, lo, l.seeds[lo:hi], l.samplers[k])
		if cfg.Progress != nil && ctx.Err() == nil {
			for range hi - lo {
				cfg.Progress(base+int(finished.Add(1)), cfg.Worlds)
			}
		}
	})
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
		l.samplers = append(l.samplers[:0], l.proto)
	}
	for len(l.samplers) < lanes {
		l.samplers = append(l.samplers, l.proto.Clone())
	}
}
