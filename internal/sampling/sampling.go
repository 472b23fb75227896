// Package sampling implements the Monte-Carlo estimation pipeline of
// paper Section 6.1: sample r possible worlds of an uncertain graph,
// evaluate every statistic of Section 6 on each world, and aggregate
// into sample means, relative standard errors (Table 5) and relative
// errors against the original graph (Table 4). Hoeffding bounds
// (Lemma 2 / Corollary 1) are re-exported through mathx.
//
// Estimation is adaptive when Config.Tolerance is set: worlds are
// sampled in fixed-size blocks on a deterministic schedule, and the
// run stops at the first block barrier where every statistic's
// relative SEM — the Table 5 machinery, used online — is inside the
// tolerance, with the world budget as backstop. A stopped run is
// bit-identical to the same-length prefix of a full fixed-budget run.
//
// The r-world loop is the evaluation hot path. It runs on the world
// loop shared with the query engine (internal/worldloop), which gives
// each worker lane one sampler clone drawing worlds from their seeds;
// this package adds one statistic Scratch per lane (BFS dist/queue
// arrays, HyperANF registers), so the steady-state loop materializes
// and measures worlds without per-world graph allocations. Results are
// bit-identical for every worker count: world seeds are pre-derived
// from the master seed, each world's statistics depend only on its
// seed, and every world writes its own slot of the sample arrays.
package sampling

import (
	"context"
	"fmt"
	"sort"

	"uncertaingraph/internal/anf"
	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/stats"
	"uncertaingraph/internal/uncertain"
	"uncertaingraph/internal/worldloop"
)

// StatNames lists the ten scalar statistics of paper Table 4, in the
// paper's column order.
var StatNames = []string{
	"S_NE", "S_AD", "S_MD", "S_DV", "S_PL",
	"S_APD", "S_DiamLB", "S_EDiam", "S_CL", "S_CC",
}

// DistanceMethod selects how per-world distance distributions are
// computed.
type DistanceMethod int

const (
	// DistanceANF uses HyperANF, the paper's method — scalable,
	// approximate.
	DistanceANF DistanceMethod = iota
	// DistanceExactBFS runs a BFS from every vertex — exact, for small
	// worlds and validation.
	DistanceExactBFS
	// DistanceSampledBFS scales up BFS trees from a subset of sources.
	DistanceSampledBFS
)

// Config tunes the estimation run.
type Config struct {
	// Worlds is the number r of sampled possible worlds (paper: 100).
	// When Tolerance is set it is the world budget an adaptive run may
	// stop short of (MaxWorlds, when positive, overrides it).
	Worlds int
	// Seed makes the run reproducible.
	Seed int64
	// Workers bounds the number of concurrent world evaluations
	// (<= 0 selects GOMAXPROCS). Each worker owns one set of sampling
	// and statistic buffers; results are bit-identical for every value.
	Workers int
	// Distances selects the per-world distance estimator.
	Distances DistanceMethod
	// ANFBits is the HyperANF register exponent (0 -> 7).
	ANFBits int
	// BFSSources is the source count for DistanceSampledBFS (0 -> 256).
	BFSSources int
	// PowerLawMinDegree is the S_PL fit cutoff (0 -> stats default).
	PowerLawMinDegree int
	// EffectiveDiameterQ is the S_EDiam quantile (0 -> 0.9).
	EffectiveDiameterQ float64
	// Progress, when non-nil, is invoked after each world completes
	// with the number of finished worlds and the total. Workers invoke
	// it concurrently; implementations must be safe for concurrent use
	// and must not block for long. Progress observation never affects
	// results.
	Progress func(done, total int)
	// Tolerance, when positive, enables adaptive-precision estimation:
	// worlds are sampled in worldloop.Block blocks, and the run stops at
	// the first block barrier where every statistic's relative SEM
	// (mathx.RelativeSEM, paper Table 5) is at most Tolerance — easy
	// statistics stop after a block or two, hard ones run to the world
	// budget. Zero disables adaptive stopping: the run samples exactly
	// its fixed world budget, bit-identical to the pre-adaptive Run.
	Tolerance float64
	// MaxWorlds, when positive, overrides Worlds as the world budget —
	// the cap an adaptive run may stop short of. Seeds for the whole
	// budget are pre-derived up front, so a run stopped at block b is
	// bit-identical to the first b blocks of an uncancelled full-budget
	// run, for every Workers value.
	MaxWorlds int
}

func (c Config) withDefaults() Config {
	if c.Worlds <= 0 {
		c.Worlds = 100
	}
	if c.BFSSources <= 0 {
		c.BFSSources = 256
	}
	if c.EffectiveDiameterQ == 0 {
		c.EffectiveDiameterQ = 0.9
	}
	return c
}

// budget resolves the run's world budget: the cap an adaptive run may
// stop short of, and the exact length of a fixed run.
func (c Config) budget() int {
	if c.MaxWorlds > 0 {
		return c.MaxWorlds
	}
	return c.Worlds
}

// loop maps the run onto the shared world loop.
func (c Config) loop() worldloop.Config {
	return worldloop.Config{
		Worlds:   c.budget(),
		Seed:     c.Seed,
		Workers:  c.Workers,
		Adaptive: c.Tolerance > 0,
		Progress: c.Progress,
	}
}

// Report aggregates per-world statistic values.
type Report struct {
	// Samples[name][i] is the statistic value on the i-th world, keyed
	// by StatNames. Arrays are WorldsUsed long — an adaptive run that
	// stopped early carries exactly the worlds it sampled.
	Samples map[string][]float64
	// ExactNE and ExactAD are the closed-form expectations of S_NE and
	// S_AD (Section 6.2), available without sampling.
	ExactNE, ExactAD float64
	// WorldsUsed is the number of worlds actually sampled: the full
	// budget for a fixed run, possibly fewer for an adaptive one.
	WorldsUsed int
	// Converged[name] reports whether the statistic's relative SEM was
	// inside the run's Tolerance when sampling stopped. Nil for fixed
	// runs (Tolerance 0), where no convergence target exists. A
	// statistic can be unconverged in a completed adaptive run — the
	// budget ran out first — and callers deciding whether to trust a
	// mean should check its flag, not just WorldsUsed.
	Converged map[string]bool
}

// Mean returns the sample mean of a named statistic.
func (r *Report) Mean(name string) float64 {
	m, _ := mathx.MeanStd(r.Samples[name])
	return m
}

// RelSEM returns the relative standard error of the mean (Table 5).
func (r *Report) RelSEM(name string) float64 {
	return mathx.RelativeSEM(r.Samples[name])
}

// RelErr returns |mean - real|/|real| (Table 4) for a named statistic.
func (r *Report) RelErr(name string, real float64) float64 {
	return mathx.RelAbsErr(r.Mean(name), real)
}

// Scratch bundles the reusable statistic-evaluation state of one
// worker: the BFS distance/queue/count buffers and the HyperANF
// counter registers, both of which grow to the graph size once and are
// reused for every subsequent world.
type Scratch struct {
	bfs     *bfs.Scratch
	anf     *anf.Engine
	anfBits int
	// intra is the worker budget of the BFS distance scans inside one
	// ScalarsInto call (<= 0 selects GOMAXPROCS). NewScratch sets 1, so
	// per-world scans run sequentially — the world loop spends Workers
	// across worlds — while ScalarsOf sets cfg.Workers for its one-shot
	// scan. The source fan-out is bit-identical to the sequential scan,
	// so the value never affects results.
	intra int
}

// NewScratch returns scratch buffers for evaluating statistics under
// cfg; buffers grow on first use.
func NewScratch(cfg Config) *Scratch {
	cfg = cfg.withDefaults()
	return &Scratch{
		bfs:     bfs.NewScratch(),
		anf:     anf.NewEngine(anf.Options{Bits: cfg.ANFBits}),
		anfBits: cfg.ANFBits,
		intra:   1,
	}
}

func (s *Scratch) engine(cfg Config) *anf.Engine {
	if s.anfBits != cfg.ANFBits {
		s.anf = anf.NewEngine(anf.Options{Bits: cfg.ANFBits})
		s.anfBits = cfg.ANFBits
	}
	return s.anf
}

// ScalarsOf evaluates the ten paper statistics on a single certain
// graph (used both per-world and on originals for the "real" rows).
// The one-shot BFS distance scans honor cfg.Workers (<= 0 selects
// GOMAXPROCS, 1 is fully sequential); results are bit-identical for
// every value.
func ScalarsOf(g *graph.Graph, cfg Config, seed int64) map[string]float64 {
	var vals [10]float64
	sc := NewScratch(cfg)
	sc.intra = cfg.Workers
	ScalarsInto(g, cfg, seed, sc, &vals)
	out := make(map[string]float64, len(StatNames))
	for i, name := range StatNames {
		out[name] = vals[i]
	}
	return out
}

// ScalarsInto evaluates the ten statistics into vals (indexed by
// StatNames order) against caller-owned scratch buffers — the reuse
// form of ScalarsOf that the world loop drives.
func ScalarsInto(g *graph.Graph, cfg Config, seed int64, sc *Scratch, vals *[10]float64) {
	cfg = cfg.withDefaults()
	vals[0] = stats.NumEdges(g)
	vals[1] = stats.AvgDegree(g)
	vals[2] = stats.MaxDegree(g)
	vals[3] = stats.DegreeVariance(g)
	vals[4] = stats.PowerLawExponent(g, cfg.PowerLawMinDegree)
	var dd stats.DistanceDistribution
	switch cfg.Distances {
	case DistanceExactBFS:
		dd = sc.bfs.DistanceDistribution(g, sc.intra)
	case DistanceSampledBFS:
		dd = sc.bfs.SampledDistanceDistribution(g, cfg.BFSSources, randx.New(seed), sc.intra)
	default:
		dd = sc.engine(cfg).DistanceDistribution(g, uint64(seed))
	}
	vals[5] = dd.AvgDistance()
	vals[6] = float64(dd.Diameter())
	vals[7] = dd.EffectiveDiameter(cfg.EffectiveDiameterQ)
	vals[8] = dd.ConnectivityLength()
	vals[9] = stats.ClusteringCoefficient(g)
}

// scalarScan is Run's per-world work: the ten statistics of world i
// into slot i of the sample arrays, on the lane's Scratch.
type scalarScan struct {
	cfg     Config
	samples [][]float64
	scratch []*Scratch // per lane, built on the lane's first world
}

func (s *scalarScan) ScanWorld(lane, i int, world *graph.Graph, seed int64) {
	sc := s.scratch[lane]
	if sc == nil {
		sc = NewScratch(s.cfg)
		s.scratch[lane] = sc
	}
	var vals [10]float64
	ScalarsInto(world, s.cfg, seed, sc, &vals)
	for k := range s.samples {
		s.samples[k][i] = vals[k]
	}
}

// Converged reports whether every statistic's relative SEM over the
// first done worlds is inside the tolerance. The fixed RelativeSEM
// makes this safe on sparse worlds: a zero-mean statistic with spread
// reports +Inf, never the pre-fix 0 that would have stopped the run
// after one block.
func (s *scalarScan) Converged(_, done int) bool {
	for _, xs := range s.samples {
		if !(mathx.RelativeSEM(xs[:done]) <= s.cfg.Tolerance) {
			return false
		}
	}
	return true
}

// Run samples possible worlds of ug and evaluates all ten statistics
// on each, in parallel across worlds. Results are deterministic for a
// fixed Config and identical for every Workers value. Cancelling ctx
// aborts between worlds with no goroutine leaks and returns ctx.Err();
// a nil ctx never cancels, and a run that returns a Report is
// bit-identical to an uncancelled run.
//
// With Tolerance set, Run is adaptive: it samples in worldloop.Block
// blocks and stops at the first barrier where every statistic's
// relative SEM is inside the tolerance (see Config.Tolerance). The
// report's sample arrays then hold exactly the WorldsUsed worlds
// evaluated, and they are bit-identical to the same-length prefix of a
// full fixed-budget run — adaptive stopping changes how many worlds
// are measured, never what any world measures.
func Run(ctx context.Context, ug *uncertain.Graph, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	budget := cfg.budget()
	report := &Report{
		Samples: make(map[string][]float64, len(StatNames)),
		ExactNE: ug.ExpectedNumEdges(),
		ExactAD: ug.ExpectedAverageDegree(),
	}
	samples := make([][]float64, len(StatNames))
	for i := range samples {
		samples[i] = make([]float64, budget)
	}
	var loop worldloop.Loop
	used, err := loop.Run(ctx, ug, cfg.loop(), &scalarScan{
		cfg:     cfg,
		samples: samples,
		scratch: make([]*Scratch, worldloop.Workers(cfg.Workers, budget)),
	})
	if err != nil {
		return nil, err
	}
	report.WorldsUsed = used
	for i, name := range StatNames {
		report.Samples[name] = samples[i][:used:used]
	}
	if cfg.Tolerance > 0 {
		report.Converged = make(map[string]bool, len(StatNames))
		for i, name := range StatNames {
			report.Converged[name] = mathx.RelativeSEM(samples[i][:used]) <= cfg.Tolerance
		}
	}
	return report, nil
}

// VectorFn maps a certain graph to a vector statistic (degree
// distribution, distance distribution fractions, ...). The graph
// passed to fn is only valid for the duration of the call; the
// returned slice must not alias it.
type VectorFn func(g *graph.Graph, seed int64) []float64

// RunVector evaluates a vector statistic on each sampled world,
// returning one row per world (rows may have different lengths; callers
// typically pad or box-summarize). Cancellation follows the same
// contract as Run: abort between worlds, join all workers, return
// ctx.Err() and no rows.
//
// With Tolerance set, RunVector stops early once every coordinate's
// relative SEM is inside the tolerance, under the same zero-padding
// convention as Boxes (rows shorter than the longest contribute 0
// beyond their length) and the same block-prefix determinism as Run:
// the returned rows are bit-identical to the same-length prefix of a
// full fixed-budget run.
func RunVector(ctx context.Context, ug *uncertain.Graph, cfg Config, fn VectorFn) ([][]float64, error) {
	cfg = cfg.withDefaults()
	s := &vectorScan{fn: fn, tol: cfg.Tolerance, rows: make([][]float64, cfg.budget())}
	var loop worldloop.Loop
	used, err := loop.Run(ctx, ug, cfg.loop(), s)
	if err != nil {
		return nil, err
	}
	return s.rows[:used:used], nil
}

// vectorScan is RunVector's per-world work: fn's row for world i into
// slot i.
type vectorScan struct {
	fn   VectorFn
	tol  float64
	rows [][]float64
	col  []float64 // convergence scratch
}

func (s *vectorScan) ScanWorld(_, i int, world *graph.Graph, seed int64) {
	s.rows[i] = s.fn(world, seed)
}

// Converged reports whether every coordinate's relative SEM over the
// first done rows is inside the tolerance, zero-padding short rows.
func (s *vectorScan) Converged(_, done int) bool {
	maxLen := 0
	for _, r := range s.rows[:done] {
		maxLen = max(maxLen, len(r))
	}
	for c := 0; c < maxLen; c++ {
		s.col = s.col[:0]
		for _, r := range s.rows[:done] {
			if c < len(r) {
				s.col = append(s.col, r[c])
			} else {
				s.col = append(s.col, 0)
			}
		}
		if !(mathx.RelativeSEM(s.col) <= s.tol) {
			return false
		}
	}
	return true
}

// Box summarizes one coordinate of a vector statistic across worlds:
// the five-number summary drawn as a boxplot in paper Figures 2 and 3.
type Box struct {
	Min, Q1, Median, Q3, Max float64
}

// Boxes computes per-index five-number summaries over world rows; rows
// shorter than the longest are treated as zero beyond their length.
func Boxes(rows [][]float64) []Box {
	maxLen := 0
	for _, r := range rows {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	out := make([]Box, maxLen)
	col := make([]float64, 0, len(rows))
	for i := 0; i < maxLen; i++ {
		col = col[:0]
		for _, r := range rows {
			if i < len(r) {
				col = append(col, r[i])
			} else {
				col = append(col, 0)
			}
		}
		out[i] = boxOf(col)
	}
	return out
}

func boxOf(xs []float64) Box {
	s := append([]float64(nil), xs...)
	sortFloats(s)
	q := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return Box{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

func sortFloats(s []float64) { sort.Float64s(s) }

// String renders a Box compactly for reports.
func (b Box) String() string {
	return fmt.Sprintf("[%.4g %.4g %.4g %.4g %.4g]", b.Min, b.Q1, b.Median, b.Q3, b.Max)
}
