package uncertaingraph

import (
	"errors"
	"fmt"
	"math"

	"uncertaingraph/internal/core"
)

// ErrBadConfig is returned (wrapped, with detail) by the context-first
// entry points when an option carries a nonsensical value — a negative
// worker budget, a non-positive world count, an obfuscation level below
// 1. Test with errors.Is.
var ErrBadConfig = errors.New("uncertaingraph: bad configuration")

func badConfig(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
}

// Progress is one progress observation delivered to a WithProgress
// callback: Done units of Total are finished in the named stage. Units
// are stage-specific — σ probes for "obfuscate", sampled worlds for
// "estimate" and "query". Total is 0 while the operation's length is
// not yet known (the doubling phase of the obfuscation search).
// Progress observation never affects results.
type Progress struct {
	Stage string
	Done  int
	Total int
}

// Stage names delivered in Progress.Stage.
const (
	StageObfuscate = "obfuscate"
	StageEstimate  = "estimate"
	StageQuery     = "query"
)

// Option configures a context-first entry point (Obfuscate,
// EstimateStatistics, Statistics, NewQueryBatch). The shared options —
// WithSeed, WithWorkers, WithWorlds, WithProgress — mean the same thing
// everywhere and replace the per-call rng parameters and per-struct
// Seed/Rng/Workers fields of the v1 API; entry points silently ignore
// options that do not apply to them (WithWorlds on Obfuscate). Invalid
// values are reported by the entry point as errors wrapping
// ErrBadConfig rather than being silently clamped.
type Option func(*settings) error

// settings is the merged view of an option list. Set-flags distinguish
// "explicitly configured" from zero values so that bulk options
// (WithObfuscation, WithEstimate) compose with the shared ones: shared
// options win regardless of argument order.
type settings struct {
	seed       int64
	seedSet    bool
	workers    int
	workersSet bool
	worlds     int
	worldsSet  bool
	maxWorlds  int
	tolerance  float64
	memBudget  int64
	progress   func(Progress)

	k            float64
	kSet         bool
	eps          float64
	epsSet       bool
	obf          ObfuscationParams
	est          EstimateConfig
	distances    DistanceMethod
	distancesSet bool
}

func newSettings(opts []Option) (*settings, error) {
	s := &settings{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WithSeed pins the base seed of the operation's determinism contract:
// every RNG stream — per-(σ, trial) obfuscation streams, per-world
// sampling streams — is derived from it via randx.Derive-style
// splitting, so results are bit-identical for every worker count and
// every scheduling. Seeds at or above 2^63 fold their top bit off (the
// internal engines use non-negative int64 seeds); seed 0 selects the
// historical default stream (seed 1) in Obfuscate, matching the v1 API.
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		s.seed = int64(seed & math.MaxInt64)
		s.seedSet = true
		return nil
	}
}

// WithWorkers bounds the operation's concurrency. 0 selects GOMAXPROCS;
// negative counts are rejected with ErrBadConfig. Results never depend
// on the value — workers trade wall-clock time only. World-sampling
// operations spend the budget across sampled worlds, one worker per
// group of up to 64 worlds in flight and never more workers than
// worlds; each group is walked sequentially.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return badConfig("workers %d must be >= 0 (0 selects GOMAXPROCS)", n)
		}
		s.workers = n
		s.workersSet = true
		return nil
	}
}

// WithWorlds sets the Monte-Carlo sample size r for world-sampling
// operations (EstimateStatistics, NewQueryBatch). Non-positive counts
// are rejected with ErrBadConfig; omit the option to get the
// operation's default (100 worlds for estimation, the Hoeffding 738
// for queries).
func WithWorlds(r int) Option {
	return func(s *settings) error {
		if r <= 0 {
			return badConfig("worlds %d must be positive", r)
		}
		s.worlds = r
		s.worldsSet = true
		return nil
	}
}

// WithTolerance enables adaptive-precision estimation: the operation
// samples worlds in fixed-size blocks and stops at the first block
// barrier where every statistic's (EstimateStatistics) or query's
// (NewQueryBatch) relative standard error of the mean is at most tol.
// The worlds count — WithWorlds, or WithMaxWorlds for estimation —
// stays the budget; a run that never converges uses all of it.
//
// Determinism: a run stopped after b blocks is bit-identical to the
// first b blocks of an uncancelled full-budget run, for every
// WithWorkers value — adaptive stopping changes how many worlds are
// measured, never what any world measures. Reports carry the worlds
// actually used (Report.WorldsUsed, Batch.WorldsRun) and per-statistic
// convergence flags.
//
// tol 0 (the default) disables adaptive stopping; negative, NaN or
// infinite tolerances are rejected with ErrBadConfig.
func WithTolerance(tol float64) Option {
	return func(s *settings) error {
		if tol < 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
			return badConfig("tolerance %v must be a finite non-negative number", tol)
		}
		s.tolerance = tol
		return nil
	}
}

// WithMaxWorlds caps the world budget of an adaptive estimation run
// (EstimateStatistics with WithTolerance): seeds are pre-derived for
// cap worlds and the run may stop at any block boundary before
// reaching it. It overrides the budget independently of WithWorlds, so
// callers can keep a small fixed default while letting adaptive runs
// range further. For NewQueryBatch it caps the effective world count.
// Non-positive caps are rejected with ErrBadConfig.
func WithMaxWorlds(cap int) Option {
	return func(s *settings) error {
		if cap <= 0 {
			return badConfig("max worlds %d must be positive", cap)
		}
		s.maxWorlds = cap
		return nil
	}
}

// WithMemoryBudget bounds the accumulator memory of a query batch
// (NewQueryBatch) in bytes. Run rejects a query set whose worst-case
// k-NN histogram footprint — distinct k-NN sources × n² int32 counters
// × workers — exceeds the budget, returning an error for which
// errors.Is(err, ErrOverBudget) is true, and Reset sheds retained
// high-water buffers above the budget so a pooled batch cannot pin one
// huge request's memory forever. Zero (the default) disables both
// checks; negative budgets are rejected with ErrBadConfig. Other entry
// points ignore the option.
func WithMemoryBudget(bytes int64) Option {
	return func(s *settings) error {
		if bytes < 0 {
			return badConfig("memory budget %d must be >= 0 (0 disables the budget)", bytes)
		}
		s.memBudget = bytes
		return nil
	}
}

// WithProgress registers a progress observer. Parallel stages invoke
// fn concurrently from worker goroutines; fn must be safe for
// concurrent use and must not block for long. The world-sampling
// stages ("estimate", "query") report each world once, after the group
// of up to 64 worlds holding it is scanned, so reports arrive in bursts
// of a group; a group that ends cancelled reports none of its worlds.
// Observation never affects results — a run with a progress callback is
// bit-identical to one without.
func WithProgress(fn func(Progress)) Option {
	return func(s *settings) error {
		s.progress = fn
		return nil
	}
}

// validateK and validateEps hold the single copy of the (k, ε) rules,
// shared by the WithK/WithEps constructors and the merged-params
// validation in Obfuscate (the bulk WithObfuscation struct may carry
// k and ε too, and must hit the same ErrBadConfig).
func validateK(k float64) error {
	if k < 1 || math.IsNaN(k) {
		return badConfig("obfuscation level k = %v must be >= 1", k)
	}
	return nil
}

func validateEps(eps float64) error {
	if eps < 0 || eps >= 1 || math.IsNaN(eps) {
		return badConfig("eps = %v must be in [0, 1)", eps)
	}
	return nil
}

func validateKEps(k, eps float64) error {
	if err := validateK(k); err != nil {
		return err
	}
	return validateEps(eps)
}

// WithK sets the obfuscation level k (Definition 2; the paper uses 20,
// 60, 100). Values below 1 are rejected with ErrBadConfig.
func WithK(k float64) Option {
	return func(s *settings) error {
		if err := validateK(k); err != nil {
			return err
		}
		s.k = k
		s.kSet = true
		return nil
	}
}

// WithEps sets the tolerated fraction ε of non-obfuscated vertices
// (the paper uses 1e-3 and 1e-4). Values outside [0, 1) are rejected
// with ErrBadConfig.
func WithEps(eps float64) Option {
	return func(s *settings) error {
		if err := validateEps(eps); err != nil {
			return err
		}
		s.eps = eps
		s.epsSet = true
		return nil
	}
}

// WithObfuscation supplies the full ObfuscationParams struct for the
// domain knobs without a dedicated option (C, Q, Trials, Delta,
// SigmaInit, MaxSigma, ExactThreshold, Property, DisableHExclusion).
// The shared options — WithSeed, WithWorkers, WithProgress — and WithK/
// WithEps override the corresponding fields regardless of option
// order. A params struct carrying a negative Workers or Trials count
// is rejected with ErrBadConfig, and so is a NaN or infinite C, Delta,
// SigmaInit or MaxSigma; zero still selects each default, and a finite
// C below 1 is still raised to 1.
func WithObfuscation(p ObfuscationParams) Option {
	return func(s *settings) error {
		if p.Workers < 0 {
			return badConfig("ObfuscationParams.Workers %d must be >= 0", p.Workers)
		}
		if p.Trials < 0 {
			return badConfig("ObfuscationParams.Trials %d must be >= 0", p.Trials)
		}
		if name, v := core.NonFinite(p); name != "" {
			return badConfig("ObfuscationParams.%s = %v must be finite (0 selects the default)", name, v)
		}
		s.obf = p
		return nil
	}
}

// WithEstimate supplies the full EstimateConfig struct for the
// estimation knobs without a dedicated option (ANFBits, BFSSources,
// PowerLawMinDegree, EffectiveDiameterQ). The shared options override
// the corresponding fields regardless of option order. Negative
// Workers or Worlds counts are rejected with ErrBadConfig (0 still
// selects the defaults, matching the v1 struct), and so is an ANFBits
// outside 4–16 other than 0 (the default).
func WithEstimate(cfg EstimateConfig) Option {
	return func(s *settings) error {
		if cfg.Workers < 0 {
			return badConfig("EstimateConfig.Workers %d must be >= 0", cfg.Workers)
		}
		if cfg.Worlds < 0 {
			return badConfig("EstimateConfig.Worlds %d must be >= 0", cfg.Worlds)
		}
		if cfg.ANFBits != 0 && (cfg.ANFBits < 4 || cfg.ANFBits > 16) {
			return badConfig("EstimateConfig.ANFBits %d must be 0 or in [4, 16]", cfg.ANFBits)
		}
		s.est = cfg
		return nil
	}
}

// WithDistances selects the per-world distance estimator for
// EstimateStatistics and Statistics (DistanceANF, DistanceExactBFS,
// DistanceSampledBFS).
func WithDistances(m DistanceMethod) Option {
	return func(s *settings) error {
		if m != DistanceANF && m != DistanceExactBFS && m != DistanceSampledBFS {
			return badConfig("unknown distance method %d", m)
		}
		s.distances = m
		s.distancesSet = true
		return nil
	}
}

// stageProgress adapts the user's Progress observer to the internal
// engines' (done, total) callbacks, stamping the stage name.
func stageProgress(fn func(Progress), stage string) func(done, total int) {
	if fn == nil {
		return nil
	}
	return func(done, total int) { fn(Progress{Stage: stage, Done: done, Total: total}) }
}

// obfuscationParams merges the option list into the core engine's
// parameter struct.
func (s *settings) obfuscationParams() ObfuscationParams {
	p := s.obf
	if s.kSet {
		p.K = s.k
	}
	if s.epsSet {
		p.Eps = s.eps
	}
	if s.seedSet {
		p.Seed = s.seed
	}
	if s.workersSet {
		p.Workers = s.workers
	}
	if s.progress != nil {
		p.Progress = stageProgress(s.progress, StageObfuscate)
	}
	return p
}

// estimateConfig merges the option list into the sampling engine's
// config struct.
func (s *settings) estimateConfig(stage string) EstimateConfig {
	cfg := s.est
	if s.worldsSet {
		cfg.Worlds = s.worlds
	}
	if s.seedSet {
		cfg.Seed = s.seed
	}
	if s.workersSet {
		cfg.Workers = s.workers
	}
	if s.distancesSet {
		cfg.Distances = s.distances
	}
	if s.tolerance > 0 {
		cfg.Tolerance = s.tolerance
	}
	if s.maxWorlds > 0 {
		cfg.MaxWorlds = s.maxWorlds
	}
	if s.progress != nil {
		cfg.Progress = stageProgress(s.progress, stage)
	}
	return cfg
}

// queryConfig merges the option list into the query engine's config
// struct.
func (s *settings) queryConfig() QueryConfig {
	worlds := s.worlds
	// The query engine's Worlds is already the (adaptive) budget, so
	// WithMaxWorlds acts as a ceiling on it.
	if s.maxWorlds > 0 && (worlds == 0 || worlds > s.maxWorlds) {
		worlds = s.maxWorlds
	}
	return QueryConfig{
		Worlds:       worlds,
		Seed:         s.seed,
		Workers:      s.workers,
		Tolerance:    s.tolerance,
		MemoryBudget: s.memBudget,
		Progress:     stageProgress(s.progress, StageQuery),
	}
}
