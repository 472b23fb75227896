package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// equivFamilies spans the degree regimes the engine sees in practice:
// heavy-tailed with clustering (the dblp-like stand-in), homogeneous
// Erdős–Rényi, and a small-world lattice.
func equivFamilies(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"holmekim": gen.HolmeKim(randx.New(seed), 220, 3, 0.3),
		"erdos":    gen.ErdosRenyiGNM(randx.New(seed+1), 200, 500),
		"watts":    gen.WattsStrogatz(randx.New(seed+2), 180, 3, 0.1),
	}
}

// samePairs asserts two published uncertain graphs are bit-identical:
// same pair list in the same order with exactly equal probabilities.
func samePairs(t *testing.T, a, b *uncertain.Graph) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("one published graph is nil: %v vs %v", a, b)
		}
		return
	}
	ap, bp := a.Pairs(), b.Pairs()
	if len(ap) != len(bp) {
		t.Fatalf("pair counts differ: %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, ap[i], bp[i])
		}
	}
}

// TestObfuscateWorkerEquivalence is the regression contract of the
// parallel engine: for every graph family and seed, Obfuscate with
// Workers: 1 and Workers: N returns identical σ, ε̃, work counters, and
// published pair sets — parallelism must trade wall-clock time only.
func TestObfuscateWorkerEquivalence(t *testing.T) {
	for name, g := range equivFamilies(17) {
		for _, seed := range []int64{1, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				run := func(workers int) *Result {
					res, err := Obfuscate(context.Background(), g, Params{
						K: 4, Eps: 0.1, C: 2, Q: 0.01,
						Trials: 3, Delta: 1e-3,
						Workers: workers, Seed: seed,
					})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					return res
				}
				base := run(1)
				for _, workers := range []int{2, 4, 7} {
					got := run(workers)
					if got.Sigma != base.Sigma {
						t.Errorf("workers=%d: sigma %v != %v", workers, got.Sigma, base.Sigma)
					}
					if got.EpsTilde != base.EpsTilde {
						t.Errorf("workers=%d: eps~ %v != %v", workers, got.EpsTilde, base.EpsTilde)
					}
					if got.Generations != base.Generations || got.Trials != base.Trials {
						t.Errorf("workers=%d: counters (%d,%d) != (%d,%d)", workers,
							got.Generations, got.Trials, base.Generations, base.Trials)
					}
					samePairs(t, got.G, base.G)
				}
			})
		}
	}
}

// TestGenerateObfuscationWorkerEquivalence pins the same contract one
// level down, on a single Algorithm 2 probe.
func TestGenerateObfuscationWorkerEquivalence(t *testing.T) {
	g := gen.HolmeKim(randx.New(5), 250, 3, 0.3)
	for _, sigma := range []float64{0.05, 0.3} {
		base := GenerateObfuscation(g, sigma, Params{
			K: 4, Eps: 0.2, Trials: 4, Workers: 1, Seed: 9,
		})
		for _, workers := range []int{3, 8} {
			got := GenerateObfuscation(g, sigma, Params{
				K: 4, Eps: 0.2, Trials: 4, Workers: workers, Seed: 9,
			})
			if got.EpsTilde != base.EpsTilde {
				t.Errorf("sigma=%g workers=%d: eps~ %v != %v", sigma, workers, got.EpsTilde, base.EpsTilde)
			}
			if base.Failed() != got.Failed() {
				t.Fatalf("sigma=%g workers=%d: success disagree", sigma, workers)
			}
			if !base.Failed() {
				samePairs(t, got.G, base.G)
			}
		}
	}
}

// TestGenerateObfuscationBestOfT pins the selection semantics inherited
// from the sequential engine: Algorithm 2 keeps the best (lowest-ε̃) of
// its t trials, not the first success. Trial streams are keyed on
// (seed, σ, trial), so a Trials: 1 run is exactly trial 0 of the
// Trials: 5 run, and with this seed trial 0 succeeds at ε̃ = 0.04 while
// a later trial reaches 0.028 — first-success-wins would return 0.04.
func TestGenerateObfuscationBestOfT(t *testing.T) {
	g := gen.HolmeKim(randx.New(5), 250, 3, 0.3)
	p := func(trials, workers int) Params {
		return Params{K: 4, Eps: 0.3, Trials: trials, Workers: workers, Seed: 1}
	}
	first := GenerateObfuscation(g, 0.1, p(1, 1))
	best := GenerateObfuscation(g, 0.1, p(5, 1))
	if first.Failed() || best.Failed() {
		t.Fatalf("setup: both runs should succeed (eps~ %v, %v)", first.EpsTilde, best.EpsTilde)
	}
	if best.EpsTilde >= first.EpsTilde {
		t.Errorf("best-of-5 eps~ %v not better than trial 0's %v: first-success selection?",
			best.EpsTilde, first.EpsTilde)
	}
	par := GenerateObfuscation(g, 0.1, p(5, 4))
	if par.EpsTilde != best.EpsTilde {
		t.Errorf("parallel best-of-5 eps~ %v != sequential %v", par.EpsTilde, best.EpsTilde)
	}
	samePairs(t, par.G, best.G)
	// Adding trials can only improve the winner (prefix property of the
	// per-trial streams).
	prev := math.Inf(1)
	for trials := 1; trials <= 5; trials++ {
		cur := GenerateObfuscation(g, 0.1, p(trials, 3)).EpsTilde
		if cur > prev {
			t.Errorf("eps~ worsened from %v to %v when raising Trials to %d", prev, cur, trials)
		}
		prev = cur
	}
}

// TestProbePurity pins the property the speculative σ search relies on:
// a probe's outcome is a pure function of (g, σ, seed), independent of
// which probes ran before it.
func TestProbePurity(t *testing.T) {
	g := gen.HolmeKim(randx.New(3), 200, 3, 0.2)
	p := Params{K: 3, Eps: 0.15, Trials: 2, Workers: 2, Seed: 11}
	a := GenerateObfuscation(g, 0.2, p)
	GenerateObfuscation(g, 0.7, p) // unrelated probe in between
	b := GenerateObfuscation(g, 0.2, p)
	if a.EpsTilde != b.EpsTilde {
		t.Fatalf("probe not pure: eps~ %v vs %v", a.EpsTilde, b.EpsTilde)
	}
	if !a.Failed() {
		samePairs(t, a.G, b.G)
	}
}

// TestLegacyRngStillDeterministic keeps the pre-Workers call shape
// (seeding via Params.Rng) reproducible.
func TestLegacyRngStillDeterministic(t *testing.T) {
	g := gen.HolmeKim(randx.New(8), 200, 3, 0.2)
	run := func(r *rand.Rand) *Result {
		res, err := Obfuscate(context.Background(), g, Params{K: 3, Eps: 0.15, Trials: 2, Delta: 1e-3, Rng: r})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(randx.New(77)), run(randx.New(77))
	if a.Sigma != b.Sigma || a.EpsTilde != b.EpsTilde {
		t.Fatalf("legacy Rng seeding not reproducible: (%v,%v) vs (%v,%v)",
			a.Sigma, a.EpsTilde, b.Sigma, b.EpsTilde)
	}
	samePairs(t, a.G, b.G)
}

// countingProperty wraps a Property and counts its Values calls.
type countingProperty struct {
	Property
	calls atomic.Int32
}

func (p *countingProperty) Values(g *graph.Graph) []int {
	p.calls.Add(1)
	return p.Property.Values(g)
}

// TestObfuscatePropertyValuesOncePerRun is the regression for the
// P2/P3 interning race: Values appends to the property's dictionary,
// and each concurrently running σ probe used to call it while other
// probes read the dictionary through Distance (an index-out-of-range
// panic, and a -race report). Values must run exactly once per
// Obfuscate run, before any probe starts, and the speculative parallel
// search must still match the sequential one.
func TestObfuscatePropertyValuesOncePerRun(t *testing.T) {
	g := testGraph(22, 250)
	for name, mk := range map[string]func() Property{
		"P2": func() Property { return NewNeighborhoodDegreeProperty() },
		"P3": func() Property { return NewRadiusOneProperty() },
	} {
		t.Run(name, func(t *testing.T) {
			var runs []*Result
			for _, workers := range []int{1, 4} {
				prop := &countingProperty{Property: mk()}
				res, err := Obfuscate(context.Background(), g, Params{
					K: 5, Eps: 0.12, Trials: 2, Delta: 1e-3,
					Seed: 23, Workers: workers, Property: prop,
				})
				if err != nil {
					t.Fatal(err)
				}
				if n := prop.calls.Load(); n != 1 {
					t.Errorf("workers=%d: Property.Values called %d times, want once per run", workers, n)
				}
				runs = append(runs, res)
			}
			if runs[0].Sigma != runs[1].Sigma || runs[0].EpsTilde != runs[1].EpsTilde {
				t.Errorf("σ/ε̃ differ across workers: %v/%v vs %v/%v",
					runs[0].Sigma, runs[0].EpsTilde, runs[1].Sigma, runs[1].EpsTilde)
			}
			samePairs(t, runs[0].G, runs[1].G)
		})
	}
}
