// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// benchmark reports, via custom metrics, the quantity the design choice
// trades off — utility error, achieved anonymity, or accuracy — next to
// the usual time/op, so `go test -bench=Ablation` doubles as an
// ablation study:
//
//   - uniqueness-proportional σ(e) redistribution (Eq. 7) vs uniform σ;
//   - the H-set exclusion of the ⌈ε/2·n⌉ most unique vertices;
//   - the white-noise fraction q;
//   - exact Poisson-binomial DP vs the CLT approximation;
//   - HyperANF vs exact BFS distance distributions;
//   - the entropy measure vs the a-posteriori belief measure.
package uncertaingraph_test

import (
	"math"
	"testing"

	ug "uncertaingraph"
	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/anf"
	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/pbinom"
	"uncertaingraph/internal/uncertain"
)

func ablationGraph(b *testing.B) *ug.Graph {
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	return d.Graph
}

// notObfuscated returns the fraction of vertices not k-obfuscated.
func notObfuscated(g *ug.Graph, u *uncertain.Graph, k float64) float64 {
	return adversary.NotObfuscatedFraction(adversary.UncertainModel{G: u}, g.Degrees(), k)
}

// uniformProperty collapses every vertex to one property value, which
// makes all uniqueness scores equal: σ(e) redistribution (Eq. 7) and
// Q-weighted candidate sampling both degenerate to uniform. Comparing
// against the real degree property isolates the paper's
// uniqueness-guided noise placement.
type uniformProperty struct{}

func (uniformProperty) Name() string { return "uniform" }
func (uniformProperty) Values(g *ug.Graph) []int {
	return make([]int, g.NumVertices())
}
func (uniformProperty) Distance(a, b int) float64 { return float64(a - b) }

// BenchmarkAblationSigmaRedistribution compares the achieved
// non-obfuscated fraction at a fixed noise budget with and without
// uniqueness-proportional redistribution. The reported metrics
// eps_guided and eps_uniform show guided placement obfuscating more
// vertices for the same average σ.
func BenchmarkAblationSigmaRedistribution(b *testing.B) {
	g := ablationGraph(b)
	sigma := 0.05
	var guided, uniform float64
	n := 0
	for i := 0; i < b.N; i++ {
		pg := core.Params{K: 10, Eps: 0.99, Trials: 1, Seed: ug.NewRand(int64(i)).Int63()}
		ag := core.GenerateObfuscation(g, sigma, pg)
		pu := pg
		pu.Property = uniformProperty{}
		pu.Seed = ug.NewRand(int64(i)).Int63()
		au := core.GenerateObfuscation(g, sigma, pu)
		if !ag.Failed() && !au.Failed() {
			guided += ag.EpsTilde
			uniform += au.EpsTilde
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(guided/float64(n), "eps_guided")
		b.ReportMetric(uniform/float64(n), "eps_uniform")
	}
}

// BenchmarkAblationWhiteNoise sweeps the q parameter and reports the
// achieved eps and the expected edge distortion: more white noise helps
// privacy but costs utility (Section 5.1's q discussion).
func BenchmarkAblationWhiteNoise(b *testing.B) {
	g := ablationGraph(b)
	for _, q := range []float64{0, 0.01, 0.1} {
		b.Run(qLabel(q), func(b *testing.B) {
			var eps, distortion float64
			n := 0
			for i := 0; i < b.N; i++ {
				params := core.Params{K: 10, Eps: 0.99, Q: q, Trials: 1, Seed: ug.NewRand(int64(i)).Int63()}
				att := core.GenerateObfuscation(g, 0.05, params)
				if att.Failed() {
					continue
				}
				eps += notObfuscated(g, att.G, 10)
				distortion += math.Abs(att.G.ExpectedNumEdges()-float64(g.NumEdges())) / float64(g.NumEdges())
				n++
			}
			if n > 0 {
				b.ReportMetric(eps/float64(n), "eps_achieved")
				b.ReportMetric(distortion/float64(n), "edge_distortion")
			}
		})
	}
}

func qLabel(q float64) string {
	switch q {
	case 0:
		return "q=0"
	case 0.01:
		return "q=0.01"
	default:
		return "q=0.10"
	}
}

// BenchmarkAblationExactVsApproxDegreeDist compares the exact Lemma 1
// DP against the CLT approximation on the adversary check: the
// approximation is faster per vertex at high incident counts with
// near-identical ε̃ (reported as eps_exact / eps_approx).
func BenchmarkAblationExactVsApproxDegreeDist(b *testing.B) {
	g := ablationGraph(b)
	att := core.GenerateObfuscation(g, 0.1, core.Params{K: 10, Eps: 0.99, Trials: 1, Seed: 5577006791947779410})
	if att.Failed() {
		b.Fatal("setup failed")
	}
	degrees := g.Degrees()
	b.Run("exact", func(b *testing.B) {
		m := adversary.UncertainModel{G: att.G, ExactThreshold: 1 << 20}
		var eps float64
		for i := 0; i < b.N; i++ {
			eps = adversary.NotObfuscatedFraction(m, degrees, 10)
		}
		b.ReportMetric(eps, "eps_exact")
	})
	b.Run("clt30", func(b *testing.B) {
		m := adversary.UncertainModel{G: att.G, ExactThreshold: pbinom.DefaultExactThreshold}
		var eps float64
		for i := 0; i < b.N; i++ {
			eps = adversary.NotObfuscatedFraction(m, degrees, 10)
		}
		b.ReportMetric(eps, "eps_approx")
	})
}

// BenchmarkAblationANFvsBFS compares the paper's HyperANF estimator
// against the exact BFS oracle: time/op shows the scalability gap, the
// apd_rel_err metric the accuracy cost.
func BenchmarkAblationANFvsBFS(b *testing.B) {
	g := ablationGraph(b)
	exact := bfs.DistanceDistribution(g).AvgDistance()
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bfs.DistanceDistribution(g)
		}
		b.ReportMetric(0, "apd_rel_err")
	})
	b.Run("anf", func(b *testing.B) {
		var err float64
		for i := 0; i < b.N; i++ {
			est := anf.DistanceDistribution(g, anf.Options{Seed: uint64(i)}).AvgDistance()
			err += math.Abs(est-exact) / exact
		}
		b.ReportMetric(err/float64(b.N), "apd_rel_err")
	})
}

// BenchmarkAblationEntropyVsBelief compares the paper's entropy measure
// against the a-posteriori belief measure on the same published graph:
// belief is strictly more pessimistic (level_belief <= level_entropy),
// which is why the entropy measure certifies more vertices at equal
// noise (the Bonchi et al. argument the paper builds on).
func BenchmarkAblationEntropyVsBelief(b *testing.B) {
	g := ablationGraph(b)
	att := core.GenerateObfuscation(g, 0.1, core.Params{K: 10, Eps: 0.99, Trials: 1, Seed: 1543039099823358511})
	if att.Failed() {
		b.Fatal("setup failed")
	}
	m := adversary.UncertainModel{G: att.G}
	degrees := g.Degrees()
	var entMed, belMed float64
	for i := 0; i < b.N; i++ {
		ent := adversary.ObfuscationLevels(m, degrees)
		bel := adversary.BeliefLevels(m, degrees)
		entMed = median(ent)
		belMed = median(bel)
	}
	b.ReportMetric(entMed, "median_entropy_level")
	b.ReportMetric(belMed, "median_belief_level")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// BenchmarkAblationHExclusion compares Algorithm 2 with and without the
// H-set (the ⌈ε/2·n⌉ most unique vertices excluded from perturbation).
// The exclusion is designed for the paper's regime where ε·n is a
// handful of true outlier hubs; at the scaled-up ε of the reduced
// datasets it withdraws noise from a substantial vertex fraction, and
// the measured eps_with_H / eps_without_H metrics quantify that
// trade-off — an instance where a heuristic's benefit is
// regime-dependent, worth knowing before tuning ε.
func BenchmarkAblationHExclusion(b *testing.B) {
	g := ablationGraph(b)
	eps := 0.3
	var withH, withoutH float64
	n := 0
	for i := 0; i < b.N; i++ {
		pa := core.Params{K: 10, Eps: eps, Trials: 1, Seed: ug.NewRand(int64(i)).Int63()}
		aa := core.GenerateObfuscation(g, 0.05, pa)
		pb := pa
		pb.DisableHExclusion = true
		pb.Seed = ug.NewRand(int64(i)).Int63()
		ab := core.GenerateObfuscation(g, 0.05, pb)
		if !aa.Failed() && !ab.Failed() {
			withH += aa.EpsTilde
			withoutH += ab.EpsTilde
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(withH/float64(n), "eps_with_H")
		b.ReportMetric(withoutH/float64(n), "eps_without_H")
	}
}

// BenchmarkAblationCandidateMultiplier sweeps c: larger candidate sets
// spread noise across more pairs, trading run time for feasibility at
// hard settings (the paper's (*) cases).
func BenchmarkAblationCandidateMultiplier(b *testing.B) {
	g := ablationGraph(b)
	for _, c := range []float64{1.5, 2, 3} {
		b.Run(cLabel(c), func(b *testing.B) {
			var eps float64
			n := 0
			for i := 0; i < b.N; i++ {
				att := core.GenerateObfuscation(g, 0.05, core.Params{
					K: 10, Eps: 0.99, C: c, Trials: 1, Seed: ug.NewRand(int64(i)).Int63(),
				})
				if !att.Failed() {
					eps += att.EpsTilde
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(eps/float64(n), "eps_achieved")
			}
		})
	}
}

func cLabel(c float64) string {
	switch c {
	case 1.5:
		return "c=1.5"
	case 2:
		return "c=2"
	default:
		return "c=3"
	}
}
