package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/randx"
)

// testGraph returns a small power-law-ish graph that is cheap to
// obfuscate in tests.
func testGraph(seed int64, n int) *graph.Graph {
	return gen.HolmeKim(randx.New(seed), n, 3, 0.3)
}

func TestGenerateObfuscationCandidateSetSize(t *testing.T) {
	g := testGraph(1, 300)
	params := Params{K: 5, Eps: 0.05, C: 2, Q: 0.01, Trials: 1, Seed: 1543039099823358511}
	att := GenerateObfuscation(g, 0.5, params)
	if att.Failed() {
		t.Fatal("expected success at sigma=0.5")
	}
	want := int(math.Round(2 * float64(g.NumEdges())))
	if got := att.G.NumPairs(); got != want {
		t.Errorf("|E_C| = %d, want %d", got, want)
	}
}

func TestGenerateObfuscationProbabilitiesValid(t *testing.T) {
	g := testGraph(3, 200)
	params := Params{K: 4, Eps: 0.05, C: 2, Q: 0.05, Trials: 1, Seed: 2244708090865615074}
	att := GenerateObfuscation(g, 0.3, params)
	if att.Failed() {
		t.Fatal("expected success")
	}
	nEdgesKept := 0
	for _, pr := range att.G.Pairs() {
		if pr.P < 0 || pr.P > 1 {
			t.Fatalf("probability %v outside [0,1]", pr.P)
		}
		if g.HasEdge(pr.U, pr.V) {
			nEdgesKept++
		}
	}
	// E_C starts as E; with c=2 and few removals, nearly all original
	// edges remain candidates.
	if float64(nEdgesKept) < 0.8*float64(g.NumEdges()) {
		t.Errorf("only %d/%d original edges in E_C", nEdgesKept, g.NumEdges())
	}
}

func TestGenerateObfuscationEdgeProbsSkewHigh(t *testing.T) {
	// With small sigma, original edges should keep p close to 1 and
	// added pairs close to 0 (modulo the q white-noise fraction).
	g := testGraph(5, 300)
	params := Params{K: 2, Eps: 0.2, C: 2, Q: 0.01, Trials: 1, Seed: 3305628230121721621}
	att := GenerateObfuscation(g, 0.05, params)
	if att.Failed() {
		t.Fatal("expected success")
	}
	var edgeP, nonEdgeP float64
	var edges, nonEdges int
	for _, pr := range att.G.Pairs() {
		if g.HasEdge(pr.U, pr.V) {
			edgeP += pr.P
			edges++
		} else {
			nonEdgeP += pr.P
			nonEdges++
		}
	}
	if edges == 0 || nonEdges == 0 {
		t.Fatal("expected both edges and non-edges in E_C")
	}
	if avg := edgeP / float64(edges); avg < 0.9 {
		t.Errorf("average p over original edges = %v, want > 0.9", avg)
	}
	if avg := nonEdgeP / float64(nonEdges); avg > 0.1 {
		t.Errorf("average p over added pairs = %v, want < 0.1", avg)
	}
}

func TestObfuscateSatisfiesIndependentVerifier(t *testing.T) {
	// On a 400-vertex graph the structurally unobfuscatable hub tail is
	// a few percent of vertices (in the paper's million-vertex graphs
	// the same tail is ~1e-4 of n), so eps must be sized accordingly.
	g := testGraph(7, 400)
	params := Params{K: 10, Eps: 0.08, C: 2, Q: 0.01, Trials: 3, Delta: 1e-4, Seed: 4151935814835861840}
	res, err := Obfuscate(context.Background(), g, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsTilde > params.Eps {
		t.Errorf("EpsTilde = %v > eps = %v", res.EpsTilde, params.Eps)
	}
	// Re-verify with the adversary model, independently of the
	// algorithm's own bookkeeping.
	model := adversary.UncertainModel{G: res.G}
	if !adversary.IsKEpsObfuscation(model, g.Degrees(), params.K, params.Eps) {
		t.Error("returned graph fails independent (k,eps) verification")
	}
	if res.Sigma <= 0 || res.Sigma > 1 {
		t.Errorf("sigma = %v outside (0, 1]", res.Sigma)
	}
	if res.Generations == 0 || res.Trials < res.Generations {
		t.Errorf("bookkeeping: generations=%d trials=%d", res.Generations, res.Trials)
	}
}

func TestObfuscateHarderRequirementNeedsMoreNoise(t *testing.T) {
	// Larger k (or smaller eps) must not yield smaller sigma, the trend
	// of paper Table 2. Randomness can blur single comparisons, so
	// compare a low and a high requirement far apart.
	g := testGraph(9, 400)
	easy, err := Obfuscate(context.Background(), g, Params{K: 3, Eps: 0.1, C: 2, Q: 0.01, Trials: 2, Delta: 1e-4, Seed: 5221277731205826435})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Obfuscate(context.Background(), g, Params{K: 40, Eps: 0.1, C: 2, Q: 0.01, Trials: 2, Delta: 1e-4, Seed: 5221277731205826435})
	if err != nil {
		t.Fatal(err)
	}
	if hard.Sigma < easy.Sigma {
		t.Errorf("sigma(k=40) = %v < sigma(k=3) = %v", hard.Sigma, easy.Sigma)
	}
}

func TestObfuscateParamValidation(t *testing.T) {
	g := testGraph(11, 50)
	if _, err := Obfuscate(context.Background(), g, Params{K: 0.5, Eps: 0.1}); err == nil {
		t.Error("k < 1 should error")
	}
	if _, err := Obfuscate(context.Background(), g, Params{K: 2, Eps: 1.5}); err == nil {
		t.Error("eps >= 1 should error")
	}
	empty := graph.NewBuilder(10).Build()
	if _, err := Obfuscate(context.Background(), empty, Params{K: 2, Eps: 0.1}); err == nil {
		t.Error("empty graph should error")
	}
}

func TestObfuscateImpossibleRequirementFails(t *testing.T) {
	// k larger than the vertex count is unattainable: H(Y) <= log2(n).
	g := testGraph(12, 60)
	_, err := Obfuscate(context.Background(), g, Params{K: 1000, Eps: 0, C: 2, Trials: 1, Delta: 1e-2, MaxSigma: 8, Seed: 1867598462707500820})
	if err == nil {
		t.Fatal("expected ErrNoObfuscation")
	}
}

func TestObfuscateDeterministicForSeed(t *testing.T) {
	g := testGraph(14, 200)
	run := func() *Result {
		res, err := Obfuscate(context.Background(), g, Params{K: 5, Eps: 0.02, C: 2, Q: 0.01, Trials: 2, Delta: 1e-3, Seed: 2431074399724039541})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Sigma != b.Sigma || a.EpsTilde != b.EpsTilde || a.G.NumPairs() != b.G.NumPairs() {
		t.Error("same seed must reproduce the same result")
	}
}

func TestTopUniqueSet(t *testing.T) {
	uniq := []float64{0.1, 5, 3, 5, 0.2}
	members := func(set []bool) int {
		k := 0
		for _, in := range set {
			if in {
				k++
			}
		}
		return k
	}
	set := topUniqueSet(uniq, 2)
	if len(set) != len(uniq) || !set[1] || !set[3] || members(set) != 2 {
		t.Errorf("top-2 = %v, want {1,3}", set)
	}
	if set := topUniqueSet(uniq, 0); len(set) != len(uniq) || members(set) != 0 {
		t.Error("count 0 should give empty set")
	}
	if members(topUniqueSet(uniq, 10)) != 5 {
		t.Error("count > len should cap")
	}
}

func TestHExclusionRespected(t *testing.T) {
	// Pairs incident to H vertices must not be touched: all candidate
	// pairs added beyond E avoid H, and original edges incident to H
	// stay in E_C with their perturbation drawn as usual. We verify the
	// weaker, directly-specified property: no *added* pair touches H.
	g := testGraph(15, 300)
	values := DegreeProperty{}.Values(g)
	params := Params{K: 5, Eps: 0.2, C: 2, Q: 0.01, Trials: 1, Seed: 8983684945297836708}
	sigma := 0.3
	uniq := UniquenessScores(values, DegreeProperty{}.Distance, sigma)
	hSize := int(math.Ceil(params.Eps / 2 * float64(g.NumVertices())))
	inH := topUniqueSet(uniq, hSize)
	att := GenerateObfuscation(g, sigma, params)
	if att.Failed() {
		t.Fatal("expected success")
	}
	for _, pr := range att.G.Pairs() {
		if !g.HasEdge(pr.U, pr.V) && (inH[pr.U] || inH[pr.V]) {
			t.Fatalf("added pair (%d,%d) touches excluded vertex", pr.U, pr.V)
		}
	}
}

// TestObfuscateRejectsNonFiniteParams pins core's own non-finite check,
// for callers that bypass the facade: Obfuscate returns an error (not a
// context error: the deadline only keeps a stalled search from hanging)
// for a NaN or infinite C, Delta, SigmaInit or MaxSigma, and
// GenerateObfuscation reports a failed attempt instead of panicking.
func TestObfuscateRejectsNonFiniteParams(t *testing.T) {
	g := testGraph(51, 300)
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Params{
		{C: nan}, {C: inf}, {C: -inf},
		{Delta: nan}, {Delta: inf},
		{SigmaInit: nan}, {SigmaInit: inf},
		{C: 1, MaxSigma: nan}, {MaxSigma: inf},
	} {
		name, v := NonFinite(p)
		if name == "" {
			t.Fatalf("NonFinite(%+v) found nothing", p)
		}
		t.Run(fmt.Sprintf("%s=%v", name, v), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			p.K, p.Eps, p.Trials, p.Seed = 5, 0.05, 1, 1
			_, err := Obfuscate(ctx, g, p)
			if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "must be finite") {
				t.Errorf("Obfuscate(%+v) err = %v, want a non-finite rejection", p, err)
			}
		})
	}
	if !GenerateObfuscation(g, 0.5, Params{K: 5, Eps: 0.05, C: nan, Trials: 1, Seed: 1}).Failed() {
		t.Error("GenerateObfuscation with C = NaN did not fail")
	}
	if name, _ := NonFinite(Params{C: 0.5}); name != "" {
		t.Errorf("finite params flagged: %s", name)
	}
}

// settledGoroutines polls until the goroutine count is back at base or
// a deadline passes, and returns the last count: a joined goroutine may
// take a moment to leave the runtime's count.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestObfuscateReraisesTrialPanic pins the panic path of a trial. At
// Workers 2 the trials run on parallel.For's goroutines, and a
// trial's panic reaches Obfuscate's caller as a *parallel.WorkerPanic
// carrying its value and stack, instead of ending the process from a
// bare goroutine. At Workers 1 every trial runs inline on the caller's
// goroutine, so the panic arrives unchanged. Either way no goroutine
// outlives the call.
func TestObfuscateReraisesTrialPanic(t *testing.T) {
	g := testGraph(14, 200)
	for _, workers := range []int{1, 2} {
		base := runtime.NumGoroutine()
		params := Params{K: 5, Eps: 0.02, C: 2, Q: 0.01, Trials: 2, Delta: 1e-3, Seed: 1, Workers: workers}
		params.beforeTrial = func(sigma float64, trial int) {
			panic(fmt.Sprintf("trial %d at sigma %v", trial, sigma))
		}
		caught := func() (v any) {
			defer func() { v = recover() }()
			_, _ = Obfuscate(context.Background(), g, params)
			return nil
		}()
		value := caught
		if workers > 1 {
			wp, ok := caught.(*parallel.WorkerPanic)
			if !ok {
				t.Fatalf("workers=%d: recovered %T (%v), want *parallel.WorkerPanic", workers, caught, caught)
			}
			if len(wp.Stack) == 0 {
				t.Errorf("workers=%d: WorkerPanic carries no stack", workers)
			}
			value = wp.Value
		}
		if s, _ := value.(string); !strings.HasPrefix(s, "trial ") {
			t.Errorf("workers=%d: recovered %T (%v), want the trial's own panic value", workers, value, value)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("workers=%d: goroutines: %d before, %d after the panic", workers, base, n)
		}
	}
}

// TestObfuscateConsumesEveryProbe pins that the search starts no probe
// it does not consume and no trial twice: the distinct σ values the
// trials see are exactly the Generations probes; each σ starts a prefix
// of its t trials, each once; and the published σ starts all t. At one
// worker the trials started are exactly the Trials counted. At several,
// a probe may also start trials that were claimed before its first
// success landed, up to one fewer than the trials in flight.
func TestObfuscateConsumesEveryProbe(t *testing.T) {
	g := testGraph(14, 200)
	const trials = 3
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		started := make(map[float64][]int) // σ -> trial indices started
		calls := 0
		params := Params{K: 5, Eps: 0.02, Trials: trials, Delta: 1e-3, Seed: 1, Workers: workers}
		params.beforeTrial = func(sigma float64, trial int) {
			mu.Lock()
			started[sigma] = append(started[sigma], trial)
			calls++
			mu.Unlock()
		}
		res, err := Obfuscate(context.Background(), g, params)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(started) != res.Generations {
			t.Errorf("workers=%d: trials saw %d σ values; the search consumed %d probes", workers, len(started), res.Generations)
		}
		for sigma, idx := range started {
			sort.Ints(idx)
			for i, trial := range idx {
				if trial != i {
					t.Errorf("workers=%d σ=%v: trials started %v, want each of a prefix of [0, %d) once", workers, sigma, idx, trials)
					break
				}
			}
		}
		if n := len(started[res.Sigma]); n != trials {
			t.Errorf("workers=%d: the published σ %v started %d trials, want all %d", workers, res.Sigma, n, trials)
		}
		slack := 0
		if workers > 1 {
			slack = (min(workers, trials) - 1) * res.Generations
		}
		if calls < res.Trials || calls > res.Trials+slack {
			t.Errorf("workers=%d: started %d trials; the search consumed %d (allowed up to %d more)", workers, calls, res.Trials, slack)
		}
	}
}

// eagerObfuscate is the reference schedule of Algorithm 1: every probe
// runs all t trials in order, through the engine's own per-trial
// function, and keeps the best of t, and the search publishes the last
// success. Its Trials is the count the per-trial outcomes give a
// sequential search that decides each probe at its first success and
// completes best-of-t for the published probe only.
func eagerObfuscate(t *testing.T, g *graph.Graph, params Params) *Result {
	t.Helper()
	params = params.withDefaults()
	params.Seed = params.resolveSeed()
	r := newRun(g, params)
	res := &Result{}
	lastFirst := 0 // first successful trial of the published probe
	consume := func(sigma float64) bool {
		p := newProbe(r, sigma)
		best, first := Attempt{EpsTilde: math.Inf(1)}, params.Trials
		for i := 0; i < params.Trials && p.aliasQ != nil; i++ {
			att := p.trial(nil, i, 1)
			if att.Failed() {
				continue
			}
			first = min(first, i)
			if att.EpsTilde < best.EpsTilde {
				best = att
			}
		}
		res.Generations++
		res.Trials += min(first+1, params.Trials)
		if best.Failed() {
			return false
		}
		res.Sigma, res.EpsTilde, res.G, lastFirst = sigma, best.EpsTilde, best.G, first
		return true
	}
	sigmaU := params.SigmaInit
	for !consume(sigmaU) {
		if sigmaU *= 2; sigmaU > params.MaxSigma {
			t.Fatal("reference: no obfuscation up to MaxSigma")
		}
	}
	for sigmaL := 0.0; sigmaL+params.Delta < sigmaU; {
		if sigma := (sigmaL + sigmaU) / 2; consume(sigma) {
			sigmaU = sigma
		} else {
			sigmaL = sigma
		}
	}
	res.Trials += params.Trials - (lastFirst + 1)
	return res
}

// TestObfuscateMatchesEagerSearch pins that deciding each probe at its
// first successful trial, and running best-of-t only for the published
// probe, changes nothing but the work: against the eager reference,
// Obfuscate returns the same σ, ε̃, Generations and published pairs,
// and Trials equals the count the reference derives from its per-trial
// outcomes, at every worker count.
func TestObfuscateMatchesEagerSearch(t *testing.T) {
	for name, g := range equivFamilies(29) {
		for seed := int64(1); seed <= 5; seed++ {
			params := Params{K: 4, Eps: 0.1, C: 2, Q: 0.01, Trials: 4, Delta: 1e-3, Seed: seed}
			want := eagerObfuscate(t, g, params)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", name, seed, workers), func(t *testing.T) {
					params.Workers = workers
					got, err := Obfuscate(context.Background(), g, params)
					if err != nil {
						t.Fatal(err)
					}
					if got.Sigma != want.Sigma || got.EpsTilde != want.EpsTilde ||
						got.Generations != want.Generations || got.Trials != want.Trials {
						t.Errorf("(σ, ε̃, probes, trials) = (%v, %v, %d, %d), eager search (%v, %v, %d, %d)",
							got.Sigma, got.EpsTilde, got.Generations, got.Trials,
							want.Sigma, want.EpsTilde, want.Generations, want.Trials)
					}
					samePairs(t, got.G, want.G)
				})
			}
		}
	}
}
