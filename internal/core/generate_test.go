package core

import (
	"math"
	"math/rand"
	"testing"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

func TestSelectCandidatesExactTarget(t *testing.T) {
	g := testGraph(31, 200)
	values := DegreeProperty{}.Values(g)
	uniq := UniquenessScores(values, DegreeProperty{}.Distance, 0.5)
	alias := randx.NewAlias(uniq)
	if alias == nil {
		t.Fatal("alias construction failed")
	}
	a := &trialArena{}
	for _, target := range []int{g.NumEdges(), 2 * g.NumEdges(), 3 * g.NumEdges()} {
		ec, ok := newEdgeTable(g, target).selectCandidates(a, alias, make([]bool, g.NumVertices()), randx.New(32))
		if !ok {
			t.Fatalf("selection failed for target %d", target)
		}
		if len(ec) != target {
			t.Errorf("|E_C| = %d, want %d", len(ec), target)
		}
		// No duplicates and flags must match the graph.
		seen := map[int64]bool{}
		for _, c := range ec {
			key := graph.PairKey(int(c.u), int(c.v), g.NumVertices())
			if seen[key] {
				t.Fatal("duplicate candidate")
			}
			seen[key] = true
			if c.isEdge != g.HasEdge(int(c.u), int(c.v)) {
				t.Fatal("isEdge flag wrong")
			}
		}
	}
}

// selectCandidatesMap is lines 6-12 as they ran before the pair table:
// a map[int64]int32 position index, a map[int]bool H set and
// g.HasEdge. It is the reference the table-based selection must match,
// E_C order included.
func selectCandidatesMap(g *graph.Graph, aliasQ *randx.Alias, inH map[int]bool, target int, rng *rand.Rand) ([]candidate, bool) {
	n := g.NumVertices()
	ec := make([]candidate, 0, target+16)
	index := make(map[int64]int32, target+16)
	g.ForEachEdge(func(u, v int) {
		index[graph.PairKey(u, v, n)] = int32(len(ec))
		ec = append(ec, candidate{u: int32(u), v: int32(v), isEdge: true})
	})
	maxDraws := 400*(target+16) + 4096
	for draws := 0; len(ec) != target; draws++ {
		if draws > maxDraws {
			return nil, false
		}
		u := aliasQ.Draw(rng)
		v := aliasQ.Draw(rng)
		if u == v || inH[u] || inH[v] {
			continue
		}
		key := graph.PairKey(u, v, n)
		if g.HasEdge(u, v) {
			if pos, ok := index[key]; ok {
				last := int32(len(ec) - 1)
				moved := ec[last]
				ec[pos] = moved
				index[graph.PairKey(int(moved.u), int(moved.v), n)] = pos
				ec = ec[:last]
				delete(index, key)
			}
		} else {
			if _, ok := index[key]; !ok {
				index[key] = int32(len(ec))
				uu, vv := u, v
				if uu > vv {
					uu, vv = vv, uu
				}
				ec = append(ec, candidate{u: int32(uu), v: int32(vv), isEdge: false})
			}
		}
	}
	return ec, true
}

// TestSelectCandidatesMatchesMapReference pins the pair table's
// exactness: from identical RNG streams the table-based selection
// returns the map reference's E_C, order included, for c = 1 and c = 2,
// dense graphs (where edges often move inside E_C before they are
// drawn again), the complete-graph clamp, and H-excluded vertices. One arena serves
// every case, tables of different sizes included, as the arenas of a
// run do.
func TestSelectCandidatesMatchesMapReference(t *testing.T) {
	a := &trialArena{}
	complete := gen.ErdosRenyiGNP(randx.New(35), 14, 1)
	nearComplete := gen.ErdosRenyiGNP(randx.New(36), 14, 0.9)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		c     float64
		hSize int
	}{
		{"c=1", testGraph(41, 300), 1, 0},
		{"c=2", testGraph(42, 300), 2, 0},
		{"c=2/H", testGraph(43, 300), 2, 15},
		{"c=3/H", testGraph(44, 500), 3, 25},
		{"dense", gen.ErdosRenyiGNP(randx.New(37), 12, 0.4), 1.5, 0},
		{"dense/H", gen.ErdosRenyiGNP(randx.New(38), 16, 0.3), 1.6, 1},
		{"complete-clamp", complete, 3, 0},
		{"near-complete-clamp", nearComplete, 3, 0},
		{"near-complete-clamp/H", nearComplete, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.NumVertices()
			uniq := UniquenessScores(DegreeProperty{}.Values(g), DegreeProperty{}.Distance, 0.5)
			inH := topUniqueSet(uniq, tc.hSize)
			inHMap := map[int]bool{}
			weights := make([]float64, n)
			for v, u := range uniq {
				if inH[v] {
					inHMap[v] = true
				} else {
					weights[v] = u
				}
			}
			alias := randx.NewAlias(weights)
			target := int(math.Round(tc.c * float64(g.NumEdges())))
			target = min(target, n*(n-1)/2)
			table := newEdgeTable(g, target)
			for seed := int64(1); seed <= 20; seed++ {
				want, wantOK := selectCandidatesMap(g, alias, inHMap, target, randx.New(seed))
				got, ok := table.selectCandidates(a, alias, inH, randx.New(seed))
				if ok != wantOK || len(got) != len(want) {
					t.Fatalf("seed %d: ok=%v |E_C|=%d, reference ok=%v |E_C|=%d", seed, ok, len(got), wantOK, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: E_C[%d] = %+v, reference %+v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestGenerateObfuscationAllWhiteNoise(t *testing.T) {
	// q=1: every perturbation is uniform; probabilities stay valid and
	// heavy noise is injected.
	g := testGraph(33, 150)
	att := GenerateObfuscation(g, 0.01, Params{K: 2, Eps: 0.5, Q: 1, Trials: 1, Seed: 9005749761689705215})
	if att.Failed() {
		t.Skip("all-white-noise attempt can miss a strict target; not the point here")
	}
	var sum float64
	for _, pr := range att.G.Pairs() {
		if pr.P < 0 || pr.P > 1 {
			t.Fatalf("invalid probability %v", pr.P)
		}
		sum += pr.P
	}
	// Uniform perturbations mean the expected edge probability over
	// original edges is ~0.5, far below the low-sigma regime.
	avg := sum / float64(att.G.NumPairs())
	if avg > 0.6 || avg < 0.2 {
		t.Errorf("average probability %v, want ~0.4 under pure white noise", avg)
	}
}

func TestGenerateObfuscationCompleteGraphClampsTarget(t *testing.T) {
	// On (nearly) complete graphs, c|E| exceeds C(n,2); the target must
	// clamp instead of looping forever.
	g := gen.ErdosRenyiGNP(randx.New(35), 14, 1)
	att := GenerateObfuscation(g, 0.3, Params{K: 2, Eps: 0.4, C: 3, Trials: 1, Seed: 562108776949057970})
	if att.Failed() {
		t.Skip("tiny complete graph may not be obfuscatable; the loop-termination is what matters")
	}
	if att.G.NumPairs() > 14*13/2 {
		t.Fatalf("|E_C| = %d exceeds pair count", att.G.NumPairs())
	}
}

func TestGenerateObfuscationZeroEps(t *testing.T) {
	// eps = 0: H is empty and every vertex must be obfuscated. On a
	// graph of clones that is satisfiable even at low k.
	b := graph.NewBuilder(40)
	for i := 0; i < 40; i += 2 {
		b.AddEdge(i, i+1)
	}
	g := b.Build() // perfect matching: all degrees 1
	att := GenerateObfuscation(g, 0.2, Params{K: 4, Eps: 0, Trials: 2, Seed: 5677982989783584400})
	if att.Failed() {
		t.Fatal("matching graph should obfuscate at k=4 eps=0")
	}
	if att.EpsTilde != 0 {
		t.Errorf("EpsTilde = %v, want 0", att.EpsTilde)
	}
}

func TestWithDefaultsPaperValues(t *testing.T) {
	p := Params{}.withDefaults()
	if p.C != 2 || p.Trials != 5 || p.Delta != 1e-8 || p.SigmaInit != 1 {
		t.Errorf("defaults = %+v", p)
	}
	if p.Property == nil {
		t.Error("nil property not defaulted")
	}
	if got := p.resolveSeed(); got != 1 {
		t.Errorf("zero-value params resolve seed %d, want the historical 1", got)
	}
	if got := (Params{Seed: 7}).resolveSeed(); got != 7 {
		t.Errorf("explicit seed resolves to %d, want 7", got)
	}
	// Explicit sub-1 C clamps to 1, not to the default.
	if got := (Params{C: 0.5}).withDefaults().C; got != 1 {
		t.Errorf("C=0.5 clamps to %v, want 1", got)
	}
}

func TestAttemptFailed(t *testing.T) {
	if !(Attempt{EpsTilde: math.Inf(1)}).Failed() {
		t.Error("infinite EpsTilde should mean failure")
	}
	if (Attempt{EpsTilde: 0.01}).Failed() {
		t.Error("finite EpsTilde is success")
	}
}

// randomPairs draws a candidate set on n vertices in random order, each
// pair with either orientation: vertex 0 is a hub of up to 45 pairs,
// the last three vertices stay isolated, and about a quarter of the
// probabilities are exactly 0 or 1.
func randomPairs(rng *rand.Rand, n int) []uncertain.Pair {
	live := n - 3
	seen := make(map[int64]bool)
	var pairs []uncertain.Pair
	add := func(u, v int) {
		key := graph.PairKey(u, v, n)
		if u == v || seen[key] {
			return
		}
		seen[key] = true
		p := rng.Float64()
		switch rng.Intn(8) {
		case 0:
			p = 0
		case 1:
			p = 1
		}
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: p})
	}
	for v := 1; v < live && v <= 45; v++ {
		add(0, v)
	}
	for i := 0; i < 2*live; i++ {
		add(rng.Intn(live), rng.Intn(live))
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// TestIncidenceMatchesGraph pins the trial scan's incidence lists
// against the graph uncertain.New builds from the same pairs: every
// column measure, ε', and every vertex's degree law through the
// Incidence interface are bit-identical, at exact thresholds that put
// the hub on either side of the exact DP and at one and several scan
// workers. One incidence is reused across the pair sets, growing and
// shrinking, as a trial arena reuses it.
func TestIncidenceMatchesGraph(t *testing.T) {
	rng := randx.New(61)
	var inc incidence
	for _, n := range []int{40, 1200, 7, 600} {
		pairs := randomPairs(rng, n)
		ug, err := uncertain.New(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		inc.reset(n, pairs)
		if inc.NumVertices() != n {
			t.Fatalf("n=%d: lists cover %d vertices", n, inc.NumVertices())
		}
		values := make([]int, n)
		for v := range values {
			values[v] = rng.Intn(50)
		}
		omegas := append(adversary.DistinctValues(values), 1<<20)
		for _, threshold := range []int{0, 1, 1 << 20} {
			for _, workers := range []int{1, 3} {
				lists := adversary.UncertainModel{G: &inc, ExactThreshold: threshold, Workers: workers}
				built := adversary.UncertainModel{G: ug, ExactThreshold: threshold, Workers: workers}
				for name, measure := range map[string]func(adversary.Model, []int) map[int]float64{
					"entropy": adversary.ColumnEntropies,
					"belief":  adversary.ColumnBeliefLevels,
				} {
					got, want := measure(lists, omegas), measure(built, omegas)
					for _, omega := range omegas {
						if math.Float64bits(got[omega]) != math.Float64bits(want[omega]) {
							t.Errorf("n=%d threshold=%d workers=%d ω=%d: %s %v over the lists, %v over the graph",
								n, threshold, workers, omega, name, got[omega], want[omega])
						}
					}
				}
				for _, k := range []float64{2, 5} {
					got := adversary.NotObfuscatedFraction(lists, values, k)
					want := adversary.NotObfuscatedFraction(built, values, k)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("n=%d threshold=%d workers=%d k=%v: ε' %v over the lists, %v over the graph",
							n, threshold, workers, k, got, want)
					}
				}
			}
			lists := adversary.UncertainModel{G: &inc, ExactThreshold: threshold}
			for v := 0; v < n; v++ {
				got, want := lists.VertexX(v), ug.DegreeDist(v, threshold)
				for k := -1; k <= ug.IncidentCount(v)+1; k++ {
					if math.Float64bits(got.Prob(k)) != math.Float64bits(want.Prob(k)) {
						t.Fatalf("n=%d threshold=%d v=%d k=%d: VertexX %v, DegreeDist %v",
							n, threshold, v, k, got.Prob(k), want.Prob(k))
					}
				}
			}
		}
	}
}
