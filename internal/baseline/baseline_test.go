package baseline

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

func uncertainFrom(g *graph.Graph) *uncertain.Graph { return uncertain.FromCertain(g) }

func TestSparsifyRemovalRate(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(1), 500, 5000)
	p := 0.3
	var kept float64
	const reps = 30
	for i := int64(0); i < reps; i++ {
		s := Sparsify(g, p, randx.New(100+i))
		kept += float64(s.NumEdges())
	}
	kept /= reps
	want := (1 - p) * float64(g.NumEdges())
	if math.Abs(kept-want)/want > 0.02 {
		t.Errorf("kept %v edges on average, want %v", kept, want)
	}
}

func TestSparsifySubsetOfOriginal(t *testing.T) {
	g := gen.HolmeKim(randx.New(2), 300, 3, 0.2)
	s := Sparsify(g, 0.5, randx.New(3))
	s.ForEachEdge(func(u, v int) {
		if !g.HasEdge(u, v) {
			t.Fatalf("sparsified graph invented edge (%d,%d)", u, v)
		}
	})
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSparsifyExtremes(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(4), 100, 300)
	if got := Sparsify(g, 0, randx.New(5)).NumEdges(); got != 300 {
		t.Errorf("p=0 kept %d edges, want all", got)
	}
	if got := Sparsify(g, 1, randx.New(5)).NumEdges(); got != 0 {
		t.Errorf("p=1 kept %d edges, want none", got)
	}
}

func TestPerturbPreservesExpectedEdgeCount(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(6), 400, 3000)
	p := 0.4
	var edges float64
	const reps = 30
	for i := int64(0); i < reps; i++ {
		w := Perturb(g, p, randx.New(200+i))
		edges += float64(w.NumEdges())
	}
	edges /= reps
	want := float64(g.NumEdges())
	if math.Abs(edges-want)/want > 0.02 {
		t.Errorf("perturbed edge count %v, want ~%v", edges, want)
	}
}

func TestPerturbAddsAndRemoves(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(7), 300, 2000)
	w := Perturb(g, 0.5, randx.New(8))
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	added, removed := 0, 0
	w.ForEachEdge(func(u, v int) {
		if !g.HasEdge(u, v) {
			added++
		}
	})
	g.ForEachEdge(func(u, v int) {
		if !w.HasEdge(u, v) {
			removed++
		}
	})
	if added == 0 || removed == 0 {
		t.Errorf("added=%d removed=%d; both should be positive at p=0.5", added, removed)
	}
}

func TestAddProbability(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(9), 100, 450)
	p := 0.2
	got := AddProbability(g, p)
	want := p * 450 / (100*99/2 - 450)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("AddProbability = %v, want %v", got, want)
	}
	// Complete graph: no non-edges to add.
	k := gen.ErdosRenyiGNP(randx.New(10), 10, 1)
	if AddProbability(k, 0.5) != 0 {
		t.Error("complete graph should have padd = 0")
	}
}

func TestSparsifyModelColumnsAreBinomial(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(11), 50, 200)
	p := 0.3
	pub := Sparsify(g, p, randx.New(12))
	m := NewSparsifyModel(pub, p)
	// X_u(ω) must equal the Binomial(ω, 1-p) pmf at u's published degree.
	x := m.VertexX(7)
	pubDeg := pub.Degree(7)
	for _, omega := range []int{pubDeg, pubDeg + 1, pubDeg + 5} {
		want := mathx.BinomialPMF(omega, 1-p)[pubDeg]
		if got := x.Prob(omega); math.Abs(got-want) > 1e-12 {
			t.Errorf("X(%d) = %v, want %v", omega, got, want)
		}
	}
	// Published degree above ω is impossible under pure deletion.
	if pubDeg > 0 && x.Prob(pubDeg-1) != 0 {
		t.Error("X(ω < published degree) must be 0 for sparsification")
	}
}

func TestPerturbModelColumnIsConvolution(t *testing.T) {
	n := 60
	g := gen.ErdosRenyiGNM(randx.New(13), n, 300)
	p, padd := 0.4, AddProbability(g, 0.4)
	pub := Perturb(g, p, randx.New(14))
	m := NewPerturbModel(pub, n, p, padd)
	omega := 5
	kept := mathx.BinomialPMF(omega, 1-p)
	add := mathx.BinomialPMF(n-1-omega, padd)
	conv := mathx.Convolve(kept, add)
	x := m.VertexX(3)
	d := pub.Degree(3)
	if d < len(conv) {
		if got := x.Prob(omega); math.Abs(got-conv[d]) > 1e-9 {
			t.Errorf("X(%d) = %v, want %v", omega, got, conv[d])
		}
	}
	// A perturbed vertex can exceed its original degree via additions.
	if got := x.Prob(0); d > 0 && got <= 0 {
		t.Error("X(0) should be positive when additions can explain the published degree")
	}
}

func TestBaselineModelsPlugIntoAdversary(t *testing.T) {
	g := gen.HolmeKim(randx.New(15), 400, 3, 0.3)
	p := 0.3
	pub := Sparsify(g, p, randx.New(16))
	m := NewSparsifyModel(pub, p)
	levels := adversary.ObfuscationLevels(m, g.Degrees())
	if len(levels) != 400 {
		t.Fatal("level count")
	}
	for v, level := range levels {
		if level < 1-1e-9 || math.IsNaN(level) {
			t.Fatalf("vertex %d has invalid level %v", v, level)
		}
	}
	// Sparsification must raise anonymity over the identity publication
	// for typical vertices: compare medians.
	orig := adversary.ObfuscationLevels(
		adversary.UncertainModel{G: uncertainFrom(g)}, g.Degrees())
	if median(levels) < median(orig) {
		t.Errorf("sparsification median level %v below original %v", median(levels), median(orig))
	}
}

func TestStrongerPerturbationRaisesMatchedK(t *testing.T) {
	g := gen.HolmeKim(randx.New(17), 600, 3, 0.3)
	eps := 0.05
	var prev float64
	for _, p := range []float64{0.05, 0.3, 0.7} {
		pub := Perturb(g, p, randx.New(18))
		m := NewPerturbModel(pub, g.NumVertices(), p, AddProbability(g, p))
		k := adversary.MatchedK(adversary.ObfuscationLevels(m, g.Degrees()), eps)
		if k < prev {
			t.Errorf("matched k decreased from %v to %v at p=%v", prev, k, p)
		}
		prev = k
	}
	if prev < 2 {
		t.Errorf("heavy perturbation should reach matched k >= 2, got %v", prev)
	}
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

// TestPerturbPinnedDigests pins the non-edge sampler's draw order: the
// edge lists of these releases were recorded before the sampler moved
// to randx.EachPair.
func TestPerturbPinnedDigests(t *testing.T) {
	g := gen.HolmeKim(randx.New(7), 800, 3, 0.3)
	for _, c := range []struct {
		p      float64
		seed   int64
		digest string
	}{
		{0.04, 1, "3c3139d5052cc3d6c883eb68d3df147d98801d9d8b49b6def90a4e49ec734e47"},
		{0.32, 2, "44cab5bccb57af474f052900027619ed7b2dbaa208a6ac60f1a9ac38ccfa4c72"},
		{1, 3, "cfcb5047765a0f32dda594a4ba561243f6b4b53c05d0989184c70dad6cbce3d0"},
	} {
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, Perturb(g, c.p, randx.New(c.seed))); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.digest {
			t.Errorf("p=%g seed=%d: digest %s, want %s", c.p, c.seed, got, c.digest)
		}
	}
}
