package degreetrail

import (
	"math"
	"sort"
	"testing"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

func evolveBase(t testing.TB) []*graph.Graph {
	g := gen.HolmeKim(randx.New(1), 500, 3, 0.3)
	snaps := Evolve(g, 3, 0.15, randx.New(2))
	if len(snaps) != 3 {
		t.Fatal("snapshot count")
	}
	return snaps
}

func TestEvolveGrowsMonotonically(t *testing.T) {
	snaps := evolveBase(t)
	for i := 1; i < len(snaps); i++ {
		if snaps[i].NumEdges() <= snaps[i-1].NumEdges() {
			t.Fatalf("release %d did not grow: %d vs %d", i, snaps[i].NumEdges(), snaps[i-1].NumEdges())
		}
		// Growth only adds: every earlier edge persists.
		snaps[i-1].ForEachEdge(func(u, v int) {
			if !snaps[i].HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) vanished in release %d", u, v, i)
			}
		})
	}
}

func TestTrails(t *testing.T) {
	snaps := evolveBase(t)
	trails := Trails(snaps)
	if len(trails) != 500 {
		t.Fatal("trail count")
	}
	for v, trail := range trails {
		for s := 1; s < len(trail); s++ {
			if trail[s] < trail[s-1] {
				t.Fatalf("vertex %d degree decreased along trail %v", v, trail)
			}
		}
		if trail[0] != snaps[0].Degree(v) {
			t.Fatal("trail misaligned")
		}
	}
}

func TestCertainTrailAttackShrinksCrowds(t *testing.T) {
	// The Medforth-Wang observation: more releases mean smaller trail
	// crowds, i.e. the sequence leaks much more than one snapshot.
	snaps := evolveBase(t)
	one := CertainCrowdSizes(snaps[:1])
	three := CertainCrowdSizes(snaps)
	if medianInt(three) >= medianInt(one) {
		t.Errorf("trail attack did not shrink crowds: median %d -> %d",
			medianInt(one), medianInt(three))
	}
	reident1, reident3 := 0, 0
	for v := range one {
		if one[v] == 1 {
			reident1++
		}
		if three[v] == 1 {
			reident3++
		}
	}
	if reident3 <= reident1 {
		t.Errorf("re-identified %d with one release but %d with three", reident1, reident3)
	}
}

func TestSequentialLevelsCertainMatchesCrowds(t *testing.T) {
	// Against certain releases, the probabilistic attack degenerates to
	// exact trail matching: level = crowd size.
	snaps := evolveBase(t)
	models := make([]adversary.Model, len(snaps))
	for i, s := range snaps {
		models[i] = adversary.UncertainModel{G: uncertain.FromCertain(s)}
	}
	trails := Trails(snaps)
	targets := []int{0, 7, 42, 99, 313}
	levels := SequentialLevels(models, trails, targets)
	crowds := CertainCrowdSizes(snaps)
	for i, v := range targets {
		if math.Abs(levels[i]-float64(crowds[v])) > 1e-6 {
			t.Errorf("target %d: level %v vs crowd %d", v, levels[i], crowds[v])
		}
	}
}

func TestUncertainReleasesResistTrailAttack(t *testing.T) {
	// The open question of Section 8, answered empirically: publishing
	// each release as an uncertain graph leaves substantially larger
	// effective crowds under the degree-trail attack than publishing
	// certain snapshots.
	snaps := evolveBase(t)
	trails := Trails(snaps)

	certain := make([]adversary.Model, len(snaps))
	obf := make([]adversary.Model, len(snaps))
	for i, s := range snaps {
		certain[i] = adversary.UncertainModel{G: uncertain.FromCertain(s)}
		att := core.GenerateObfuscation(s, 0.15, core.Params{
			K: 5, Eps: 0.5, Trials: 1, Seed: randx.New(int64(10 + i)).Int63(),
		})
		if att.Failed() {
			t.Fatal("obfuscation failed")
		}
		obf[i] = adversary.UncertainModel{G: att.G}
	}
	targets := make([]int, 0, 100)
	for v := 0; v < 500; v += 5 {
		targets = append(targets, v)
	}
	certLevels := SequentialLevels(certain, trails, targets)
	obfLevels := SequentialLevels(obf, trails, targets)
	if medianFloat(obfLevels) <= medianFloat(certLevels) {
		t.Errorf("uncertain releases gave median level %v, certain %v",
			medianFloat(obfLevels), medianFloat(certLevels))
	}
}

func TestSequentialLevelsNilTargets(t *testing.T) {
	snaps := evolveBase(t)[:1]
	models := []adversary.Model{adversary.UncertainModel{G: uncertain.FromCertain(snaps[0])}}
	levels := SequentialLevels(models, Trails(snaps), nil)
	if len(levels) != 500 {
		t.Fatalf("nil targets should attack everyone, got %d", len(levels))
	}
}

func TestSequentialLevelsEmpty(t *testing.T) {
	if SequentialLevels(nil, nil, nil) != nil {
		t.Error("no models should give nil")
	}
}

func medianInt(xs []int) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[len(s)/2]
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
