package query

import (
	"context"
	"reflect"
	"testing"

	"uncertaingraph/internal/randx"
)

// TestBatchIntraWorldBitIdentity is the end-to-end pin for the
// worlds-scarce regime: a batch whose worker budget exceeds
// sources × worlds (so the frontier engine runs inside every walk)
// must answer bit-identically to the sequential configuration, across
// reliability, distance and k-NN queries.
func TestBatchIntraWorldBitIdentity(t *testing.T) {
	rng := randx.New(31)
	for trial := 0; trial < 8; trial++ {
		ug := randomUncertainGraph(t, rng, 40+rng.Intn(60))
		n := ug.NumVertices()
		type answers struct {
			rel, disc float64
			dd        map[int]float64
			med       int
			knn       []int
		}
		var got []answers
		for _, workers := range []int{1, 4, 16} {
			b := NewBatch(ug, Config{Worlds: 2, Seed: int64(trial), Workers: workers})
			r1 := b.AddReliability(0, n-1)
			d1 := b.AddDistance(0, n/2)
			k1 := b.AddKNearest(0, 5)
			if err := b.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			// The split the run actually walked with: the largest any
			// lane's last world received (a lane may get no world).
			intra := 0
			for _, w := range b.ws {
				intra = max(intra, w.intra)
			}
			if workers > 2 && intra < 2 {
				t.Fatalf("trial %d workers %d: intra = %d, split never engaged", trial, workers, intra)
			}
			dd, disc := b.DistanceDistribution(d1)
			got = append(got, answers{
				rel:  b.Reliability(r1),
				disc: disc,
				dd:   dd,
				med:  b.MedianDistance(d1),
				knn:  b.KNearest(k1),
			})
		}
		for i := 1; i < len(got); i++ {
			if !reflect.DeepEqual(got[0], got[i]) {
				t.Fatalf("trial %d: answers diverge between worker configs 0 and %d", trial, i)
			}
		}
	}
}
