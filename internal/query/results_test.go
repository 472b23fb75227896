package query

import (
	"context"
	"reflect"
	"testing"
)

// TestSnapshotOutlivesBatchReuse pins what the serving layer relies on
// to cache answers: a Snapshot keeps answering identically after its
// batch is Reset and reused for a different request.
func TestSnapshotOutlivesBatchReuse(t *testing.T) {
	g := dblpUncertain(t)
	b := NewBatch(g, Config{Worlds: 64, Seed: 3})
	rel := b.AddReliability(0, 50)
	dist := b.AddDistance(3, 200)
	knn := b.AddKNearest(3, 5)
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	wantRel := b.Reliability(rel)
	wantDist, wantDisc := b.DistanceDistribution(dist)
	wantMed := b.MedianDistance(dist)
	wantKNN := append(make([]Neighbor, 0), b.KNearestWithMedians(knn)...)
	if len(wantKNN) != 5 {
		t.Fatalf("fixture: knn(3, 5) found %d neighbours, want 5", len(wantKNN))
	}
	wantWorlds := b.WorldsRun()

	// Reuse the batch for a different request and run it — the snapshot
	// must not notice.
	b.Reset()
	b.AddReliability(9, 11)
	b.Seed = 999
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if got := snap.Reliability(rel); got != wantRel {
		t.Errorf("snapshot reliability %v, want %v", got, wantRel)
	}
	gotDist, gotDisc := snap.DistanceDistribution(dist)
	if !reflect.DeepEqual(gotDist, wantDist) || gotDisc != wantDisc {
		t.Errorf("snapshot distance (%v, %v), want (%v, %v)", gotDist, gotDisc, wantDist, wantDisc)
	}
	if got := snap.MedianDistance(dist); got != wantMed {
		t.Errorf("snapshot median %v, want %v", got, wantMed)
	}
	if got := snap.KNearestWithMedians(knn); !reflect.DeepEqual(got, wantKNN) {
		t.Errorf("snapshot knn %v, want %v", got, wantKNN)
	}
	if got := snap.WorldsRun(); got != wantWorlds {
		t.Errorf("snapshot worlds %d, want %d", got, wantWorlds)
	}
	if snap.NumQueries() != 3 {
		t.Errorf("snapshot queries %d, want 3", snap.NumQueries())
	}
	if snap.MemoryBytes() <= 0 {
		t.Errorf("snapshot MemoryBytes %d, want > 0", snap.MemoryBytes())
	}
}
