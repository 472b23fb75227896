package query

// Adaptive-stopping tests for the batch engine: with Tolerance set,
// Run walks a deterministic block schedule and stops at the first
// barrier where every registered query's relative SEM is inside the
// tolerance. Stopping must follow the same discipline as the sampling
// pipeline — the decision is computed from merged integer counts in a
// canonical order, so the stopping point and every answer are
// bit-identical for all Workers values, and a stopped run is the exact
// prefix of a fixed full-budget run.

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// adaptiveAnswers runs one reliability + one distance query under cfg
// and returns the comparable answers plus the run length.
func adaptiveAnswers(t *testing.T, cfg Config) (rel float64, dist map[int]float64, disc float64, worlds int, converged bool) {
	t.Helper()
	b := NewBatch(dblpUncertain(t), cfg)
	idRel := b.AddReliability(0, 13)
	idDist := b.AddDistance(0, 13)
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, dc := b.DistanceDistribution(idDist)
	return b.Reliability(idRel), d, dc, b.WorldsRun(), b.Converged()
}

// TestBatchAdaptiveNeverConvergingMatchesFixedRun: an unreachably
// tight tolerance walks the block schedule to the full budget and must
// reproduce the fixed run bit-identically.
func TestBatchAdaptiveNeverConvergingMatchesFixedRun(t *testing.T) {
	fixed := Config{Worlds: 70, Seed: 5}
	adaptive := fixed
	adaptive.Tolerance = math.SmallestNonzeroFloat64

	relF, distF, discF, worldsF, convF := adaptiveAnswers(t, fixed)
	relA, distA, discA, worldsA, convA := adaptiveAnswers(t, adaptive)
	if worldsF != 70 || worldsA != 70 {
		t.Fatalf("worlds run: fixed %d adaptive %d, want 70/70", worldsF, worldsA)
	}
	if relF != relA || discF != discA || !reflect.DeepEqual(distF, distA) {
		t.Error("block-scheduled full run differs from fixed run")
	}
	if convF || convA {
		t.Errorf("converged: fixed %v adaptive %v, want false/false", convF, convA)
	}
}

// TestBatchAdaptivePrefixBitIdentity: a converging adaptive run stops
// short of its budget at the same point for Workers ∈ {1, 4}, with
// identical answers, and a fixed run of exactly the prefix length
// reproduces them bit-for-bit.
func TestBatchAdaptivePrefixBitIdentity(t *testing.T) {
	base := Config{Worlds: 2000, Seed: 5, Tolerance: 0.3}

	cfg1 := base
	cfg1.Workers = 1
	cfg4 := base
	cfg4.Workers = 4
	rel1, dist1, disc1, worlds1, conv1 := adaptiveAnswers(t, cfg1)
	rel4, dist4, disc4, worlds4, conv4 := adaptiveAnswers(t, cfg4)
	if worlds1 >= 2000 || worlds1 < 2 {
		t.Fatalf("adaptive batch used %d worlds, want an early stop within [2, 2000)", worlds1)
	}
	if !conv1 {
		t.Error("early-stopped batch reports converged=false")
	}
	if worlds1 != worlds4 || rel1 != rel4 || disc1 != disc4 || conv1 != conv4 || !reflect.DeepEqual(dist1, dist4) {
		t.Errorf("adaptive batch differs across worker counts: worlds %d/%d", worlds1, worlds4)
	}

	relP, distP, discP, worldsP, _ := adaptiveAnswers(t, Config{Worlds: worlds1, Seed: 5})
	if worldsP != worlds1 {
		t.Fatalf("prefix run used %d worlds, want %d", worldsP, worlds1)
	}
	if relP != rel1 || discP != disc1 || !reflect.DeepEqual(distP, dist1) {
		t.Error("stopped batch is not a bit-identical prefix of the fixed run")
	}
}

// TestBatchAdaptiveKNNRunsFullBudget: a k-NN ranking has no scalar
// confidence interval, so a batch carrying one must run its whole
// budget and never report convergence.
func TestBatchAdaptiveKNNRunsFullBudget(t *testing.T) {
	b := NewBatch(dblpUncertain(t), Config{Worlds: 100, Seed: 5, Tolerance: 0.5})
	b.AddReliability(0, 13)
	b.AddKNearest(3, 5)
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.WorldsRun() != 100 {
		t.Errorf("k-NN batch used %d worlds, want the full 100", b.WorldsRun())
	}
	if b.Converged() {
		t.Error("k-NN batch reports converged=true")
	}
}

// TestBatchAdaptiveCancelRerunIdentity: cancelling an adaptive run
// mid-flight leaves the batch un-ran, and a subsequent Run reproduces
// a never-cancelled run bit-identically.
func TestBatchAdaptiveCancelRerunIdentity(t *testing.T) {
	g := dblpUncertain(t)
	cfg := Config{Worlds: 2000, Seed: 5, Tolerance: 0.05}

	ref := NewBatch(g, cfg)
	refID := ref.AddReliability(0, 13)
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	b := NewBatch(g, cfg)
	id := b.AddReliability(0, 13)
	ctx, cancel := context.WithCancel(context.Background())
	b.Progress = func(done, total int) {
		if done >= 5 {
			cancel()
		}
	}
	if err := b.Run(ctx); err == nil {
		t.Fatal("cancelled adaptive run returned nil error")
	}
	if b.WorldsRun() != 0 || b.Converged() {
		t.Errorf("cancelled batch exposes results: worlds %d converged %v", b.WorldsRun(), b.Converged())
	}
	b.Progress = nil
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.WorldsRun() != ref.WorldsRun() || b.Reliability(id) != ref.Reliability(refID) {
		t.Error("re-run after cancellation differs from a never-cancelled run")
	}
}

// TestBatchResetClearsAdaptiveState: a pooled batch must not leak the
// previous request's run length or convergence flag through Reset.
func TestBatchResetClearsAdaptiveState(t *testing.T) {
	b := NewBatch(dblpUncertain(t), Config{Worlds: 2000, Seed: 5, Tolerance: 0.05})
	b.AddReliability(0, 13)
	mustRun(t, b)
	if b.WorldsRun() == 0 {
		t.Fatal("run did not record its world count")
	}
	b.Reset()
	if b.WorldsRun() != 0 || b.Converged() {
		t.Errorf("Reset kept adaptive state: worlds %d converged %v", b.WorldsRun(), b.Converged())
	}
}
