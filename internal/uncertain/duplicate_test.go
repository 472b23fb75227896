package uncertain

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

// newErrWithMap is New's validation as it ran before the stamp pass:
// one loop in input order, duplicates caught by a map of pair keys. New
// must return exactly its error for every input.
func newErrWithMap(n int, pairs []Pair) error {
	seen := make(map[int64]struct{}, len(pairs))
	for _, pr := range pairs {
		if pr.U == pr.V {
			return fmt.Errorf("uncertain: self-loop at vertex %d", pr.U)
		}
		if pr.U < 0 || pr.V < 0 || pr.U >= n || pr.V >= n {
			return fmt.Errorf("uncertain: pair (%d,%d) out of range [0,%d)", pr.U, pr.V, n)
		}
		if !(pr.P >= 0 && pr.P <= 1) {
			return fmt.Errorf("uncertain: probability %v of pair (%d,%d) outside [0,1]", pr.P, pr.U, pr.V)
		}
		key := graph.PairKey(pr.U, pr.V, n)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("uncertain: duplicate pair (%d,%d)", pr.U, pr.V)
		}
		seen[key] = struct{}{}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestNewErrorMatchesMapReference pins New's error contract across the
// switch to the stamp check: the first fault in input order, with a
// duplicate reported as the first pair repeating an earlier one, for
// hand-picked faults and for random small inputs.
func TestNewErrorMatchesMapReference(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		pairs []Pair
	}{
		{"lone-duplicate", 4, []Pair{{0, 1, 0.5}, {2, 3, 0.1}, {0, 1, 0.7}}},
		{"reversed-duplicate", 4, []Pair{{2, 1, 0.5}, {0, 3, 0.1}, {1, 2, 0.7}}},
		{"duplicate-before-bad-prob", 4, []Pair{{0, 1, 0.5}, {1, 0, 0.2}, {2, 3, 1.5}}},
		{"duplicate-after-bad-prob", 4, []Pair{{0, 1, 0.5}, {2, 3, math.NaN()}, {1, 0, 0.2}}},
		{"self-loop-before-duplicate", 4, []Pair{{0, 1, 0.5}, {2, 2, 0.5}, {0, 1, 0.5}}},
		{"duplicate-before-self-loop", 4, []Pair{{0, 1, 0.5}, {0, 1, 0.5}, {2, 2, 0.5}}},
		{"out-of-range-after-duplicate", 4, []Pair{{3, 1, 0.5}, {1, 3, 0.5}, {0, 4, 0.5}}},
		{"out-of-range", 4, []Pair{{0, 1, 0.5}, {-1, 2, 0.5}}},
		{"later-repeat-found-first", 5, []Pair{{3, 4, 0.1}, {0, 1, 0.1}, {0, 4, 0.1}, {1, 0, 0.1}, {4, 3, 0.1}}},
		{"triple", 3, []Pair{{0, 2, 0.1}, {2, 0, 0.2}, {0, 2, 0.3}}},
		{"valid", 4, []Pair{{0, 1, 0}, {1, 2, 1}, {2, 3, 0.5}}},
	}
	for _, c := range cases {
		_, got := New(c.n, c.pairs)
		if want := newErrWithMap(c.n, c.pairs); errString(got) != errString(want) {
			t.Errorf("%s: New error %q, map reference %q", c.name, errString(got), errString(want))
		}
	}
	rng := randx.New(5)
	probs := []float64{0.5, 0, 1, 1.5, math.NaN()}
	for trial := 0; trial < 3000; trial++ {
		const n = 6
		pairs := make([]Pair, rng.Intn(12))
		for i := range pairs {
			// Vertices in [-1, n]; a bad probability one time in ten.
			p := probs[rng.Intn(3)]
			if rng.Intn(10) == 0 {
				p = probs[3+rng.Intn(2)]
			}
			pairs[i] = Pair{U: rng.Intn(n+2) - 1, V: rng.Intn(n+2) - 1, P: p}
			if rng.Intn(4) != 0 && pairs[i].U == pairs[i].V {
				pairs[i].V = (pairs[i].U + 2) % n // mostly valid pairs, so duplicates matter
			}
		}
		_, got := New(n, pairs)
		if want := newErrWithMap(n, pairs); errString(got) != errString(want) {
			t.Fatalf("pairs %v: New error %q, map reference %q", pairs, errString(got), errString(want))
		}
	}
}

// TestFromColumnsRejectsDuplicatePair pins the duplicate check
// FromColumns shares with New: two copies of pair (0,1), laid out as a
// consistent CSR, would otherwise give vertex 0 a two-term degree law
// on a two-vertex graph.
func TestFromColumnsRejectsDuplicatePair(t *testing.T) {
	dup := Columns{
		PairU:  []int32{0, 0},
		PairV:  []int32{1, 1},
		PairP:  []float64{0.5, 0.7},
		IncOff: []int64{0, 2, 4},
		IncIdx: []int32{0, 1, 0, 1},
	}
	_, err := FromColumns(2, dup, 0)
	if err == nil || !strings.Contains(err.Error(), "repeats an earlier pair") {
		t.Fatalf("FromColumns accepted a duplicate pair: err = %v", err)
	}
	if !strings.Contains(err.Error(), "pair 1 (0,1)") {
		t.Errorf("error %q does not name the repeating pair 1", err)
	}
	g, err := New(3, []Pair{{0, 1, 0.5}, {1, 2, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromColumns(3, g.Columns(), 0); err != nil {
		t.Errorf("FromColumns rejected New's own columns: %v", err)
	}
}
