package hll

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000} {
		c := New(10) // 1024 registers, ~3.25% RSD
		for i := 0; i < n; i++ {
			c.AddHash(Hash64(uint64(i), 7))
		}
		est := c.Estimate()
		if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.12 {
			t.Errorf("n=%d: estimate %v, relative error %v", n, est, rel)
		}
	}
}

func TestEstimateEmpty(t *testing.T) {
	c := New(6)
	if got := c.Estimate(); got != 0 {
		t.Errorf("empty estimate = %v, want 0 (linear counting of all-zero registers)", got)
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	c := New(8)
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 100; i++ {
			c.AddHash(Hash64(uint64(i), 3))
		}
	}
	est := c.Estimate()
	if est > 130 || est < 70 {
		t.Errorf("estimate with duplicates = %v, want ~100", est)
	}
}

func TestUnionEqualsUnionOfSets(t *testing.T) {
	a, b, ab := New(9), New(9), New(9)
	for i := 0; i < 500; i++ {
		h := Hash64(uint64(i), 11)
		a.AddHash(h)
		ab.AddHash(h)
	}
	for i := 400; i < 1000; i++ {
		h := Hash64(uint64(i), 11)
		b.AddHash(h)
		ab.AddHash(h)
	}
	u := a.Clone()
	u.Union(b)
	// Union of sketches must equal the sketch of the union, exactly.
	for i := range u.reg {
		if u.reg[i] != ab.reg[i] {
			t.Fatal("union sketch differs from sketch of union")
		}
	}
}

func TestUnionChangeReporting(t *testing.T) {
	a, b := New(6), New(6)
	for i := 0; i < 50; i++ {
		b.AddHash(Hash64(uint64(i), 5))
	}
	if !a.Union(b) {
		t.Error("union with larger sketch should report change")
	}
	if a.Union(b) {
		t.Error("repeated union should be a no-op")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(6)
	a.AddHash(Hash64(1, 1))
	b := a.Clone()
	b.AddHash(Hash64(999, 1))
	if a.Estimate() == b.Estimate() {
		// They could coincide by hashing to the same register/rank;
		// check registers directly.
		same := true
		for i := range a.reg {
			if a.reg[i] != b.reg[i] {
				same = false
			}
		}
		if same {
			t.Skip("hash collision made registers identical; acceptable")
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(6), New(6)
	for i := 0; i < 100; i++ {
		a.AddHash(Hash64(uint64(i), 9))
	}
	b.CopyFrom(a)
	for i := range a.reg {
		if a.reg[i] != b.reg[i] {
			t.Fatal("CopyFrom must copy all registers")
		}
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	a, b := New(6), New(7)
	a.Union(b)
}

func TestNewValidation(t *testing.T) {
	for _, b := range []int{0, 3, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", b)
				}
			}()
			New(b)
		}()
	}
}

func TestHash64SeedDecorrelates(t *testing.T) {
	same := 0
	for i := 0; i < 1000; i++ {
		if Hash64(uint64(i), 1) == Hash64(uint64(i), 2) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/1000 hashes collide across seeds", same)
	}
}

// TestPow2NegMatchesExp2 pins the table Estimate reads: every entry is
// bit-identical to math.Exp2(-r).
func TestPow2NegMatchesExp2(t *testing.T) {
	for r := 0; r < 256; r++ {
		if got, want := pow2neg[r], math.Exp2(-float64(r)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("pow2neg[%d] = %v, want math.Exp2(%d) = %v", r, got, -r, want)
		}
	}
}

// bytewiseUnion is the register-at-a-time maximum the broadword Union
// must reproduce.
func bytewiseUnion(dst, src []byte) bool {
	changed := false
	for i, r := range src {
		if r > dst[i] {
			dst[i] = r
			changed = true
		}
	}
	return changed
}

// TestUnionMatchesBytewise drives the broadword Union and the bytewise
// reference over random register pairs in [0, 0x7F] — independent
// pairs, pairs where src never exceeds dst (no change), and pairs
// differing in one raised register — and requires the same registers
// and the same change flag.
func TestUnionMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, b := range []int{4, 7, 16} {
		m := RegisterCount(b)
		for trial := 0; trial < 60; trial++ {
			dst, src := make([]byte, m), make([]byte, m)
			for i := range dst {
				dst[i] = byte(rng.Intn(0x80))
			}
			switch trial % 3 {
			case 0:
				for i := range src {
					src[i] = byte(rng.Intn(0x80))
				}
			case 1:
				for i := range src {
					src[i] = byte(rng.Intn(int(dst[i]) + 1))
				}
			case 2:
				copy(src, dst)
				i := rng.Intn(m)
				src[i] = dst[i] + byte(rng.Intn(0x80-int(dst[i])))
			}
			want := append([]byte(nil), dst...)
			wantChanged := bytewiseUnion(want, src)
			c := FromRegisters(dst)
			if got := c.Union(FromRegisters(src)); got != wantChanged {
				t.Errorf("b=%d trial %d: Union reported %v, bytewise %v", b, trial, got, wantChanged)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("b=%d trial %d: broadword registers differ from the bytewise maximum", b, trial)
			}
		}
	}
}
