package ugbin

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// testGraph builds a deterministic uncertain graph: a ring of n
// vertices plus hash-derived chords, probabilities spread over (0, 1].
func testGraph(t testing.TB, n int) *uncertain.Graph {
	t.Helper()
	pairs := make([]uncertain.Pair, 0, 2*n)
	if n == 2 {
		pairs = append(pairs, uncertain.Pair{U: 0, V: 1, P: 0.5})
	}
	for u := 0; n >= 3 && u < n; u++ {
		h := (u*2654435761 + 12345) % 97
		pairs = append(pairs, uncertain.Pair{U: u, V: (u + 1) % n, P: float64(h+1) / 98})
		if chord := (u * 7) % n; chord != u && chord != (u+1)%n && chord != (u+n-1)%n && u < chord {
			pairs = append(pairs, uncertain.Pair{U: u, V: chord, P: float64((h*31)%97+1) / 98})
		}
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func encode(t testing.TB, g *uncertain.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t testing.TB, g *uncertain.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ugb")
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameGraph asserts two graphs are semantically identical: same
// dimensions, same columns, same sampling stream.
func sameGraph(t *testing.T, got, want *uncertain.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumPairs() != want.NumPairs() {
		t.Fatalf("dimensions: got %d/%d, want %d/%d",
			got.NumVertices(), got.NumPairs(), want.NumVertices(), want.NumPairs())
	}
	gc, wc := got.Columns(), want.Columns()
	if !slices.Equal(gc.PairU, wc.PairU) || !slices.Equal(gc.PairV, wc.PairV) ||
		!slices.Equal(gc.PairP, wc.PairP) || !slices.Equal(gc.IncOff, wc.IncOff) ||
		!slices.Equal(gc.IncIdx, wc.IncIdx) {
		t.Fatal("columns differ")
	}
	sg, sw := got.NewSampler(), want.NewSampler()
	for seed := int64(1); seed <= 3; seed++ {
		a := sg.Sample(randx.New(seed))
		b := sw.Sample(randx.New(seed))
		if !reflect.DeepEqual(a.Edges(), b.Edges()) {
			t.Fatalf("seed %d: sampled worlds differ", seed)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 300} {
		g := testGraph(t, n)
		got, err := Decode(encode(t, g))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameGraph(t, got, g)
	}
}

func TestLoadModes(t *testing.T) {
	g := testGraph(t, 200)
	path := writeTemp(t, g)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	heap, err := LoadMode(path, ModeHeap)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, heap, g)
	if heap.MappedBytes() != 0 {
		t.Errorf("heap load: MappedBytes = %d, want 0", heap.MappedBytes())
	}
	if heap.FootprintBytes() == 0 {
		t.Error("heap load: FootprintBytes = 0, want heap bytes")
	}

	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	mapped, err := LoadMode(path, ModeMmap)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, mapped, g)
	if mapped.MappedBytes() != st.Size() {
		t.Errorf("mmap load: MappedBytes = %d, want file size %d", mapped.MappedBytes(), st.Size())
	}
	if mapped.FootprintBytes() != 0 {
		t.Errorf("mmap load: FootprintBytes = %d, want 0 (file-backed)", mapped.FootprintBytes())
	}

	auto, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, auto, g)
	if auto.MappedBytes() != st.Size() {
		t.Errorf("auto load on unix: MappedBytes = %d, want %d", auto.MappedBytes(), st.Size())
	}
}

func TestSniff(t *testing.T) {
	g := testGraph(t, 5)
	enc := encode(t, g)
	if !Sniff(enc) {
		t.Error("Sniff rejected a valid encoding")
	}
	for _, b := range [][]byte{nil, []byte("UGB"), []byte("# uncertain graph: vertices=3 pairs=0\n")} {
		if Sniff(b) {
			t.Errorf("Sniff accepted %q", b)
		}
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": ModeAuto, "auto": ModeAuto, "mmap": ModeMmap, "heap": ModeHeap} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) succeeded")
	}
}

// refreshCRC recomputes the content checksum after a deliberate section
// mutation, so the test reaches the structural validation layer rather
// than stopping at the checksum.
func refreshCRC(enc []byte) {
	putU32(enc[32:36], crc32.Checksum(enc[headerSize:], crcTable))
}

func TestDecodeRejectsCorruption(t *testing.T) {
	g := testGraph(t, 50)
	enc := encode(t, g)

	mutate := func(name string, fn func(b []byte)) {
		b := bytes.Clone(enc)
		fn(b)
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
	}

	mutate("bad-magic", func(b []byte) { b[0] = 'X' })
	mutate("bad-version", func(b []byte) { putU32(b[8:12], 99) })
	mutate("bad-endianness", func(b []byte) { putU32(b[12:16], 0x04030201) })
	mutate("reserved-nonzero", func(b []byte) { b[40] = 1 })
	mutate("flipped-content-byte", func(b []byte) { b[headerSize+5] ^= 0xff })
	mutate("flipped-checksum", func(b []byte) { b[33] ^= 0xff })
	mutate("negative-n", func(b []byte) { putU64(b[16:24], ^uint64(0)) })
	mutate("negative-m", func(b []byte) { putU64(b[24:32], ^uint64(0)) })
	mutate("oversized-n", func(b []byte) { putU64(b[16:24], 1<<40) })
	mutate("oversized-m", func(b []byte) { putU64(b[24:32], 1<<40) })
	// Counts that pass the range check but disagree with the file size
	// must be caught before any section is touched.
	mutate("n-size-mismatch", func(b []byte) { putU64(b[16:24], uint64(g.NumVertices()+1)); refreshCRC(b) })
	mutate("m-size-mismatch", func(b []byte) { putU64(b[24:32], uint64(g.NumPairs()-1)); refreshCRC(b) })

	for _, cut := range []int{0, 4, headerSize - 1, headerSize, len(enc) / 2, len(enc) - 1} {
		b := enc[:cut]
		if _, err := Decode(b); err == nil {
			t.Errorf("truncation to %d bytes: decode succeeded", cut)
		}
	}
	if _, err := Decode(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("trailing byte: decode succeeded")
	}
}

// TestDecodeRejectsStructuralCorruption mutates section *content* (with
// a refreshed checksum) and expects the columnar validation to refuse
// cleanly: out-of-range indices, denormalized pairs, bad probabilities,
// broken CSR offsets.
func TestDecodeRejectsStructuralCorruption(t *testing.T) {
	g := testGraph(t, 50)
	enc := encode(t, g)
	lay, err := layoutFor(int64(g.NumVertices()), int64(g.NumPairs()))
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, fn func(b []byte)) {
		b := bytes.Clone(enc)
		fn(b)
		refreshCRC(b)
		_, err := Decode(b)
		if err == nil {
			t.Errorf("%s: decode succeeded on structurally corrupt input", name)
			return
		}
		if !strings.Contains(err.Error(), "uncertain:") {
			t.Errorf("%s: error did not come from structural validation: %v", name, err)
		}
	}

	mutate("pairU-out-of-range", func(b []byte) { putU32(b[lay.pairU.off:], 1<<30) })
	mutate("pair-denormalized", func(b []byte) {
		// Swap U and V of pair 0: still in range, but U > V.
		u, v := getU32(b[lay.pairU.off:]), getU32(b[lay.pairV.off:])
		putU32(b[lay.pairU.off:], v)
		putU32(b[lay.pairV.off:], u)
	})
	mutate("probability-above-one", func(b []byte) {
		putU64(b[lay.pairP.off:], 0x4000000000000000) // float64(2.0)
	})
	mutate("probability-nan", func(b []byte) {
		putU64(b[lay.pairP.off:], 0x7ff8000000000001)
	})
	mutate("incOff-nonzero-start", func(b []byte) { putU64(b[lay.incOff.off:], 1) })
	mutate("incOff-decreasing", func(b []byte) {
		putU64(b[lay.incOff.off+8:], ^uint64(0)) // incOff[1] = -1
	})
	mutate("incIdx-out-of-range", func(b []byte) { putU32(b[lay.incIdx.off:], 1<<30) })
	mutate("incIdx-wrong-vertex", func(b []byte) {
		// Point vertex 0's first incident slot at a pair not touching 0
		// (the last pair in a 50-ring touches 48/49 only).
		putU32(b[lay.incIdx.off:], uint32(getU64(b[24:32])-1))
	})
}

// TestLoadRejectsDuplicatePair writes a .ugb whose sections are a
// consistent CSR over two copies of pair (0,1), with a valid checksum,
// and expects every load path to refuse it: the file would otherwise
// carry a repeated pair into a serving daemon.
func TestLoadRejectsDuplicatePair(t *testing.T) {
	// A legitimate graph with the same n and m fixes the layout.
	legit, err := uncertain.New(3, []uncertain.Pair{{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(t, legit)
	lay, err := layoutFor(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dup := uncertain.Columns{
		PairU:  []int32{0, 0},
		PairV:  []int32{1, 1},
		PairP:  []float64{0.5, 0.7},
		IncOff: []int64{0, 2, 4, 4},
		IncIdx: []int32{0, 1, 0, 1},
	}
	copy(enc[lay.pairU.off:], int32Bytes(dup.PairU))
	copy(enc[lay.pairV.off:], int32Bytes(dup.PairV))
	copy(enc[lay.pairP.off:], float64Bytes(dup.PairP))
	copy(enc[lay.incOff.off:], int64Bytes(dup.IncOff))
	copy(enc[lay.incIdx.off:], int32Bytes(dup.IncIdx))
	refreshCRC(enc)
	path := filepath.Join(t.TempDir(), "dup.ugb")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	modes := []Mode{ModeAuto, ModeHeap}
	if mmapSupported {
		modes = append(modes, ModeMmap)
	}
	for _, mode := range modes {
		if _, err := LoadMode(path, mode); err == nil || !strings.Contains(err.Error(), "repeats an earlier pair") {
			t.Errorf("LoadMode(%v) of a duplicated pair: err = %v, want a duplicate rejection", mode, err)
		}
	}
	if _, err := Decode(enc); err == nil {
		t.Error("Decode accepted a duplicated pair")
	}
}

// TestLoadAllocationsConstant pins the constant-allocation-count
// contract of the mmap path: loading a graph 8× larger must not change
// the (small, constant) allocation count. The one allocation whose size
// follows the graph is FromColumns' transient n-entry scratch array for
// the duplicate check.
func TestLoadAllocationsConstant(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	allocsFor := func(n int) float64 {
		path := writeTemp(t, testGraph(t, n))
		return testing.AllocsPerRun(10, func() {
			g, err := LoadMode(path, ModeMmap)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != n {
				t.Fatal("wrong graph")
			}
		})
	}
	small, large := allocsFor(500), allocsFor(4000)
	if small != large {
		t.Errorf("allocations grew with graph size: %v at n=500, %v at n=4000", small, large)
	}
	if small > 32 {
		t.Errorf("mmap load performs %v allocations, want a small constant", small)
	}
}

func TestWriteFileRejectsBadPath(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "g.ugb"), testGraph(t, 3)); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ugb")); err == nil {
		t.Error("loading a missing file succeeded")
	}
	short := filepath.Join(t.TempDir(), "short.ugb")
	if err := os.WriteFile(short, []byte(Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(short); err == nil {
		t.Error("loading a header-truncated file succeeded")
	}
}

// TestDecodeMisalignedInput checks the aligned-copy fallback: a Decode
// over bytes at an odd offset still round-trips.
func TestDecodeMisalignedInput(t *testing.T) {
	g := testGraph(t, 30)
	enc := encode(t, g)
	buf := make([]byte, len(enc)+1)
	copy(buf[1:], enc)
	got, err := Decode(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, got, g)
}

// gcWriter runs a full collection after every write, so a graph whose
// last reference dies inside Write is finalized while its sections are
// still being copied out.
type gcWriter struct{ bytes.Buffer }

func (w *gcWriter) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	runtime.GC()
	return n, err
}

// TestWriteKeepsMappedGraphAlive is the regression for a use-after-
// unmap: Write's last use of g was the header's NumPairs, and the
// section slices alias the mapping without keeping g reachable, so a
// collection during the section writes could run LoadMode's finalizer
// and unmap memory still being copied (SIGSEGV in memmove).
func TestWriteKeepsMappedGraphAlive(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := testGraph(t, 20000)
	want := encode(t, g)
	path := writeTemp(t, g)
	for trial := 0; trial < 5; trial++ {
		mapped, err := LoadMode(path, ModeMmap)
		if err != nil {
			t.Fatal(err)
		}
		var w gcWriter
		if err := Write(&w, mapped); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("trial %d: encoding the mapped graph differs from the heap encode", trial)
		}
	}
}
