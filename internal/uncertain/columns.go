package uncertain

import "fmt"

// Columns is the columnar backing of a Graph: three parallel candidate
// arrays plus the CSR incident index. It is both the zero-copy view of
// a live graph (Columns method) and the adoption form of FromColumns —
// the sections of the on-disk binary format (internal/ugbin) are
// exactly these five arrays, so a mapped file becomes a Graph without
// copying or re-indexing.
type Columns struct {
	PairU  []int32   // lower endpoint of pair i (PairU[i] < PairV[i])
	PairV  []int32   // upper endpoint of pair i
	PairP  []float64 // existence probability of pair i
	IncOff []int64   // CSR offsets into IncIdx, length n+1
	IncIdx []int32   // pair indices grouped by incident vertex,
	// ascending within each vertex (candidate-list order)
}

// Columns returns the graph's backing arrays, shared and read-only.
func (g *Graph) Columns() Columns {
	return Columns{PairU: g.pairU, PairV: g.pairV, PairP: g.pairP, IncOff: g.incOff, IncIdx: g.incIdx}
}

// FromColumns adopts pre-built columnar arrays as a Graph without
// copying them: the caller's slices (typically views over an mmap'd
// file, see mappedBytes) become the graph's backing store and must not
// be modified afterwards. mappedBytes records the size of the
// externally backed region the arrays alias (0 for columns the graph
// exclusively owns); it only affects FootprintBytes/MappedBytes
// accounting.
//
// The arrays are fully validated before adoption — every invariant New
// establishes is checked here, in O(n + |E_C|) time, allocating only
// one n-entry scratch array for the duplicate check, so a hostile or
// corrupt file can produce an error but never a Graph that panics or
// miscounts later:
//
//   - consistent lengths (|PairU| = |PairV| = |PairP| = m,
//     |IncOff| = n+1, |IncIdx| = 2m)
//   - endpoints in [0, n) with PairU[i] < PairV[i] (normalized, no
//     self-loops)
//   - probabilities in [0, 1] (NaN rejected)
//   - IncOff starting at 0, nondecreasing, ending at 2m
//   - IncIdx entries in [0, m), strictly increasing within each
//     vertex, each referencing a pair incident to that vertex
//   - no pair repeating an earlier pair's endpoints
//
// The IncIdx condition pins the exact layout New builds: within a
// vertex the indices ascend (candidate-list order) and reference only
// incident pairs, which together force every pair to appear exactly
// twice — once under each endpoint — without needing per-pair counters.
// The duplicate check is New's own (see firstRepeat).
func FromColumns(n int, c Columns, mappedBytes int64) (*Graph, error) {
	if n < 0 || n > MaxVertices {
		return nil, fmt.Errorf("uncertain: vertex count %d outside [0,%d]", n, MaxVertices)
	}
	m := len(c.PairP)
	if len(c.PairU) != m || len(c.PairV) != m {
		return nil, fmt.Errorf("uncertain: column lengths disagree: |U|=%d |V|=%d |P|=%d",
			len(c.PairU), len(c.PairV), m)
	}
	if len(c.IncOff) != n+1 {
		return nil, fmt.Errorf("uncertain: incident offsets length %d, want n+1 = %d", len(c.IncOff), n+1)
	}
	if len(c.IncIdx) != 2*m {
		return nil, fmt.Errorf("uncertain: incident index length %d, want 2m = %d", len(c.IncIdx), 2*m)
	}
	for i := 0; i < m; i++ {
		u, v := c.PairU[i], c.PairV[i]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("uncertain: pair %d endpoints (%d,%d) out of range [0,%d)", i, u, v, n)
		}
		if u >= v {
			return nil, fmt.Errorf("uncertain: pair %d (%d,%d) not normalized (want U < V)", i, u, v)
		}
		if p := c.PairP[i]; !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("uncertain: probability %v of pair %d outside [0,1]", p, i)
		}
	}
	if c.IncOff[0] != 0 {
		return nil, fmt.Errorf("uncertain: incident offsets start at %d, want 0", c.IncOff[0])
	}
	for v := 0; v < n; v++ {
		lo, hi := c.IncOff[v], c.IncOff[v+1]
		if hi < lo {
			return nil, fmt.Errorf("uncertain: incident offsets decrease at vertex %d (%d -> %d)", v, lo, hi)
		}
		if hi > int64(2*m) {
			return nil, fmt.Errorf("uncertain: incident offset %d at vertex %d exceeds 2m = %d", hi, v+1, 2*m)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			idx := c.IncIdx[k]
			if idx < 0 || int(idx) >= m {
				return nil, fmt.Errorf("uncertain: incident index %d at vertex %d out of range [0,%d)", idx, v, m)
			}
			if idx <= prev {
				return nil, fmt.Errorf("uncertain: incident indices of vertex %d not strictly increasing (%d after %d)", v, idx, prev)
			}
			prev = idx
			if int(c.PairU[idx]) != v && int(c.PairV[idx]) != v {
				return nil, fmt.Errorf("uncertain: pair %d (%d,%d) listed as incident to vertex %d", idx, c.PairU[idx], c.PairV[idx], v)
			}
		}
	}
	if c.IncOff[n] != int64(2*m) {
		return nil, fmt.Errorf("uncertain: incident offsets end at %d, want 2m = %d", c.IncOff[n], 2*m)
	}
	if i := c.firstRepeat(make([]int32, n)); i >= 0 {
		return nil, fmt.Errorf("uncertain: pair %d (%d,%d) repeats an earlier pair", i, c.PairU[i], c.PairV[i])
	}
	return &Graph{
		n: n, pairU: c.PairU, pairV: c.PairV, pairP: c.PairP,
		incOff: c.IncOff, incIdx: c.IncIdx, mapped: mappedBytes,
	}, nil
}

// firstRepeat returns the index of the first pair, in candidate-list
// order, whose endpoints repeat an earlier pair's, or -1 when the pairs
// are distinct. It is the duplicate check of both New and FromColumns,
// and needs no map: it walks the CSR index one vertex u at a time,
// stamping each partner with u+1, so a partner met twice under u is a
// repeated pair, and the later of the two indices (they ascend within
// a vertex) is the repeat. The columns must already satisfy every other
// FromColumns invariant; stamp must hold n zeros and is overwritten.
func (c Columns) firstRepeat(stamp []int32) int {
	first := -1
	for u := range stamp {
		mark := int32(u + 1)
		for _, idx := range c.IncIdx[c.IncOff[u]:c.IncOff[u+1]] {
			w := c.PairU[idx]
			if int(w) == u {
				w = c.PairV[idx]
			}
			if stamp[w] != mark {
				stamp[w] = mark
			} else if first < 0 || int(idx) < first {
				first = int(idx)
			}
		}
	}
	return first
}
