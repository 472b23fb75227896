package uncertaingraph

import (
	"io"
	"math/rand"

	"uncertaingraph/internal/ugbin"
	"uncertaingraph/internal/uncertain"
)

// UncertainGraph is the publication object: a vertex set plus candidate
// pairs carrying edge-existence probabilities (paper Definition 1).
type UncertainGraph = uncertain.Graph

// Pair is a vertex pair with an existence probability.
type Pair = uncertain.Pair

// NewUncertainGraph builds an uncertain graph on n vertices from
// candidate pairs, validating vertices and probabilities.
func NewUncertainGraph(n int, pairs []Pair) (*UncertainGraph, error) {
	return uncertain.New(n, pairs)
}

// CertainGraph lifts a deterministic graph into an uncertain graph with
// all-probability-one edges.
func CertainGraph(g *Graph) *UncertainGraph { return uncertain.FromCertain(g) }

// SampleWorld draws one possible world: each candidate pair
// materializes independently with its probability (paper Eq. 1). The
// result is an independent graph; loops over many worlds should hold a
// WorldSampler instead.
//
// SampleWorld is a single-draw primitive and deliberately keeps its
// *rand.Rand parameter (seed it via NewRand); the long-running world
// loops — EstimateStatistics, QueryBatch — are the context-first,
// WithSeed-configured entry points of the v2 API.
func SampleWorld(g *UncertainGraph, rng *rand.Rand) *Graph { return g.SampleWorld(rng) }

// WorldSampler materializes possible worlds into preallocated CSR
// buffers: zero heap allocations per world, bit-identical to
// SampleWorld for equal RNG states. Sample draws from any *rand.Rand;
// SampleSeed(seed) draws the world Sample(NewRand(seed)) would from
// the sampler's own generator — the faster path the statistics loop
// uses when every world has its own seed. (Query batches draw the same
// worlds packed, 64 per word, and never materialize them.) The returned graph of each call
// is reused by the next, and a sampler serves one goroutine; see the
// README's "Graph representation & memory model" section.
type WorldSampler = uncertain.Sampler

// NewWorldSampler builds the reusable sampling state for g.
func NewWorldSampler(g *UncertainGraph) *WorldSampler { return g.NewSampler() }

// ReadUncertainGraph parses the "u v p" format written by
// WriteUncertainGraph.
func ReadUncertainGraph(r io.Reader) (*UncertainGraph, error) { return uncertain.Read(r) }

// WriteUncertainGraph serializes an uncertain graph.
func WriteUncertainGraph(w io.Writer, g *UncertainGraph) error { return uncertain.Write(w, g) }

// WriteUncertainGraphBinary serializes g in the versioned, checksummed
// binary .ugb format: the graph's columnar arrays laid out verbatim, so
// loading is a validation pass over sections rather than a parse. See
// the README's "On-disk format & cold start" section.
func WriteUncertainGraphBinary(w io.Writer, g *UncertainGraph) error { return ugbin.Write(w, g) }

// LoadUncertainGraphBinary brings the .ugb file at path into memory —
// memory-mapped where the platform supports it (the graph's arrays
// alias the page cache; loading costs a page-table setup) and read into
// the heap elsewhere.
func LoadUncertainGraphBinary(path string) (*UncertainGraph, error) { return ugbin.Load(path) }

// DecodeUncertainGraphBinary builds a graph over .ugb bytes already in
// memory, adopting 8-byte-aligned buffers zero-copy (data must then
// stay live and unmodified for the graph's lifetime; see
// UncertainGraph.MappedBytes).
func DecodeUncertainGraphBinary(data []byte) (*UncertainGraph, error) { return ugbin.Decode(data) }

// SniffUncertainGraphBinary reports whether the bytes begin with the
// .ugb magic — enough to route a file or upload between
// ReadUncertainGraph and the binary loader.
func SniffUncertainGraphBinary(prefix []byte) bool { return ugbin.Sniff(prefix) }
