package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/ugbin"
	"uncertaingraph/internal/uncertain"
)

// Stream tags separate the random streams derived from one workload
// seed.
const (
	tagTenant = iota + 1
	tagNovel
	tagCatalogue
	tagPicks
	tagSample
	tagWorlds
)

// Tenant releases: one fixed-σ Algorithm 2 probe each on the dblp tiny
// stand-in. The (k, ε) pair is loose enough that the probe succeeds for
// every seed; the releases only need to be realistic query targets.
const (
	tenantK     = 10
	tenantEps   = 0.1
	tenantSigma = 0.3
	tenantCount = 4
)

// Evaluate input: a full Algorithm 1 release of the dblp small stand-in.
const (
	evaluateK   = 10
	evaluateEps = 0.02
)

// standIn generates one of the repository's dataset stand-ins. The
// graph is fixed by the dataset spec; the workload seed varies what is
// done with it.
func standIn(name string, scale datasets.Scale) (*graph.Graph, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	d, err := datasets.Generate(spec, scale)
	if err != nil {
		return nil, err
	}
	return d.Graph, nil
}

func writeEdgeList(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeUncertain(path string, g *uncertain.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := uncertain.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// evaluateRelease publishes the evaluate workload's input: a
// (k=10, ε=0.02)-obfuscation of the dblp small stand-in, obfuscation
// seed 1.
func evaluateRelease() (*uncertain.Graph, error) {
	g, err := standIn("dblp", datasets.ScaleSmall)
	if err != nil {
		return nil, err
	}
	res, err := core.Obfuscate(context.Background(), g, core.Params{K: evaluateK, Eps: evaluateEps, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("evaluate input: %w", err)
	}
	return res.G, nil
}

// tenant is one graph the serve workloads publish to queryd.
type tenant struct {
	name, path string
	binary     bool
	g          *uncertain.Graph
}

// writeTenants writes the serve workloads' releases into dir: text
// (.ug) and binary (.ugb) alternately, all of the same size.
func writeTenants(dir string, seed int64) ([]tenant, error) {
	g, err := standIn("dblp", datasets.ScaleTiny)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]tenant, tenantCount)
	for i := range out {
		params := core.Params{K: tenantK, Eps: tenantEps, Seed: randx.Derive(seed, tagTenant, uint64(i))}
		att := core.GenerateObfuscation(g, tenantSigma, params)
		if att.Failed() {
			return nil, fmt.Errorf("tenant %d: no (k=%g, eps=%g)-obfuscation at sigma %g", i, params.K, params.Eps, tenantSigma)
		}
		t := tenant{name: fmt.Sprintf("t%d", i), binary: i%2 == 1, g: att.G}
		if t.binary {
			t.path = filepath.Join(dir, t.name+".ugb")
			err = ugbin.WriteFile(t.path, att.G)
		} else {
			t.path = filepath.Join(dir, t.name+".ug")
			err = writeUncertain(t.path, att.G)
		}
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// textBudget is a -global-mem-budget that holds one text tenant but
// not two, so alternating requests evict and reload them.
func textBudget(ts []tenant) int64 {
	var fp int64
	for _, t := range ts {
		if !t.binary {
			fp = max(fp, t.g.FootprintBytes())
		}
	}
	return fp + fp/2
}

// request is one HTTP request of a serve workload.
type request struct {
	Method, Path string
	Body         []byte
}

func (r request) key() string { return r.Method + " " + r.Path + " " + string(r.Body) }

// Request-mix parameters. The repository holds no query log, so none of
// them is measured; README.md gives the source of each.
const (
	// knnK is the k of every k-NN query: the k of queryd's documented
	// k-NN example.
	knnK = 10
	// maxBatch is the largest number of queries in a batch.
	maxBatch = 4
	// toleranceShare is the share of serve-novel requests that re-ask the
	// previous request's queries with an adaptive-precision tolerance: a
	// distinct request (the tolerance is part of the cache key) on the
	// same world stream, which queryd may share between concurrent
	// requests.
	toleranceShare = 0.25
	// tolerance is the documented example tolerance of the repository's
	// adaptive-precision runs.
	tolerance = 0.05
	// zipfS is the exponent of the serve-repeat popularity law.
	zipfS = 1.1
)

// queryOps are the three query kinds, drawn with equal probability.
var queryOps = []string{"reliability", "distance", "knn"}

// drawQuery draws a query of the given op over uniform vertices of an
// n-vertex graph.
func drawQuery(rng *rand.Rand, n int, op string) qserve.QueryRequest {
	s := rng.Intn(n)
	if op == "knn" {
		return qserve.QueryRequest{Op: op, S: s, K: knnK}
	}
	return qserve.QueryRequest{Op: op, S: s, T: (s + 1 + rng.Intn(n-1)) % n}
}

// drawBatch draws a POST batch against one tenant: size queries whose
// ops are picked by op(j) for the j-th.
func drawBatch(rng *rand.Rand, tenants []tenant, size int, op func(j int) string) (string, qserve.BatchRequest) {
	t := tenants[rng.Intn(len(tenants))]
	req := qserve.BatchRequest{Queries: make([]qserve.QueryRequest, size)}
	for j := range req.Queries {
		req.Queries[j] = drawQuery(rng, t.g.NumVertices(), op(j))
	}
	return t.name, req
}

func batchRequest(name string, req qserve.BatchRequest) request {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data always encodes
	}
	return request{Method: "POST", Path: "/graphs/" + name + "/batch", Body: body}
}

// novelRequests returns count pairwise-distinct batch requests, the
// same bytes for the same seed.
func novelRequests(seed int64, tenants []tenant, count int) []request {
	rng := randx.New(randx.Derive(seed, tagNovel))
	seen := make(map[string]bool, count)
	out := make([]request, 0, count)
	var name string
	var prev *qserve.BatchRequest
	for len(out) < count {
		var req qserve.BatchRequest
		if prev != nil && prev.Tolerance == nil && rng.Float64() < toleranceShare {
			tol := tolerance
			req = qserve.BatchRequest{Queries: prev.Queries, Tolerance: &tol}
		} else {
			name, req = drawBatch(rng, tenants, 1+rng.Intn(maxBatch), func(int) string { return queryOps[rng.Intn(len(queryOps))] })
		}
		prev = &req
		if r := batchRequest(name, req); !seen[r.key()] {
			seen[r.key()] = true
			out = append(out, r)
		}
	}
	return out
}

// catalogue returns size pairwise-distinct recurring requests, index 0
// the most popular. The shape of the request at each rank is fixed, so
// that every seed serves the same mix of reply sizes at the same
// popularity: even ranks are GET single-query endpoints cycling through
// the three ops, odd ranks POST batches of 1..maxBatch queries in turn
// with their ops cycling too. The seed picks the tenants and vertices.
func catalogue(seed int64, tenants []tenant, size int) []request {
	rng := randx.New(randx.Derive(seed, tagCatalogue))
	seen := make(map[string]bool, size)
	out := make([]request, 0, size)
	for len(out) < size {
		i := len(out)
		var r request
		if i%2 == 0 {
			t := tenants[rng.Intn(len(tenants))]
			q := drawQuery(rng, t.g.NumVertices(), queryOps[i/2%len(queryOps)])
			if q.Op == "knn" {
				r = request{Method: "GET", Path: fmt.Sprintf("/graphs/%s/knn?s=%d&k=%d", t.name, q.S, q.K)}
			} else {
				r = request{Method: "GET", Path: fmt.Sprintf("/graphs/%s/%s?s=%d&t=%d", t.name, q.Op, q.S, q.T)}
			}
		} else {
			r = batchRequest(drawBatch(rng, tenants, 1+i/2%maxBatch, func(j int) string { return queryOps[(i/2+j)%len(queryOps)] }))
		}
		if !seen[r.key()] {
			seen[r.key()] = true
			out = append(out, r)
		}
	}
	return out
}

// zipfPicks returns count catalogue indices drawn from a Zipf law over
// size ranks (index 0 is the most popular).
func zipfPicks(seed int64, size, count int) []int32 {
	rng := randx.New(randx.Derive(seed, tagPicks))
	z := rand.NewZipf(rng, zipfS, 1, uint64(size-1))
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}
