// Package uncertaingraph implements identity obfuscation for social
// graphs by injecting edge uncertainty, reproducing Boldi, Bonchi,
// Gionis and Tassa, "Injecting Uncertainty in Graphs for Identity
// Obfuscation", PVLDB 5(11), 2012.
//
// Instead of deleting or adding edges outright, the published graph
// assigns each candidate edge a probability of existence. The package
// provides:
//
//   - the (k, ε)-obfuscation algorithm (Obfuscate) that finds the
//     minimal noise level σ at which all but an ε-fraction of vertices
//     hide in an entropy-measured crowd of size k;
//   - the uncertain-graph model (UncertainGraph) with possible-world
//     sampling and closed-form expected degree statistics;
//   - the adversary machinery (ObfuscationLevels, VerifyObfuscation)
//     shared with the random-perturbation baselines (Sparsify, Perturb)
//     the paper compares against;
//   - graph statistics (Statistics, EstimateStatistics, RunVector)
//     including HyperANF-based distance distributions, for measuring
//     the utility of published graphs;
//   - query serving over published graphs (QueryBatch, the engine
//     behind cmd/queryd): reliability, distance distributions and
//     median-distance k-NN against one shared world sample, with
//     target-resolved early-exit BFS for reliability/distance-only
//     sources and a per-request memory budget (WithMemoryBudget).
//
// # API v2: context-first entry points
//
// Every long-running operation takes a context.Context first and is
// configured by functional options:
//
//	res, err := uncertaingraph.Obfuscate(ctx, g,
//	    uncertaingraph.WithK(20), uncertaingraph.WithEps(1e-3),
//	    uncertaingraph.WithSeed(1))
//	rep, err := uncertaingraph.EstimateStatistics(ctx, res.G,
//	    uncertaingraph.WithWorlds(100), uncertaingraph.WithSeed(7))
//	b, err := uncertaingraph.NewQueryBatch(res.G,
//	    uncertaingraph.WithWorlds(1000))
//	id := b.AddReliability(0, 5)
//	err = b.Run(ctx)
//
// Cancelling the context aborts the operation promptly — between σ
// probes and scan chunks in Obfuscate, between sampled worlds in
// EstimateStatistics and QueryBatch.Run — joins every worker goroutine
// (nothing leaks), and returns ctx.Err(). cmd/queryd wires each HTTP
// request's context into its batch run, so a dropped connection stops
// its BFS work mid-flight.
//
// One determinism contract covers all entry points: WithSeed fixes the
// base seed, every internal RNG stream is derived from it per (σ,
// trial) pair or per world (internal/randx.Derive), and WithWorkers
// only trades wall-clock time — results are bit-identical for every
// worker count, every schedule, and every cancellation that does not
// abort the run. Invalid option values (negative workers, non-positive
// worlds, k < 1, negative memory budgets) are rejected with errors
// wrapping ErrBadConfig rather than silently clamped.
//
// Statistic estimation and query batches run on one possible-world
// loop, internal/worldloop, which owns the world seeds, the block
// schedule and the worker split. The worker budget has two composable
// axes. The loop spends it across sampled worlds while there are
// enough queued walks to absorb it, and spills the leftover budget
// into each world's BFS when there are not (one large query over few
// worlds, the tail block of an adaptive run): the per-world traversal
// itself then runs as a direction-optimizing frontier walk — push over
// the sparse frontier list, pull over unvisited vertices once the
// frontier is dense — parallelized over fixed 512-vertex chunks.
// Because BFS distances are a function of the level sets alone and the
// direction heuristic is driven by integer totals, the split is
// invisible in results: the same bit-identity holds within a world as
// across worlds. See the README's "Intra-world parallelism"
// subsection.
//
// WithTolerance(tol) turns fixed-r Monte-Carlo runs adaptive: the
// estimation pipeline and query batches walk their world budget in
// fixed 32-world blocks (worldloop.Block) and stop at the first block
// barrier where every statistic's (or query's) relative standard error
// of the mean is inside tol; WithMaxWorlds caps the adaptive budget. A
// stopped run is bit-identical to the same-length prefix of an
// uncancelled fixed-r run, for every worker count — the stopping
// decision is computed from canonically merged integer counts, so
// scheduling cannot move it. Report.WorldsUsed and Report.Converged (and
// Batch.WorldsRun/Batch.Converged) expose what a run spent and which
// estimates were inside tolerance. k-NN rankings carry no scalar
// confidence interval, so a batch containing one runs its full
// budget. See the README's "Adaptive precision" section.
//
// WithMemoryBudget bounds a query batch's accumulator memory: Run
// rejects a query set whose worst-case k-NN histogram footprint
// (distinct k-NN sources × n² int32 counters × workers) exceeds the
// budget with an error wrapping ErrOverBudget, and Reset sheds
// retained high-water buffers above it, so a pooled batch serving
// mixed traffic keeps bounded memory. qserve applies the same pricing
// per HTTP request (rejections are 413) plus a distinct-k-NN-source
// cap.
//
// Serving lives in cmd/queryd (HTTP daemon) over internal/qserve: a
// registry of named published graphs, each with its own batch pool
// and optional per-graph worlds/tolerance/memory-budget overrides,
// under a global memory budget with LRU eviction — an evicted graph
// reloads from its retained source on the next request and answers
// bit-identically. See the README's "Multi-tenant serving" section.
//
// Published graphs serialize two ways. WriteUncertainGraph emits the
// line-oriented "u v p" text format; WriteUncertainGraphBinary emits
// the versioned, checksummed binary .ugb container whose sections are
// exactly the graph's in-memory columnar arrays, so
// LoadUncertainGraphBinary brings a file up by memory-mapping it
// (falling back to a heap read where mmap is unavailable) with zero
// parsing and zero allocation proportional to graph size — cold starts
// and post-eviction reloads cost a page-table setup instead of a
// parse, and answers are bit-identical across both load paths.
// DecodeUncertainGraphBinary adopts in-memory .ugb bytes zero-copy and
// SniffUncertainGraphBinary routes between the formats by magic;
// cmd/queryd sniffs uploads and *.ug/*.ugb files the same way, and
// gengraph -convert / obfuscate -format binary produce the files. See
// the README's "On-disk format & cold start" section.
//
// The top-level API is a thin facade over the internal packages; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package uncertaingraph
