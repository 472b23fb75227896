// Command queryd serves analytical queries over a registry of
// published uncertain graphs: a long-lived HTTP/JSON daemon for the
// paper's consumption side (§1, §6), where releases accumulate per
// dataset, per ε, per epoch and one daemon hosts them all, backed by
// the batched possible-world query engine (worlds sampled once per
// request, one bit-parallel BFS per distinct source per group of up to
// 64 worlds, per-graph pools of zero-alloc buffers across requests).
//
// Usage:
//
//	queryd -graph published.ug [-graphs releases/] [-addr :8781]
//	       [-worlds 738] [-workers N] [-seed 1]
//	       [-max-worlds 20000] [-max-queries 1024]
//	       [-mem-budget 1073741824] [-max-knn-sources 64]
//	       [-global-mem-budget 8589934592] [-max-graphs 1024]
//	       [-tolerance 0.05] [-load-mode auto|mmap|heap]
//	       [-result-cache-budget 268435456] [-drain 10s]
//
// -graph loads one file and makes it the default graph (the legacy
// alias endpoints resolve to it); -graphs loads every *.ug and *.ugb
// in a directory, each named by its basename. At least one is
// required, and both compose. When exactly one graph is loaded it
// becomes the default either way.
//
// Formats are sniffed by magic, not extension: text files are parsed,
// binary .ugb files (see gengraph -convert / obfuscate -format binary)
// are memory-mapped, so their cold start is a page-table setup rather
// than a parse and their arrays live in the shared page cache.
// -load-mode overrides the mapping policy: auto (the default) maps where
// the platform supports it, mmap requires it, heap always reads into
// private memory.
//
// Endpoints:
//
//	GET    /healthz                          (limits + per-graph residency/eviction stats)
//	GET    /graphs                           (list with stats)
//	PUT    /graphs/{name}                    (publish a graph; ?worlds=&tolerance=&mem-budget= overrides)
//	POST   /graphs/{name}                    (same as PUT)
//	DELETE /graphs/{name}
//	GET    /graphs/{name}/reliability?s=0&t=5[&worlds=1000][&seed=7]
//	GET    /graphs/{name}/distance?s=0&t=5
//	GET    /graphs/{name}/knn?s=0&k=10
//	POST   /graphs/{name}/batch   {"worlds":1000,"queries":[{"op":"reliability","s":0,"t":5}, ...]}
//	GET    /reliability, /distance, /knn + POST /batch   (aliases for the default graph)
//
// Graphs are kept resident under -global-mem-budget: crossing it
// evicts the least-recently-used cold graphs, and the next request for
// an evicted graph reloads it from its source (the uploaded bytes or
// its file) transparently. Unless a request pins a seed, its world
// stream is derived from the server seed, the graph name and the
// request content, so identical requests return identical answers —
// bit-identical even across an evict/reload cycle.
//
// That determinism funds the result cache: complete answers are stored
// under -result-cache-budget bytes of LRU (default 256 MiB; 0 disables
// caching), keyed by graph release and fully resolved request content,
// so a repeated request is a lookup and N identical concurrent
// requests compute once (single-flight). Cached and coalesced answers
// are byte-identical to fresh recomputation; republishing or deleting
// a graph invalidates its entries. /healthz and /graphs report
// hit/miss/byte counters in "result_cache".
//
// The daemon shuts down gracefully: SIGINT or SIGTERM stops accepting
// new connections, lets in-flight requests drain for -drain (default
// 10s), then force-closes whatever remains — a dropped connection's
// request context cancels its batch run mid-flight — and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/ugbin"
)

func main() {
	var (
		gin        = flag.String("graph", "", "published uncertain graph to serve as the default graph")
		gdir       = flag.String("graphs", "", "directory of published graphs: every *.ug and *.ugb is loaded at startup, named by basename")
		addr       = flag.String("addr", ":8781", "listen address (port 0 picks a free port)")
		worlds     = flag.Int("worlds", 0, "default worlds per request (0 selects the Hoeffding default, 738)")
		maxWorlds  = flag.Int("max-worlds", qserve.DefaultMaxWorlds, "per-request worlds cap")
		maxQueries = flag.Int("max-queries", qserve.DefaultMaxQueries, "per-request query-count cap (>= 1)")
		memBudget  = flag.Int64("mem-budget", qserve.DefaultMemoryBudget, "per-request worst-case accumulator budget in bytes (over-budget requests get HTTP 413)")
		maxKNN     = flag.Int("max-knn-sources", qserve.DefaultMaxKNNSources, "per-request cap on distinct k-NN sources")
		globalMem  = flag.Int64("global-mem-budget", qserve.DefaultGlobalMemBudget, "resident-graph byte budget; crossing it evicts least-recently-used cold graphs")
		maxGraphs  = flag.Int("max-graphs", qserve.DefaultMaxGraphs, "cap on registered graphs (loaded or evicted)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent world evaluations per request (answers are identical for every value)")
		seed       = flag.Int64("seed", 1, "base seed for content-derived request streams")
		tol        = flag.Float64("tolerance", 0, "default adaptive-precision tolerance: requests stop sampling once every query's relative SEM is at most this (0 disables; requests may override via the \"tolerance\" field)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		loadMode   = flag.String("load-mode", "auto", "how binary .ugb graphs are brought into memory: auto (mmap where supported), mmap (required), heap (always copy)")
		cacheMem   = flag.Int64("result-cache-budget", qserve.DefaultResultCacheBudget, "result-cache byte budget: complete answers are cached (LRU) and identical concurrent requests coalesce; 0 disables")
	)
	flag.Parse()
	if *gin == "" && *gdir == "" {
		fatal(fmt.Errorf("need -graph and/or -graphs"))
	}
	if !(*tol >= 0) || math.IsInf(*tol, 0) {
		fatal(fmt.Errorf("-tolerance %v must be a finite non-negative number", *tol))
	}
	if *maxQueries < 1 {
		fatal(fmt.Errorf("-max-queries %d must be >= 1", *maxQueries))
	}
	if *globalMem < 1 {
		fatal(fmt.Errorf("-global-mem-budget %d must be >= 1", *globalMem))
	}
	if *cacheMem < 0 {
		fatal(fmt.Errorf("-result-cache-budget %d must be >= 0", *cacheMem))
	}
	mode, err := ugbin.ParseMode(*loadMode)
	if err != nil {
		fatal(err)
	}

	srv := &qserve.Server{
		Worlds:          *worlds,
		MaxWorlds:       *maxWorlds,
		MaxQueries:      *maxQueries,
		Workers:         *workers,
		Seed:            *seed,
		Tolerance:       *tol,
		MemoryBudget:    *memBudget,
		MaxKNNSources:   *maxKNN,
		GlobalMemBudget: *globalMem,
		MaxGraphs:       *maxGraphs,
		BinaryLoadMode:  mode,
		// Cache by default at the daemon level; the library default is
		// off so embedders (and the registry's own tests) opt in.
		ResultCacheBudget: *cacheMem,
	}

	if err := loadGraphs(srv, *gdir, *gin); err != nil {
		fatal(err)
	}
	graphs, totals := srv.GraphStats()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The address line goes to stdout unbuffered so supervisors (and the
	// smoke test) can read the chosen port before the first request.
	var vertices, pairs int
	for _, g := range graphs {
		vertices += g.Vertices
		pairs += g.Pairs
	}
	fmt.Printf("queryd: serving %d vertices / %d candidate pairs across %d graph(s) at http://%s\n",
		vertices, pairs, totals.Graphs, ln.Addr())
	for _, g := range graphs {
		def := ""
		if g.Name == srv.DefaultGraph {
			def = " (default)"
		}
		mem := fmt.Sprintf("%d resident bytes", g.ResidentBytes)
		if g.MappedBytes > 0 {
			mem = fmt.Sprintf("%d mapped bytes", g.MappedBytes)
		}
		fmt.Printf("queryd: graph %q: %d vertices / %d candidate pairs / %s%s\n",
			g.Name, g.Vertices, g.Pairs, mem, def)
	}
	httpServer := &http.Server{
		Handler: srv.Handler(),
		// Bound header/idle time so stalled clients cannot pin
		// goroutines and fds forever; no WriteTimeout, since a
		// max-worlds batch is allowed to compute for a while.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops the accept loop, in-flight
	// requests get *drain to finish, then the remaining connections are
	// force-closed (cancelling their request contexts, which aborts
	// their batch runs between groups of up to 64 worlds). Either way
	// the daemon exits 0 — a supervisor's stop is not an error.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-sigCtx.Done():
		stop() // restore default signal handling: a second signal kills
		fmt.Printf("queryd: shutting down (draining up to %s)\n", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := httpServer.Shutdown(shutCtx)
		cancel()
		if err != nil {
			// Drain deadline hit: force-close stragglers; their request
			// contexts cancel and the pooled batches stop mid-flight.
			httpServer.Close()
		}
		<-serveErr // Serve has returned ErrServerClosed by now
		fmt.Println("queryd: shutdown complete")
	}
}

// loadGraphs publishes the startup graphs into srv: every *.ug and
// *.ugb in dir (when non-empty, sorted so a name present in both
// serializations keeps the binary), then file (when non-empty) as the
// default graph. A one-graph registry serves the legacy alias
// endpoints too, whichever flag loaded it.
func loadGraphs(srv *qserve.Server, dir, file string) error {
	if dir != "" {
		paths, err := filepath.Glob(filepath.Join(dir, "*.ug"))
		if err != nil {
			return err
		}
		binPaths, err := filepath.Glob(filepath.Join(dir, "*.ugb"))
		if err != nil {
			return err
		}
		paths = append(paths, binPaths...)
		if len(paths) == 0 {
			return fmt.Errorf("-graphs %s: no *.ug or *.ugb files", dir)
		}
		sort.Strings(paths)
		for _, p := range paths {
			if _, err := srv.PublishFile(graphName(p), p, qserve.GraphConfig{}); err != nil {
				return err
			}
		}
	}
	if file != "" {
		name := graphName(file)
		if _, err := srv.PublishFile(name, file, qserve.GraphConfig{}); err != nil {
			return err
		}
		srv.DefaultGraph = name
	}
	if graphs, _ := srv.GraphStats(); srv.DefaultGraph == "" && len(graphs) == 1 {
		srv.DefaultGraph = graphs[0].Name
	}
	return nil
}

// graphName derives a registry name from a graph file path: the
// basename with the .ug or .ugb suffix dropped — so releases/d.ug and
// releases/d.ugb are alternate serializations of one name, not two
// graphs (loading both from one directory keeps the last in sort
// order, the binary).
func graphName(p string) string {
	base := filepath.Base(p)
	base = strings.TrimSuffix(base, ".ugb")
	return strings.TrimSuffix(base, ".ug")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "queryd:", err)
	os.Exit(1)
}
