package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/uncertain"
)

// Result is the output of Algorithm 1.
type Result struct {
	// G is the published (k, ε̃)-obfuscation.
	G *uncertain.Graph
	// Sigma is the smallest noise level at which an obfuscation was
	// found (the value reported in paper Table 2).
	Sigma float64
	// EpsTilde is the achieved non-obfuscated fraction (ε̃ <= ε).
	EpsTilde float64
	// Generations counts the GenerateObfuscation probes the sequential
	// search consumes, and Trials the inner attempts those probes
	// examine (t per probe — best-of-t selection looks at every trial) —
	// the work measure behind the paper's Table 3 throughput.
	// Speculative probes whose results are discarded are not counted,
	// so both numbers are identical for every Workers value.
	Generations int
	Trials      int
}

// ErrNoObfuscation is returned when the doubling phase exhausts MaxSigma
// without finding any (k, ε)-obfuscation; the paper's remedy is to raise
// the candidate multiplier c (their two (*) cases use c = 3).
var ErrNoObfuscation = errors.New("core: no (k,eps)-obfuscation found up to MaxSigma; consider increasing C")

// doublingLookahead is how many σ candidates beyond the current one the
// feasibility phase probes speculatively (2 extra = 3 in flight, the
// doubling phase rarely runs longer before succeeding).
const doublingLookahead = 2

// Obfuscate is Algorithm 1: it finds, by binary search over the noise
// parameter σ, a minimal-uncertainty (k, ε)-obfuscation of g.
//
// Every σ probe is a pure function of (g, σ, params.Seed): the per-trial
// RNG streams are derived from the σ bits, not from probe visit order.
// When params.Workers > 1 the search exploits that purity by probing
// speculatively — the next doubling candidates during the feasibility
// phase, and the two quartile midpoints alongside each binary-search
// midpoint — and cancels speculative probes the sequential search would
// never visit. The returned Result (σ, ε̃, published pairs, and both
// work counters) is bit-identical for every Workers value.
//
// Cancelling ctx aborts the search: in-flight probes observe the
// derived per-probe contexts at trial and scan-chunk granularity, every
// probe goroutine is joined, and ctx.Err() is returned. A nil ctx never
// cancels. Cancellation cannot perturb results — a run that completes
// returns exactly what an uncancelled run would have.
func Obfuscate(ctx context.Context, g *graph.Graph, params Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if name, v := NonFinite(params); name != "" {
		return nil, fmt.Errorf("core: %s = %v must be finite", name, v)
	}
	params = params.withDefaults()
	if params.K < 1 {
		return nil, fmt.Errorf("core: k = %v must be >= 1", params.K)
	}
	if params.Eps < 0 || params.Eps >= 1 {
		return nil, fmt.Errorf("core: eps = %v must be in [0, 1)", params.Eps)
	}
	if g.NumEdges() == 0 {
		return nil, errors.New("core: graph has no edges to obfuscate")
	}
	params.Seed = params.resolveSeed()

	pr := newProber(ctx, g, params)
	speculate := params.workerCount() > 1

	res := &Result{EpsTilde: math.Inf(1)}
	fail := func(err error) (*Result, error) {
		pr.shutdown()
		return nil, err
	}
	consume := func(sigma float64, total int) (Attempt, error) {
		att, examined, err := pr.get(sigma)
		if err != nil {
			return Attempt{}, err
		}
		res.Generations++
		res.Trials += examined
		if params.Progress != nil {
			params.Progress(res.Generations, total)
		}
		return att, nil
	}

	// Doubling phase (lines 1-6): find a feasible upper bound σ_u. The
	// probe total is unknown until this phase bounds the search, so
	// Progress reports total 0 here.
	sigmaU := params.SigmaInit
	var found Attempt
	for {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		pr.ensure(sigmaU)
		if speculate {
			for i, s := 0, sigmaU*2; i < doublingLookahead && s <= params.MaxSigma; i, s = i+1, s*2 {
				pr.ensure(s)
			}
		}
		var err error
		found, err = consume(sigmaU, 0)
		if err != nil {
			return fail(err)
		}
		if !found.Failed() {
			// The binary search stays below σ_u: speculative probes at
			// larger σ are dead.
			pr.cancelAbove(sigmaU)
			break
		}
		sigmaU *= 2
		if sigmaU > params.MaxSigma {
			pr.shutdown()
			return nil, ErrNoObfuscation
		}
	}
	res.G, res.Sigma, res.EpsTilde = found.G, sigmaU, found.EpsTilde

	// Binary search (lines 8-12) on [0, σ_u], keeping the last success.
	sigmaL := 0.0
	for sigmaL+params.Delta < sigmaU {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		sigma := (sigmaL + sigmaU) / 2
		pr.ensure(sigma)
		// Speculate on the two quartiles: whichever way this midpoint
		// resolves, the next midpoint is one of them (guarded by the
		// same termination test the loop itself uses).
		lowQ, highQ := (sigmaL+sigma)/2, (sigma+sigmaU)/2
		if speculate {
			if sigmaL+params.Delta < sigma {
				pr.ensure(lowQ)
			}
			if sigma+params.Delta < sigmaU {
				pr.ensure(highQ)
			}
		}
		attempt, err := consume(sigma, res.Generations+binarySteps(sigmaU-sigmaL, params.Delta))
		if err != nil {
			return fail(err)
		}
		if attempt.Failed() {
			sigmaL = sigma
			pr.cancel(lowQ) // the search moved above σ; [σ_l, σ) is dead
		} else {
			sigmaU = sigma
			res.G, res.Sigma, res.EpsTilde = attempt.G, sigma, attempt.EpsTilde
			pr.cancel(highQ) // the search moved below σ; (σ, σ_u] is dead
		}
	}
	pr.shutdown()
	return res, nil
}

// binarySteps returns how many more midpoint probes the binary search
// consumes before an interval of the given width shrinks below delta —
// the remaining-work estimate behind Params.Progress totals.
func binarySteps(width, delta float64) int {
	steps := 0
	for width > delta && steps < 64 {
		width /= 2
		steps++
	}
	return steps
}

// probeTask is one in-flight or finished evaluation of a σ probe. Each
// task owns a context derived from the search's: cancelling it reaps
// the probe (speculation gone dead, or the whole search cancelled) at
// trial and scan-chunk granularity.
type probeTask struct {
	sigma    float64
	done     chan struct{}
	ctx      context.Context
	cancel   context.CancelFunc
	att      Attempt
	examined int
	// aborted records that the task observed its context cancelled and
	// bailed out early; its att is not the pure probe value and must
	// never be consumed.
	aborted bool
	// panicked holds a panic of the probe's goroutine, which get
	// re-raises on the search's goroutine.
	panicked *parallel.WorkerPanic
}

// capture records a panic of the probe's goroutine instead of letting
// it end the process.
func (t *probeTask) capture() {
	if v := recover(); v != nil {
		t.panicked = parallel.Recovered(v)
	}
}

// prober evaluates σ probes asynchronously and memoizes them by σ value.
// Because probes are pure, a memoized result is exactly what re-running
// the probe would produce, so speculative evaluation cannot perturb the
// search path.
type prober struct {
	ctx context.Context
	// run is the state the probes share, built once before any probe
	// starts: the property values, the edge table and the trial arenas.
	run *run

	mu    sync.Mutex
	tasks map[float64]*probeTask
}

func newProber(ctx context.Context, g *graph.Graph, params Params) *prober {
	return &prober{
		ctx:   ctx,
		run:   newRun(g, params),
		tasks: make(map[float64]*probeTask),
	}
}

// ensure starts evaluating σ if no live task exists for it.
func (p *prober) ensure(sigma float64) *probeTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ensureLocked(sigma)
}

func (p *prober) ensureLocked(sigma float64) *probeTask {
	if t, ok := p.tasks[sigma]; ok {
		return t
	}
	taskCtx, cancel := context.WithCancel(p.ctx)
	t := &probeTask{
		sigma:  sigma,
		done:   make(chan struct{}),
		ctx:    taskCtx,
		cancel: cancel,
	}
	p.tasks[sigma] = t
	go func() {
		defer close(t.done)
		defer t.capture()
		if hook := p.run.params.beforeProbe; hook != nil {
			hook(sigma)
		}
		t.att, t.examined = generateObfuscation(taskCtx, p.run, sigma)
		t.aborted = taskCtx.Err() != nil
	}()
	return t
}

// get blocks until the probe at σ is available and returns its attempt
// and examined-trial count. A task cancelled before finishing is
// discarded and re-evaluated (purity makes the retry exact) unless the
// search context itself is done, in which case get returns its error;
// the re-evaluation path is defensive — the search only cancels probes
// it never revisits. A probe that panicked has its panic re-raised
// here, on the caller's goroutine, as a *parallel.WorkerPanic, after
// every other probe has been cancelled and joined.
func (p *prober) get(sigma float64) (Attempt, int, error) {
	for {
		t := p.ensure(sigma)
		<-t.done
		if t.panicked != nil {
			p.shutdown()
			panic(t.panicked)
		}
		if !t.aborted {
			t.cancel() // release the task's derived context
			return t.att, t.examined, nil
		}
		if err := p.ctx.Err(); err != nil {
			return Attempt{}, 0, err
		}
		p.mu.Lock()
		if p.tasks[sigma] == t {
			delete(p.tasks, sigma)
		}
		p.mu.Unlock()
	}
}

// cancel abandons the probe at σ, if one is in flight.
func (p *prober) cancel(sigma float64) {
	p.mu.Lock()
	t, ok := p.tasks[sigma]
	p.mu.Unlock()
	if ok {
		t.cancel()
	}
}

// cancelAbove abandons every probe with σ strictly greater than bound —
// used when the feasibility phase settles an upper bound (speculative
// doublings beyond it are dead).
func (p *prober) cancelAbove(bound float64) {
	p.mu.Lock()
	var doomed []*probeTask
	for s, t := range p.tasks {
		if s > bound {
			doomed = append(doomed, t)
		}
	}
	p.mu.Unlock()
	for _, t := range doomed {
		t.cancel()
	}
}

// shutdown cancels every remaining probe and joins their goroutines, so
// no speculative work is still reading the graph — or stealing cores
// from the caller's next run — after Obfuscate returns. Cancellation is
// observed between trial stages and per scan chunk, which bounds the
// wait; every task's derived context is released.
func (p *prober) shutdown() {
	p.mu.Lock()
	tasks := make([]*probeTask, 0, len(p.tasks))
	for _, t := range p.tasks {
		tasks = append(tasks, t)
	}
	p.mu.Unlock()
	for _, t := range tasks {
		t.cancel()
	}
	for _, t := range tasks {
		<-t.done
	}
}
