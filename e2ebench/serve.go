package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/ugbin"
)

const (
	// setupLaunches is how many times a serve workload launches and
	// warms the daemon; the median is set-up time and the last launch
	// serves the window.
	setupLaunches = 3
	// catalogueSize is the number of recurring serve-repeat requests.
	catalogueSize = 32
	// verifySample is how many serve-novel window replies are recomputed
	// in-process after the window.
	verifySample = 24
	// replayCount is how many requests the traced serve run replays one
	// at a time through both the daemon and an in-process handler.
	replayCount = 16
	// sampleWorlds is how many worlds per replayed request the traced
	// run samples to time the sampler and the BFS.
	sampleWorlds = 4
)

// daemon is a running cmd/queryd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	copied chan struct{} // closed once stdout reaches EOF
	stderr bytes.Buffer
}

// startDaemon launches queryd and returns once it listens, which it
// does only after every startup graph is published.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), copied: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.copied)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " at http://"); !sent && i >= 0 && strings.HasPrefix(line, "queryd: serving") {
				addr <- line[i+len(" at "):]
				sent = true
			}
		}
		close(addr)
	}()
	select {
	case base, ok := <-addr:
		if ok {
			d.base = base
			return d, nil
		}
		err = fmt.Errorf("queryd exited before listening")
	case <-time.After(60 * time.Second):
		err = fmt.Errorf("queryd did not listen within 60 s")
	}
	_ = d.cmd.Process.Kill()
	<-d.copied
	_ = d.cmd.Wait()
	return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(d.stderr.String()))
}

// stop shuts the daemon down with SIGTERM, killing it if it has not
// exited after 20 s, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.copied
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("queryd: %v: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// loadClient is the single generator's connection set: one HTTP client
// per connection, each limited to one keep-alive connection, so a
// closed loop over n clients holds exactly n connections.
type loadClient struct {
	hcs   []*http.Client
	dials atomic.Int64
}

func newLoadClient(n int) *loadClient {
	c := &loadClient{}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	for i := 0; i < n; i++ {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     5 * time.Minute,
		}
		c.hcs = append(c.hcs, &http.Client{Transport: tr, Timeout: 2 * time.Minute})
	}
	return c
}

func (c *loadClient) close() {
	for _, hc := range c.hcs {
		hc.CloseIdleConnections()
	}
}

// send issues one request and reads the reply to its last byte, so the
// connection goes back to the pool for reuse.
func send(hc *http.Client, base string, rq request) (int, []byte, error) {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	req, err := http.NewRequest(rq.Method, base+rq.Path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// sendAll sends reqs over every connection, one request in flight per
// connection, and returns the replies in request order.
func (c *loadClient) sendAll(base string, reqs []request) ([]int, [][]byte, error) {
	statuses := make([]int, len(reqs))
	bodies := make([][]byte, len(reqs))
	errs := make([]error, len(c.hcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, hc := range c.hcs {
		wg.Add(1)
		go func(w int, hc *http.Client) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				st, b, err := send(hc, base, reqs[i])
				if err != nil {
					errs[w] = err
					return
				}
				statuses[i], bodies[i] = st, b
			}
		}(w, hc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return statuses, bodies, nil
}

// closedLoop keeps one request in flight per connection until dur has
// passed: each connection sends its next request only after the last
// byte of the previous reply. next hands out request indices (false
// when none are left); onReply sees every reply and may be called
// concurrently.
func (c *loadClient) closedLoop(base string, dur time.Duration, tr *tracer, next func() (int, bool), reqAt func(int) request, onReply func(i, status int, body []byte, err error)) windowStats {
	lats := make([][]float64, len(c.hcs))
	spans := make([][]interval, len(c.hcs))
	var wg sync.WaitGroup
	clk := startStealClock()
	cpu0 := selfCPU()
	start := time.Now()
	for w, hc := range c.hcs {
		wg.Add(1)
		go func(w int, hc *http.Client) {
			defer wg.Done()
			for time.Since(start) < dur {
				i, ok := next()
				if !ok {
					return
				}
				id := tr.begin("client", -1, i)
				t := time.Now()
				st, body, err := send(hc, base, reqAt(i))
				end := time.Now()
				lats[w] = append(lats[w], ms(end.Sub(t)))
				spans[w] = append(spans[w], interval{t, end})
				tr.end(id)
				onReply(i, st, body, err)
			}
		}(w, hc)
	}
	wg.Wait()
	ws := windowStats{length: time.Since(start), cpu: selfCPU() - cpu0}
	var all []interval
	for w := range lats {
		ws.lat = append(ws.lat, lats[w]...)
		all = append(all, spans[w]...)
	}
	ws.ops = len(ws.lat)
	ws.closeWindow(clk, all)
	return ws
}

// health is the part of /healthz and /graphs the benchmark reads.
type health struct {
	Registry    qserve.RegistryStats    `json:"registry"`
	ResultCache qserve.ResultCacheStats `json:"result_cache"`
	Graphs      []qserve.GraphStats     `json:"graphs"`
}

func (h health) reloads() uint64 {
	var n uint64
	for _, g := range h.Graphs {
		n += g.Misses
	}
	return n
}

func getHealth(hc *http.Client, base, path string) (health, error) {
	st, b, err := send(hc, base, request{Method: "GET", Path: path})
	if err != nil {
		return health{}, err
	}
	if st != http.StatusOK {
		return health{}, fmt.Errorf("GET %s: status %d: %s", path, st, b)
	}
	var h health
	if err := json.Unmarshal(b, &h); err != nil {
		return health{}, fmt.Errorf("GET %s: %w", path, err)
	}
	return h, nil
}

// snapshot reads /healthz and /graphs and checks they agree on the
// tenant count.
func snapshot(hc *http.Client, base string) (health, error) {
	h, err := getHealth(hc, base, "/healthz")
	if err != nil {
		return health{}, err
	}
	g, err := getHealth(hc, base, "/graphs")
	if err != nil {
		return health{}, err
	}
	if len(h.Graphs) != tenantCount || len(g.Graphs) != tenantCount {
		return health{}, fmt.Errorf("queryd lists %d graphs in /healthz and %d in /graphs, want %d", len(h.Graphs), len(g.Graphs), tenantCount)
	}
	return h, nil
}

// serveEnv is what both serve workloads share: the tenants on disk, the
// memory budget, and the daemon launched for the window.
type serveEnv struct {
	r       *runner
	dir     string
	tenants []tenant
	budget  int64
	d       *daemon
	lc      *loadClient
}

func newServeEnv(r *runner) (*serveEnv, error) {
	dir := r.path("tenants")
	ts, err := writeTenants(dir, r.seed)
	if err != nil {
		return nil, err
	}
	return &serveEnv{r: r, dir: dir, tenants: ts, budget: textBudget(ts)}, nil
}

// launch starts queryd at its defaults over the tenants, with a global
// memory budget that holds one text tenant, and runs warm on it. It is
// repeated setupLaunches times; every launch but the last is stopped.
// Set-up time is the median over launches of the daemon's CPU time from
// its start until warm-up is done.
func (e *serveEnv) launch(warm func(lc *loadClient, base string) error) ([]float64, error) {
	var setup []float64
	for i := 0; i < setupLaunches; i++ {
		d, err := startDaemon(e.r.binary("queryd"), "-graphs", e.dir, "-addr", "127.0.0.1:0",
			"-global-mem-budget", strconv.FormatInt(e.budget, 10))
		if err != nil {
			return nil, err
		}
		lc := newLoadClient(e.r.nproc)
		var cpu time.Duration
		if _, err = snapshot(lc.hcs[0], d.base); err == nil {
			err = warm(lc, d.base)
		}
		if err == nil {
			cpu, err = procCPU(d.pid())
		}
		setup = append(setup, cpu.Seconds())
		if err != nil || i < setupLaunches-1 {
			lc.close()
			if stopErr := d.stop(); err == nil {
				err = stopErr
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		e.d, e.lc = d, lc
	}
	return setup, nil
}

// shutdown stops the daemon kept for the window.
func (e *serveEnv) shutdown() error {
	if e.d == nil {
		return nil
	}
	e.lc.close()
	err := e.d.stop()
	e.d = nil
	return err
}

// window runs the closed loop (split in halves when traced), reads the
// daemon's counters and resource use around the measured part, and
// reports the end-to-end metrics and generator diagnostics.
func (e *serveEnv) window(setup []float64, next func() (int, bool), reqAt func(int) request, onReply func(i, status int, body []byte, err error)) (windowStats, health, health, error) {
	var before, after health
	var dcpu time.Duration
	var err error
	ws := e.r.windows(func(dur time.Duration, tr *tracer) windowStats {
		var c0, c1 time.Duration
		if err == nil {
			before, err = snapshot(e.lc.hcs[0], e.d.base)
		}
		if err == nil {
			c0, err = procCPU(e.d.pid())
		}
		if err != nil {
			return windowStats{lat: []float64{0}, unstolen: []float64{0}} // discarded
		}
		ws := e.lc.closedLoop(e.d.base, dur, tr, next, reqAt, onReply)
		e.r.out.attempted += ws.ops
		if c1, err = procCPU(e.d.pid()); err == nil {
			after, err = snapshot(e.lc.hcs[0], e.d.base)
		}
		dcpu = c1 - c0
		return ws
	})
	if err != nil {
		return ws, before, after, err
	}
	if ws.rss, err = procPeakRSSMiB(e.d.pid()); err != nil {
		return ws, before, after, err
	}
	ws.opCPU = ms(dcpu) / float64(ws.ops)
	e.r.reportWindow(ws, setup, "request", "queryd CPU over the window per request", "queryd VmHWM at the end of the window")
	per1k := 1000 / float64(ws.ops)
	e.r.out.set("daemon.cpu_s", dcpu.Seconds()*per1k, "s/1000req", ws.ops, "queryd CPU per 1,000 requests")
	e.r.out.set("client.cpu_s", ws.cpu.Seconds()*per1k, "s/1000req", ws.ops, "generator CPU per 1,000 requests")
	dials := e.lc.dials.Load()
	e.r.out.set("client.dials", float64(dials), "count", 0, fmt.Sprintf("connections opened; must equal nproc (%d)", e.r.nproc))
	if int(dials) != e.r.nproc {
		// A re-dial means a keep-alive connection closed under the load;
		// the replies are still checked one by one, so it is reported
		// rather than failed.
		fmt.Fprintf(os.Stderr, "e2ebench: warning: the generator dialled %d connections, want nproc = %d\n", dials, e.r.nproc)
	}
	return ws, before, after, nil
}

// inProcessServer builds a qserve.Server configured like queryd at its
// defaults, with the same tenants and budget, for recomputing replies
// and timing the handler without the network.
func (e *serveEnv) inProcessServer() (http.Handler, error) {
	srv := &qserve.Server{
		MaxWorlds:         qserve.DefaultMaxWorlds,
		MaxQueries:        qserve.DefaultMaxQueries,
		Workers:           e.r.nproc,
		Seed:              1,
		MemoryBudget:      qserve.DefaultMemoryBudget,
		MaxKNNSources:     qserve.DefaultMaxKNNSources,
		GlobalMemBudget:   e.budget,
		MaxGraphs:         qserve.DefaultMaxGraphs,
		BinaryLoadMode:    ugbin.ModeAuto,
		ResultCacheBudget: qserve.DefaultResultCacheBudget,
	}
	for _, t := range e.tenants {
		if _, err := srv.PublishFile(t.name, t.path, qserve.GraphConfig{}); err != nil {
			return nil, err
		}
	}
	return srv.Handler(), nil
}

// serveInProcess answers rq through h without the network.
func serveInProcess(h http.Handler, rq request) (int, []byte) {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(rq.Method, rq.Path, body))
	return rec.Code, rec.Body.Bytes()
}

// replyLog collects the window's replies by request index.
type replyLog struct {
	mu       sync.Mutex
	statuses map[int]int
	bodies   map[int][]byte
	failed   int
	problems []string
}

func newReplyLog() *replyLog {
	return &replyLog{statuses: map[int]int{}, bodies: map[int][]byte{}}
}

func (l *replyLog) add(i, status int, body []byte, err error, keepBody bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.statuses[i] = status
	if keepBody {
		l.bodies[i] = body
	}
	if err != nil || status != http.StatusOK {
		l.failed++
		if len(l.problems) < 5 {
			l.problems = append(l.problems, fmt.Sprintf("request %d: status %d, error %v: %.200s", i, status, err, body))
		}
	}
}

func (l *replyLog) mismatch(format string, a ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, a...))
	}
}

func (l *replyLog) flush(o *outcome) {
	o.failed += l.failed
	o.problems = append(o.problems, l.problems...)
}

// counter hands out indices 0..n-1 to the closed loop.
func counter(n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

// runServeNovel drives queryd with distinct batches, so every request
// misses the result cache and computes.
func runServeNovel(r *runner) (err error) {
	e, err := newServeEnv(r)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := e.shutdown(); err == nil {
			err = stopErr
		}
	}()
	warmN := 2 * r.nproc
	capN := 2000 * int(r.window/time.Second)
	seq := novelRequests(r.seed, e.tenants, warmN+capN+replayCount)
	warm, timed, replay := seq[:warmN], seq[warmN:warmN+capN], seq[warmN+capN:]

	setup, err := e.launch(func(lc *loadClient, base string) error {
		st, _, err := lc.sendAll(base, warm)
		if err != nil {
			return err
		}
		for i, s := range st {
			if s != http.StatusOK {
				return fmt.Errorf("warm-up request %d: status %d", i, s)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	log := newReplyLog()
	ws, before, after, err := e.window(setup, counter(len(timed)), func(i int) request { return timed[i] },
		func(i, st int, body []byte, err error) { log.add(i, st, body, err, true) })
	if err != nil {
		return err
	}
	log.flush(&r.out)
	if misses := after.ResultCache.Misses - before.ResultCache.Misses; int(misses) != ws.ops {
		r.out.problem("every novel request must miss the result cache: %d misses for %d requests", misses, ws.ops)
	}
	if hits := after.ResultCache.Hits - before.ResultCache.Hits; hits != 0 {
		r.out.problem("novel requests hit the result cache %d times", hits)
	}
	if runs := after.ResultCache.Computations - before.ResultCache.Computations; int(runs) != ws.ops {
		r.out.problem("every novel request must start one computation: %d for %d requests", runs, ws.ops)
	}

	h, err := e.inProcessServer()
	if err != nil {
		return err
	}
	verifyNovel(r, h, timed, log)
	if r.traced {
		return traceServe(e, h, before, after, ws, replay, false)
	}
	return nil
}

// verifyNovel recomputes a seeded sample of the window's replies with
// an in-process server and counts every byte difference as a failed op.
func verifyNovel(r *runner, h http.Handler, timed []request, log *replyLog) {
	idx := make([]int, 0, len(log.bodies))
	for i, st := range log.statuses {
		if st == http.StatusOK {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	rng := randx.New(randx.Derive(r.seed, tagSample))
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	if len(idx) > verifySample {
		idx = idx[:verifySample]
	}
	bad := 0
	for _, i := range idx {
		st, body := serveInProcess(h, timed[i])
		if st != http.StatusOK || !bytes.Equal(body, log.bodies[i]) {
			bad++
			r.out.problem("novel request %d: the daemon's reply differs from the in-process recomputation", i)
		}
	}
	r.out.failed += bad
	r.out.set("verified_replies", float64(len(idx)), "count", 0, fmt.Sprintf("window replies recomputed in-process, %d differed", bad))
}

// runServeRepeat drives queryd with a Zipf-distributed catalogue of
// recurring requests answered once during set-up, so every timed
// request is a result-cache hit.
func runServeRepeat(r *runner) (err error) {
	e, err := newServeEnv(r)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := e.shutdown(); err == nil {
			err = stopErr
		}
	}()
	cat := catalogue(r.seed, e.tenants, catalogueSize)
	picks := zipfPicks(r.seed, catalogueSize, 40000*int(r.window/time.Second)+replayCount)
	timed, replay := picks[:len(picks)-replayCount], picks[len(picks)-replayCount:]

	var warm [][]byte
	setup, err := e.launch(func(lc *loadClient, base string) error {
		st, bodies, err := lc.sendAll(base, cat)
		if err != nil {
			return err
		}
		for i, s := range st {
			if s != http.StatusOK {
				return fmt.Errorf("catalogue request %d: status %d: %.200s", i, s, bodies[i])
			}
			if warm != nil && !bytes.Equal(bodies[i], warm[i]) {
				r.out.problem("catalogue request %d: the reply differs between daemon launches", i)
			}
		}
		if warm == nil {
			warm = bodies
		}
		return nil
	})
	if err != nil {
		return err
	}
	log := newReplyLog()
	ws, before, after, err := e.window(setup, counter(len(timed)), func(i int) request { return cat[timed[i]] },
		func(i, st int, body []byte, err error) {
			log.add(i, st, body, err, false)
			if err == nil && st == http.StatusOK && !bytes.Equal(body, warm[timed[i]]) {
				log.mismatch("request %d: the reply differs from its warm-up reply", i)
			}
		})
	if err != nil {
		return err
	}
	log.flush(&r.out)
	hits := after.ResultCache.Hits - before.ResultCache.Hits
	misses := after.ResultCache.Misses - before.ResultCache.Misses
	if int(hits) != ws.ops || misses != 0 {
		r.out.problem("every repeat request must hit the result cache: %d hits and %d misses for %d requests", hits, misses, ws.ops)
	}
	if r.traced {
		h, err := e.inProcessServer()
		if err != nil {
			return err
		}
		for i, rq := range cat {
			if st, body := serveInProcess(h, rq); st != http.StatusOK || !bytes.Equal(body, warm[i]) {
				r.out.problem("catalogue request %d: the in-process reply differs from the daemon's", i)
			}
		}
		rq := make([]request, len(replay))
		for i, p := range replay {
			rq[i] = cat[p]
		}
		return traceServe(e, h, before, after, ws, rq, true)
	}
	return nil
}
