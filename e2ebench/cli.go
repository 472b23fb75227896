package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	ug "uncertaingraph"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/uncertain"
)

// Shipped cmd/obfuscate defaults, which the publish workload runs at.
const (
	publishK   = 20
	publishEps = 0.01
)

// setupReps is how many times a CLI workload's input is loaded to time
// set-up; the median is reported.
const setupReps = 21

// cliOp is one finished invocation of a CLI under test.
type cliOp struct {
	stdout, stderr []byte
	wall, cpu      time.Duration
	maxRSS         float64 // MiB
	err            error
}

func runCLI(bin string, args ...string) cliOp {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t := time.Now()
	err := cmd.Run()
	op := cliOp{stdout: out.Bytes(), stderr: errb.Bytes(), wall: time.Since(t), err: err}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			op.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
			op.cpu = rusageCPU(ru)
		}
	}
	if err != nil {
		op.err = fmt.Errorf("%s: %v: %s", bin, err, strings.TrimSpace(string(errb.Bytes())))
	}
	return op
}

// cliLoop runs op back to back, one at a time, starting ops until dur
// has passed; the window closes when the last op ends. check inspects
// each finished op; a non-nil error fails it.
func (r *runner) cliLoop(dur time.Duration, tr *tracer, name string, op func() cliOp, check func(cliOp) error) windowStats {
	var ws windowStats
	var rss, cpu []float64
	var spans []interval
	clk := startStealClock()
	start := time.Now()
	for time.Since(start) < dur {
		id := tr.begin(name, -1, ws.ops)
		t := time.Now()
		o := op()
		spans = append(spans, interval{t, time.Now()})
		tr.end(id)
		ws.ops++
		r.out.attempted++
		if err := check(o); err != nil {
			r.out.failed++
			r.out.problem("%s op %d: %v", name, ws.ops, err)
		}
		ws.lat = append(ws.lat, ms(o.wall))
		rss = append(rss, o.maxRSS)
		cpu = append(cpu, ms(o.cpu))
	}
	ws.length = time.Since(start)
	ws.closeWindow(clk, spans)
	ws.rss = median(rss)
	ws.opCPU = median(cpu)
	return ws
}

// loadSetup times setupReps loads of a CLI workload's input through
// the program's own reader and returns the CPU seconds of each. Each
// load runs after a collection, so earlier garbage is not charged to it,
// on a locked OS thread, whose CPU clock then times the load alone.
func loadSetup(load func() error) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]float64, setupReps)
	for i := range out {
		runtime.GC()
		c0 := threadCPU()
		if err := load(); err != nil {
			return nil, err
		}
		out[i] = (threadCPU() - c0).Seconds()
	}
	return out, nil
}

// sameOutput returns a check that fails an op that exits non-zero or
// whose standard output differs from the first successful op's, which
// it keeps in *ref.
func sameOutput(ref *[]byte, extra func(cliOp) error) func(cliOp) error {
	return func(o cliOp) error {
		if o.err != nil {
			return o.err
		}
		if extra != nil {
			if err := extra(o); err != nil {
				return err
			}
		}
		if *ref == nil {
			*ref = o.stdout
			return nil
		}
		if !bytes.Equal(o.stdout, *ref) {
			return fmt.Errorf("output differs from the first op's (%d vs %d bytes)", len(o.stdout), len(*ref))
		}
		return nil
	}
}

var achievedEps = regexp.MustCompile(`achieved-eps=([0-9.eE+-]+)`)

// runPublish times cmd/obfuscate at its shipped defaults on the y360
// tiny stand-in, one release per op, every op the same job.
func runPublish(r *runner) error {
	g, err := standIn("y360", datasets.ScaleTiny)
	if err != nil {
		return err
	}
	in := r.path("y360-tiny.edges")
	if err := writeEdgeList(in, g); err != nil {
		return err
	}
	// The CLI numbers vertices as its reader meets them; checks and the
	// traced replay use the graph exactly as the CLI loads it.
	load := func() error {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		g, _, err = graph.ReadEdgeList(f)
		return err
	}
	setup, err := loadSetup(load)
	if err != nil {
		return err
	}

	args := []string{"-in", in, "-seed", strconv.FormatInt(r.seed, 10)}
	var release []byte
	check := sameOutput(&release, func(o cliOp) error {
		m := achievedEps.FindSubmatch(o.stderr)
		if m == nil {
			return fmt.Errorf("no achieved-eps in the summary line")
		}
		eps, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil || eps > publishEps {
			return fmt.Errorf("achieved eps %s exceeds %g", m[1], publishEps)
		}
		return nil
	})
	ws := r.windows(func(dur time.Duration, tr *tracer) windowStats {
		return r.cliLoop(dur, tr, "obfuscate", func() cliOp { return runCLI(r.binary("obfuscate"), args...) }, check)
	})
	r.reportWindow(ws, setup, "release", "median over releases of the obfuscate process's CPU time", "median over ops of the obfuscate process's peak RSS")
	if release == nil {
		return fmt.Errorf("no release was published")
	}
	rel, err := uncertain.Read(bytes.NewReader(release))
	if err != nil {
		return fmt.Errorf("reading the published release: %w", err)
	}
	if !ug.VerifyObfuscation(rel, g.Degrees(), publishK, publishEps) {
		r.out.problem("the release is not a (k=%d, eps=%g)-obfuscation of the input", publishK, publishEps)
		r.out.failed = r.out.attempted
	}
	r.out.keep("release_sha256", bytesDigest(release))
	if r.traced {
		return tracePublish(r, g, release)
	}
	return nil
}

// runEvaluate times cmd/evaluate at its defaults (100 worlds, HyperANF,
// all CPUs) on a (k=10, ε=0.02) release of the dblp small stand-in.
// The release is the same for every seed and the workload seed is the
// world-sampling -seed: releases obfuscated with different seeds differ
// in density, which moved the estimate time by ±10% between seeds.
func runEvaluate(r *runner) error {
	rel, err := evaluateRelease()
	if err != nil {
		return err
	}
	in := r.path("dblp-small.ug")
	if err := writeUncertain(in, rel); err != nil {
		return err
	}
	load := func() error {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = uncertain.Read(f)
		return err
	}
	setup, err := loadSetup(load)
	if err != nil {
		return err
	}

	var report []byte
	check := sameOutput(&report, nil)
	args := []string{"-uncertain", in, "-seed", strconv.FormatInt(r.seed, 10)}
	ws := r.windows(func(dur time.Duration, tr *tracer) windowStats {
		return r.cliLoop(dur, tr, "evaluate", func() cliOp { return runCLI(r.binary("evaluate"), args...) }, check)
	})
	r.reportWindow(ws, setup, "estimate", "median over estimates of the evaluate process's CPU time", "median over ops of the evaluate process's peak RSS")
	if report == nil {
		return fmt.Errorf("no estimate was reported")
	}
	// Every op printed the first op's report; recompute it in-process
	// once, after the window, and check the CLI's numbers against it.
	est, err := r.estimate(rel)
	if err != nil {
		return err
	}
	if est.rep.WorldsUsed != evaluateWorlds {
		r.out.problem("the in-process estimate sampled %d worlds, want %d", est.rep.WorldsUsed, evaluateWorlds)
		r.out.failed = r.out.attempted
	}
	if err := checkReport(report, est.rep); err != nil {
		r.out.problem("the evaluate report differs from the in-process estimate: %v", err)
		r.out.failed = r.out.attempted
	}
	r.out.keep("report_sha256", bytesDigest(report))
	r.out.keep("sampling.worlds", est.rep.WorldsUsed)
	if r.traced {
		return traceEvaluate(r, rel, in, est)
	}
	return nil
}

// evaluateWorlds is cmd/evaluate's default world count.
const evaluateWorlds = 100

// estimateRun is one in-process estimate, timed.
type estimateRun struct {
	rep    *ug.EstimateReport
	wall   time.Duration
	start  time.Time
	stamps []time.Time // one per sampled world, ascending
	mem    memDelta
}

// estimate runs cmd/evaluate's estimate in-process: the same public
// call with the CLI's defaults (100 worlds, HyperANF) and the workload
// seed.
func (r *runner) estimate(g *uncertain.Graph) (estimateRun, error) {
	var run estimateRun
	var mu sync.Mutex
	opts := []ug.Option{
		ug.WithWorkers(r.nproc),
		ug.WithEstimate(ug.EstimateConfig{Seed: r.seed, Worlds: evaluateWorlds}),
		ug.WithProgress(func(ug.Progress) {
			mu.Lock()
			run.stamps = append(run.stamps, time.Now())
			mu.Unlock()
		}),
	}
	var err error
	run.mem = measureMem(func() {
		id := r.tr.begin("sampling.run", -1, 0)
		run.start = time.Now()
		run.rep, err = ug.EstimateStatistics(context.Background(), g, opts...)
		run.wall = time.Since(run.start)
		r.tr.end(id)
	})
	sort.Slice(run.stamps, func(i, j int) bool { return run.stamps[i].Before(run.stamps[j]) })
	return run, err
}

// checkReport compares an evaluate report with an estimate: every
// statistic's mean and rel.SEM, and the exact expectations, must read
// as the CLI formats them from that estimate.
func checkReport(report []byte, rep *ug.EstimateReport) error {
	want := make(map[string]string, len(ug.StatNames)+2)
	for _, name := range ug.StatNames {
		want[name] = fmt.Sprintf("%.6g %.4f -", rep.Mean(name), rep.RelSEM(name))
	}
	want["E[S_NE]"] = fmt.Sprintf("%.6g", rep.ExactNE)
	want["E[S_AD]"] = fmt.Sprintf("%.6g", rep.ExactAD)
	for _, line := range strings.Split(string(report), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "exact" {
			f = f[1:]
		}
		if len(f) == 0 {
			continue
		}
		w, ok := want[f[0]]
		if !ok {
			continue
		}
		if got := strings.Join(f[1:], " "); got != w {
			return fmt.Errorf("%s: report %q, in-process %q", f[0], got, w)
		}
		delete(want, f[0])
	}
	for name := range want {
		return fmt.Errorf("report lacks %s", name)
	}
	return nil
}
