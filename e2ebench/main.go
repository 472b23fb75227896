// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload against the built cmd/obfuscate, cmd/evaluate and
// cmd/queryd binaries, checks every output, prints each metric with its
// unit and sample count, and ends with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced and the metrics are the per-layer ones. Run it through
// run.sh, which builds everything from the checkout first; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runner) error{
	"publish":      runPublish,
	"evaluate":     runEvaluate,
	"serve-novel":  runServeNovel,
	"serve-repeat": runServeRepeat,
}

// endToEnd lists the gated metrics an untraced run reports: set-up and
// per-op CPU time of the program under test, and the median latency of
// an op less the time the hypervisor stole from it. Raw wall-clock
// latency moved by up to 2x between runs on a shared host, so it is
// printed with throughput, tail and memory but not gated (README.md
// gives the measurements).
var endToEnd = []string{"setup_s", "cpu_ms_per_op", "unstolen_latency_p50_ms"}

func main() {
	var (
		workload = flag.String("workload", "", "publish | evaluate | serve-novel | serve-repeat")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin      = flag.String("bin", "", "directory holding the obfuscate, evaluate and queryd binaries")
		work     = flag.String("work", "", "directory for generated inputs, traces and run records")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	case *seconds < 1:
		fatal(fmt.Errorf("-seconds %d must be >= 1", *seconds))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	case *bin == "" || *work == "":
		fatal(fmt.Errorf("need -bin and -work"))
	}
	r, err := newRunner(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
	if err != nil {
		fatal(err)
	}
	err = r.run(run)
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if err := r.out.print(os.Stdout, r); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runner carries one run's configuration and results.
type runner struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	bin      string // directory of the binaries under test
	work     string // persistent scratch: traces and records
	dir      string // this run's private directory, removed at exit
	nproc    int
	tr       *tracer // nil unless traced
	out      outcome
}

func newRunner(workload string, seed int64, window time.Duration, traced bool, bin, work string) (*runner, error) {
	r := &runner{workload: workload, seed: seed, window: window, traced: traced, bin: bin, work: work, nproc: runtime.NumCPU()}
	if traced {
		r.tr = newTracer()
	}
	for _, name := range []string{"obfuscate", "evaluate", "queryd"} {
		if _, err := os.Stat(r.binary(name)); err != nil {
			return nil, fmt.Errorf("binary under test: %w", err)
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	return r, nil
}

func (r *runner) binary(name string) string { return filepath.Join(r.bin, name) }
func (r *runner) path(name string) string   { return filepath.Join(r.dir, name) }

// run measures the host, runs the workload, then the checks that span
// runs, and writes the trace.
func (r *runner) run(workload func(*runner) error) error {
	spin := hostSpinMS()
	before, err := readCPUTimes()
	if err != nil {
		return err
	}
	if err := workload(r); err != nil {
		return err
	}
	after, err := readCPUTimes()
	if err != nil {
		return err
	}
	r.out.set("host.spin_ms", spin, "ms", 3, "fixed integer loop, median of 3")
	r.out.set("host.steal_pct", stealPct(before, after), "%", 0, "hypervisor steal over the run, /proc/stat")
	if err := r.compareRecord(); err != nil {
		return err
	}
	if r.traced {
		if err := os.MkdirAll(filepath.Join(r.work, "traces"), 0o755); err != nil {
			return err
		}
		return r.tr.writeCSV(filepath.Join(r.work, "traces", r.workload+".csv"))
	}
	return nil
}

// row is one printed metric. n is the number of samples behind the
// value (0 for a single reading).
type row struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// outcome accumulates a run's metrics, op counts and failed checks.
type outcome struct {
	attempted, failed int
	problems          []string
	rows              []row
	record            map[string]string // exact values compared across runs
}

func (o *outcome) set(name string, value float64, unit string, n int, note string) {
	for i := range o.rows {
		if o.rows[i].name == name {
			o.rows[i] = row{name, value, unit, n, note}
			return
		}
	}
	o.rows = append(o.rows, row{name, value, unit, n, note})
}

func (o *outcome) get(name string) (row, bool) {
	for _, rw := range o.rows {
		if rw.name == name {
			return rw, true
		}
	}
	return row{}, false
}

// problem records a failed check.
func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

// keep records an exact value that must repeat in every run of the same
// binaries, workload, seed and mode.
func (o *outcome) keep(name string, v any) {
	if o.record == nil {
		o.record = map[string]string{}
	}
	o.record[name] = fmt.Sprint(v)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the report, one metric per line, then the result JSON as
// the last line.
func (o *outcome) print(w *os.File, r *runner) error {
	names := endToEnd
	if r.traced {
		if err := fillPerLayer(o, r.workload); err != nil {
			return err
		}
		names = perLayerNames()
	}
	if o.attempted < 1 {
		return fmt.Errorf("no op attempted")
	}
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "e2ebench %s seed=%d window=%s %s nproc=%d\n", r.workload, r.seed, r.window, mode, r.nproc)
	for _, rw := range o.rows {
		n := "-"
		if rw.n > 0 {
			n = strconv.Itoa(rw.n)
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-10s n=%-7s %s\n", rw.name, rw.value, rw.unit, n, rw.note)
	}
	errRate := float64(o.failed) / float64(o.attempted)
	fmt.Fprintf(w, "  %-26s %14.6g %-10s n=%-7d failed, refused or mismatched ops / ops attempted\n", "error_rate", errRate, "ratio", o.attempted)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	res := resultJSON{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(names)),
	}
	for _, name := range names {
		rw, ok := o.get(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(rw.value) || math.IsInf(rw.value, 0) {
			return fmt.Errorf("metric %s is %v", name, rw.value)
		}
		res.Metrics[name] = metricJSON{Value: rw.value, Unit: rw.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
