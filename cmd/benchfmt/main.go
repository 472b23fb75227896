// Command benchfmt converts `go test -bench` output into JSON records
// and appends them to a benchmark history file, so performance numbers
// accumulate across PRs instead of vanishing in CI logs.
//
// Usage (what `make bench-sampling` runs):
//
//	go test -bench ... -benchmem -count 5 ./internal/sampling | benchfmt -label post-csr -file BENCH_sampling.json
//
// The file holds a JSON array of run records, oldest first; each run
// carries its label, timestamp, environment and parsed benchmarks.
// Existing records are preserved, so the first entry stays the
// pre-refactor baseline the acceptance criteria compare against.
//
// A benchmark that prints several result lines (go test -count N)
// becomes one record entry: its median ns/op with the min, max and
// number of runs, so every recorded number carries its spread.
// benchfmt also warns on stderr about every benchmark whose median is
// more than 10% above the same benchmark's in the file's previous
// record and whose fastest run is slower than that record's slowest,
// so a spread that overlaps the previous one (host noise) never warns;
// the warning never changes the exit status.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark's result, folded over its result lines.
type Benchmark struct {
	Name string `json:"name"`
	// Iterations is the first run's iteration count.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median ns/op over the runs; MinNsPerOp and
	// MaxNsPerOp bound them. Records written before runs were folded
	// hold one run's value and no spread.
	NsPerOp    float64 `json:"ns_per_op"`
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
	Runs       int     `json:"runs,omitempty"`
	// BytesPerOp and AllocsPerOp are the largest over the runs, so a
	// zero-allocation pin shows any run that allocated.
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values (e.g. "worlds/op" from
	// BenchmarkEstimateAdaptive), keyed by their full unit string, each
	// the median over the runs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one benchmark session.
type Run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine splits a result line into name, iteration count and the
// metric list; metricPair then walks every "<value> <unit>" in it, the
// unit a ratio such as ns/op or a custom ms/world.
// The testing package prints custom ReportMetric units between ns/op
// and the -benchmem pair, so position-based parsing would drop B/op
// and allocs/op the moment a benchmark reports one. Sub-benchmark
// names ("BenchmarkFoo/hot-cache-8") keep their slash path; only the
// trailing -GOMAXPROCS suffix is stripped.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)
	metricPair = regexp.MustCompile(`([\d.]+)\s+(\S+/\S+)`)
)

// parseRun scans `go test -bench` output from in, echoing every raw
// line to echo, and returns the parsed benchmarks — the result lines
// of each benchmark folded into one entry, in first-appearance order —
// plus environment metadata. It fails when the stream contains a test
// failure marker or yields no benchmark lines, so a broken benchmark
// run can never record an empty or misleading history entry.
func parseRun(label string, in io.Reader, echo io.Writer) (Run, error) {
	run := Run{
		Label:     label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	failed := false
	var lines []Benchmark
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line) // stay transparent: every raw line reaches the terminal
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.CPU = cpu
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") ||
			strings.HasPrefix(line, "panic:") {
			failed = true
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		sawNs := false
		for _, p := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(p[1], 64)
			if err != nil {
				continue
			}
			switch p[2] {
			case "ns/op":
				b.NsPerOp = v
				sawNs = true
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[p[2]] = v
			}
		}
		if !sawNs {
			continue
		}
		lines = append(lines, b)
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if failed {
		return run, fmt.Errorf("benchmark run failed; nothing recorded")
	}
	if len(lines) == 0 {
		return run, fmt.Errorf("no benchmark lines found on stdin")
	}
	run.Benchmarks = fold(lines)
	return run, nil
}

// fold merges the result lines of each benchmark into one entry with
// the spread of its runs.
func fold(lines []Benchmark) []Benchmark {
	var order []string
	byName := make(map[string][]Benchmark)
	for _, b := range lines {
		if _, seen := byName[b.Name]; !seen {
			order = append(order, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		f := Benchmark{Name: name, Iterations: runs[0].Iterations, Runs: len(runs)}
		ns := make([]float64, len(runs))
		metrics := make(map[string][]float64)
		for i, r := range runs {
			ns[i] = r.NsPerOp
			f.BytesPerOp = max(f.BytesPerOp, r.BytesPerOp)
			f.AllocsPerOp = max(f.AllocsPerOp, r.AllocsPerOp)
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		f.NsPerOp = median(ns)
		f.MinNsPerOp, f.MaxNsPerOp = slices.Min(ns), slices.Max(ns)
		for unit, vs := range metrics {
			if f.Metrics == nil {
				f.Metrics = make(map[string]float64)
			}
			f.Metrics[unit] = median(vs)
		}
		out = append(out, f)
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// regressionRatio is the median slowdown benchfmt warns about.
const regressionRatio = 1.10

// spread returns the fastest and slowest of b's runs. A record written
// before runs were folded holds one run and no spread: its median is
// both.
func spread(b Benchmark) (lo, hi float64) {
	if b.MaxNsPerOp == 0 {
		return b.NsPerOp, b.NsPerOp
	}
	return b.MinNsPerOp, b.MaxNsPerOp
}

// compareRuns writes one warning to w for every benchmark of run whose
// median ns/op exceeds the same benchmark's in prev by more than 10%
// and whose fastest run is slower than prev's slowest, and returns how
// many it wrote. Benchmarks absent from prev are new and never warned
// about.
func compareRuns(prev, run Run, w io.Writer) int {
	before := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		before[b.Name] = b
	}
	warned := 0
	for _, b := range run.Benchmarks {
		old, ok := before[b.Name]
		if !ok || old.NsPerOp <= 0 || b.NsPerOp <= old.NsPerOp*regressionRatio {
			continue
		}
		fastest, _ := spread(b)
		_, oldSlowest := spread(old)
		if fastest <= oldSlowest {
			continue
		}
		fmt.Fprintf(w, "benchfmt: warning: %s median %.0f ns/op is %.1f%% above %.0f ns/op in the previous record (%s), and its fastest run (%.0f ns/op) is slower than that record's slowest (%.0f ns/op)\n",
			b.Name, b.NsPerOp, 100*(b.NsPerOp/old.NsPerOp-1), old.NsPerOp, prev.Label, fastest, oldSlowest)
		warned++
	}
	return warned
}

// readHistory returns the JSON run array in file, or nil when the file
// does not exist. A file that exists but does not hold a run array is
// an error.
func readHistory(file string) ([]Run, error) {
	var history []Run
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &history); err != nil {
			return nil, fmt.Errorf("existing %s is not a run array: %w", file, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return history, nil
}

// appendHistory appends run to the JSON run array in file (creating it
// if absent) and returns the new total run count. A file that exists
// but does not hold a run array is an error, never overwritten.
func appendHistory(file string, run Run) (int, error) {
	history, err := readHistory(file)
	if err != nil {
		return 0, err
	}
	history = append(history, run)
	out, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
		return 0, err
	}
	return len(history), nil
}

func main() {
	label := flag.String("label", "local", "label for this run (e.g. a commit or PR id)")
	file := flag.String("file", "BENCH_sampling.json", "history file to append to")
	flag.Parse()

	run, total, err := record(*label, *file, os.Stdin, os.Stdout, os.Stderr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchfmt: appended %d benchmarks to %s (%d runs total)\n",
		len(run.Benchmarks), *file, total)
}

// record parses the benchmark output in (echoing it to echo), warns on
// warn about regressions against file's last run, if it has one, and
// appends the run to file. Warnings never make it fail.
func record(label, file string, in io.Reader, echo, warn io.Writer) (Run, int, error) {
	run, err := parseRun(label, in, echo)
	if err != nil {
		return run, 0, err
	}
	history, err := readHistory(file)
	if err != nil {
		return run, 0, err
	}
	if len(history) > 0 {
		compareRuns(history[len(history)-1], run, warn)
	}
	total, err := appendHistory(file, run)
	return run, total, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfmt:", err)
	os.Exit(1)
}
