package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleOutput is realistic -benchmem output: a cpu line, custom
// ReportMetric units per op and per world between ns/op and the
// benchmem pair, and sub-benchmark names with slash paths (the shape
// `make bench-qserve` records for BenchmarkRegistryCachedRequest).
const sampleOutput = `goos: linux
goarch: amd64
pkg: uncertaingraph/internal/qserve
cpu: AMD EPYC 7B13
BenchmarkRegistryHotRequest-8   	    1500	    748123 ns/op	   51234 B/op	      51 allocs/op
BenchmarkRegistryCachedRequest/hot-cache-8         	  100000	     10312 ns/op	    4821 B/op	      47 allocs/op
BenchmarkRegistryCachedRequest/hot-graph-cold-cache-8	    1500	    768001 ns/op	   52000 B/op	      63 allocs/op
BenchmarkEstimateAdaptive-8     	      20	  51234567 ns/op	       612.0 worlds/op	 1024 B/op	      12 allocs/op
BenchmarkANFEvaluateShaped-8    	       3	 114042507 ns/op	         1.140 ms/world	       0 B/op	       0 allocs/op
PASS
ok  	uncertaingraph/internal/qserve	2.31s
`

func TestParseRun(t *testing.T) {
	var echo strings.Builder
	run, err := parseRun("pr10", strings.NewReader(sampleOutput), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sampleOutput {
		t.Error("raw output was not echoed verbatim")
	}
	if run.Label != "pr10" || run.CPU != "AMD EPYC 7B13" {
		t.Errorf("metadata: label=%q cpu=%q", run.Label, run.CPU)
	}
	if run.GoVersion == "" || run.GOOS == "" || run.GOARCH == "" {
		t.Errorf("environment fields missing: %+v", run)
	}
	want := []Benchmark{
		{Name: "BenchmarkRegistryHotRequest", Iterations: 1500, NsPerOp: 748123, BytesPerOp: 51234, AllocsPerOp: 51},
		{Name: "BenchmarkRegistryCachedRequest/hot-cache", Iterations: 100000, NsPerOp: 10312, BytesPerOp: 4821, AllocsPerOp: 47},
		{Name: "BenchmarkRegistryCachedRequest/hot-graph-cold-cache", Iterations: 1500, NsPerOp: 768001, BytesPerOp: 52000, AllocsPerOp: 63},
		{Name: "BenchmarkEstimateAdaptive", Iterations: 20, NsPerOp: 51234567, BytesPerOp: 1024, AllocsPerOp: 12,
			Metrics: map[string]float64{"worlds/op": 612}},
		{Name: "BenchmarkANFEvaluateShaped", Iterations: 3, NsPerOp: 114042507,
			Metrics: map[string]float64{"ms/world": 1.140}},
	}
	if len(run.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(run.Benchmarks), len(want), run.Benchmarks)
	}
	for i, w := range want {
		got := run.Benchmarks[i]
		if got.Name != w.Name || got.Iterations != w.Iterations || got.NsPerOp != w.NsPerOp ||
			got.BytesPerOp != w.BytesPerOp || got.AllocsPerOp != w.AllocsPerOp {
			t.Errorf("benchmark %d: got %+v, want %+v", i, got, w)
		}
		if w.Metrics != nil && !maps.Equal(got.Metrics, w.Metrics) {
			t.Errorf("benchmark %d metrics: got %v, want %v", i, got.Metrics, w.Metrics)
		}
	}
}

func TestParseRunRejectsFailures(t *testing.T) {
	for name, in := range map[string]string{
		"fail-line":  "BenchmarkX-8 10 100 ns/op\nFAIL\n",
		"test-fail":  "--- FAIL: TestGuard\nBenchmarkX-8 10 100 ns/op\n",
		"panic":      "BenchmarkX-8 10 100 ns/op\npanic: runtime error\n",
		"no-benches": "goos: linux\nPASS\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := parseRun("l", strings.NewReader(in), &strings.Builder{}); err == nil {
				t.Errorf("parseRun accepted %q", in)
			}
		})
	}
}

func TestAppendHistory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	run := Run{Label: "first", Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 42}}}
	if n, err := appendHistory(file, run); err != nil || n != 1 {
		t.Fatalf("first append: n=%d err=%v", n, err)
	}
	run.Label = "second"
	if n, err := appendHistory(file, run); err != nil || n != 2 {
		t.Fatalf("second append: n=%d err=%v", n, err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var history []Run
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatalf("history is not a run array: %v", err)
	}
	if len(history) != 2 || history[0].Label != "first" || history[1].Label != "second" {
		t.Errorf("history corrupted: %+v", history)
	}
	if history[0].Benchmarks[0].Name != "BenchmarkA" {
		t.Errorf("oldest record lost its benchmarks: %+v", history[0])
	}
}

// A file that exists but is not a run array must never be overwritten:
// losing the accumulated baseline would silently rebase every
// acceptance comparison.
func TestAppendHistoryRefusesCorruptFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(file, []byte(`{"not":"an array"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendHistory(file, Run{Label: "x"}); err == nil {
		t.Fatal("appendHistory accepted a corrupt history file")
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"not":"an array"}` {
		t.Errorf("corrupt file was rewritten: %s", data)
	}
}

// countOutput is what `go test -count 5` prints: every run of one
// benchmark on its own line, one benchmark after the other.
const countOutput = `cpu: Intel(R) Xeon(R) Processor
BenchmarkA-2   	      16	       300 ns/op	       7.0 worlds/op	     100 B/op	       0 allocs/op
BenchmarkA-2   	      16	       100 ns/op	       5.0 worlds/op	     100 B/op	       0 allocs/op
BenchmarkA-2   	      16	       500 ns/op	       9.0 worlds/op	     164 B/op	       2 allocs/op
BenchmarkA-2   	      16	       200 ns/op	       6.0 worlds/op	     100 B/op	       0 allocs/op
BenchmarkA-2   	      16	       400 ns/op	       8.0 worlds/op	     100 B/op	       0 allocs/op
BenchmarkB-2   	    1000	        10 ns/op
BenchmarkB-2   	    1200	        20 ns/op
PASS
`

func TestParseRunFoldsRepeatedRuns(t *testing.T) {
	run, err := parseRun("count", strings.NewReader(countOutput), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Benchmarks) != 2 || run.Benchmarks[0].Name != "BenchmarkA" || run.Benchmarks[1].Name != "BenchmarkB" {
		t.Fatalf("want one entry per benchmark in first-appearance order, got %+v", run.Benchmarks)
	}
	a := run.Benchmarks[0]
	if a.NsPerOp != 300 || a.MinNsPerOp != 100 || a.MaxNsPerOp != 500 || a.Runs != 5 || a.Iterations != 16 {
		t.Errorf("BenchmarkA folded to %+v, want median 300, min 100, max 500 over 5 runs of 16", a)
	}
	if a.BytesPerOp != 164 || a.AllocsPerOp != 2 {
		t.Errorf("BenchmarkA memory %d B/op, %d allocs/op; want the largest run's 164 and 2", a.BytesPerOp, a.AllocsPerOp)
	}
	if a.Metrics["worlds/op"] != 7 {
		t.Errorf("BenchmarkA worlds/op %v, want the median 7", a.Metrics["worlds/op"])
	}
	b := run.Benchmarks[1]
	if b.NsPerOp != 15 || b.MinNsPerOp != 10 || b.MaxNsPerOp != 20 || b.Runs != 2 || b.Iterations != 1000 {
		t.Errorf("BenchmarkB folded to %+v, want median 15 (mean of the middle two), min 10, max 20 over 2 runs", b)
	}
}

// TestCompareRunsWarnsOnMedianRegression pins when compareRuns warns:
// the median must rise more than 10% and the new runs must all be
// slower than the previous record's slowest. A record without a spread
// (written before runs were folded) counts its median as its only run.
func TestCompareRunsWarnsOnMedianRegression(t *testing.T) {
	prev := Run{Label: "parent", Benchmarks: []Benchmark{
		{Name: "BenchmarkSlower", NsPerOp: 100},
		{Name: "BenchmarkAtBound", NsPerOp: 100},
		{Name: "BenchmarkFaster", NsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 100},
		// Host noise: the median rose 20.9%, but the runs overlap.
		{Name: "BenchmarkEstimateStatistics", NsPerOp: 108.1e6, MinNsPerOp: 99.9e6, MaxNsPerOp: 115.1e6, Runs: 5},
		{Name: "BenchmarkDisjoint", NsPerOp: 100, MinNsPerOp: 95, MaxNsPerOp: 105, Runs: 5},
	}}
	run := Run{Label: "change", Benchmarks: []Benchmark{
		{Name: "BenchmarkSlower", NsPerOp: 111},
		{Name: "BenchmarkAtBound", NsPerOp: 110},
		{Name: "BenchmarkFaster", NsPerOp: 50},
		{Name: "BenchmarkNew", NsPerOp: 1e9},
		{Name: "BenchmarkEstimateStatistics", NsPerOp: 130.7e6, MinNsPerOp: 109.0e6, MaxNsPerOp: 179.6e6, Runs: 5},
		{Name: "BenchmarkDisjoint", NsPerOp: 120, MinNsPerOp: 106, MaxNsPerOp: 130, Runs: 5},
	}}
	var w strings.Builder
	if n := compareRuns(prev, run, &w); n != 2 {
		t.Fatalf("compareRuns warned %d times, want 2:\n%s", n, w.String())
	}
	msg := w.String()
	if !strings.Contains(msg, "BenchmarkSlower") || !strings.Contains(msg, "11.0%") || !strings.Contains(msg, "parent") {
		t.Errorf("warning does not name the benchmark, the slowdown and the previous record: %q", msg)
	}
	if !strings.Contains(msg, "BenchmarkDisjoint median 120 ns/op is 20.0% above") || !strings.Contains(msg, "fastest run (106 ns/op)") {
		t.Errorf("no warning for the disjoint spread, or it lacks the runs compared: %q", msg)
	}
	if strings.Contains(msg, "BenchmarkEstimateStatistics") {
		t.Errorf("warned about a median rise whose runs overlap the previous record's: %q", msg)
	}
}

// TestRecordCompareWarnsAndAppends pins record's comparison: the first
// record of a file warns about nothing, a benchmark whose every run
// slowed produces a warning, and the run is still appended without
// error (CI warns, never fails).
func TestRecordCompareWarnsAndAppends(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	var warn strings.Builder
	if _, n, err := record("first", file, strings.NewReader(countOutput), &strings.Builder{}, &warn); err != nil || n != 1 {
		t.Fatalf("first record: n=%d err=%v", n, err)
	}
	if warn.Len() != 0 {
		t.Errorf("first record of a file warned: %q", warn.String())
	}
	// Every BenchmarkA run slows by 1,000 ns/op, so its fastest new run
	// (1,100) is slower than its slowest old one (500).
	var slowA []string
	for _, ns := range []string{"100", "200", "300", "400", "500"} {
		slowA = append(slowA, "       "+ns+" ns/op", "      1"+ns+" ns/op")
	}
	slower := strings.NewReplacer(slowA...).Replace(countOutput)
	if _, n, err := record("second", file, strings.NewReader(slower), &strings.Builder{}, &warn); err != nil || n != 2 {
		t.Fatalf("second record: n=%d err=%v", n, err)
	}
	if !strings.Contains(warn.String(), "BenchmarkA median 1300 ns/op") || strings.Contains(warn.String(), "BenchmarkB") {
		t.Errorf("want one warning, for BenchmarkA's median rising 300 -> 1300 ns/op; got %q", warn.String())
	}
}
