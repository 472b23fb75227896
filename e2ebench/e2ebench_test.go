package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	ug "uncertaingraph"
	"uncertaingraph/internal/qserve"
	"uncertaingraph/internal/uncertain"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		ok     bool
		beyond int
	}{
		{n: 9},
		{n: 19},
		{n: 20, p: 50, ok: true, beyond: 10},
		{n: 99, p: 50, ok: true, beyond: 49},
		{n: 100, p: 90, ok: true, beyond: 10},
		{n: 999, p: 90, ok: true, beyond: 99},
		{n: 1000, p: 99, ok: true, beyond: 10},
		{n: 10000, p: 99.9, ok: true, beyond: 10},
		{n: 100000, p: 99.99, ok: true, beyond: 10},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.p {
			t.Errorf("tailPercentile(%d) = p%g, %t; want p%g, %t", c.n, p, ok, c.p, c.ok)
			continue
		}
		if ok && beyond(c.n, p) != c.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, p, beyond(c.n, p), c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func testTenants(t *testing.T) []tenant {
	t.Helper()
	g, err := uncertain.New(50, []uncertain.Pair{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	return []tenant{{name: "t0", g: g}, {name: "t1", g: g, binary: true}}
}

func requestBytes(rs []request) []byte {
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%s\n", r.key())
	}
	return b.Bytes()
}

func TestRequestMixIsSeeded(t *testing.T) {
	ts := testTenants(t)
	for name, gen := range map[string]func(seed int64) []request{
		"novel":     func(seed int64) []request { return novelRequests(seed, ts, 200) },
		"catalogue": func(seed int64) []request { return catalogue(seed, ts, 32) },
	} {
		a, b, c := gen(1), gen(1), gen(2)
		if !bytes.Equal(requestBytes(a), requestBytes(b)) {
			t.Errorf("%s: the same seed gave different request bytes", name)
		}
		if bytes.Equal(requestBytes(a), requestBytes(c)) {
			t.Errorf("%s: seeds 1 and 2 gave identical request bytes", name)
		}
		seen := map[string]bool{}
		for _, r := range a {
			if seen[r.key()] {
				t.Errorf("%s: request repeated: %s", name, r.key())
			}
			seen[r.key()] = true
		}
	}
	tol := 0
	for _, r := range novelRequests(1, ts, 200) {
		if bytes.Contains(r.Body, []byte(`"tolerance"`)) {
			tol++
		}
	}
	if tol == 0 || tol > 100 {
		t.Errorf("%d of 200 novel requests carry a tolerance, want a minority", tol)
	}
	ops := map[string]int{}
	total := 0
	for _, r := range novelRequests(1, ts, 600) {
		var b qserve.BatchRequest
		if err := json.Unmarshal(r.Body, &b); err != nil {
			t.Fatal(err)
		}
		for _, q := range b.Queries {
			ops[q.Op]++
			total++
		}
	}
	for _, op := range queryOps {
		if share := float64(ops[op]) / float64(total); share < 0.28 || share > 0.39 {
			t.Errorf("%s is %.3f of the novel queries, want about 1/3", op, share)
		}
	}
	// The catalogue's shape at each rank does not depend on the seed.
	shape := func(rs []request) string {
		var b strings.Builder
		for _, r := range rs {
			q := strings.Count(string(r.Body), `"op"`)
			fmt.Fprintf(&b, "%s %d %d %d %d|", r.Method, q, strings.Count(r.Path+string(r.Body), "reliability"),
				strings.Count(r.Path+string(r.Body), "distance"), strings.Count(r.Path+string(r.Body), "knn"))
		}
		return b.String()
	}
	if shape(catalogue(1, ts, 32)) != shape(catalogue(2, ts, 32)) {
		t.Error("the catalogue's request shapes differ between seeds")
	}
	p1, p2 := zipfPicks(1, 32, 1000), zipfPicks(2, 32, 1000)
	if fmt.Sprint(p1) != fmt.Sprint(zipfPicks(1, 32, 1000)) || fmt.Sprint(p1) == fmt.Sprint(p2) {
		t.Error("zipf picks are not a function of the seed")
	}
	counts := make([]int, 32)
	for _, p := range p1 {
		counts[p]++
	}
	if counts[0] <= counts[31] {
		t.Errorf("rank 0 drawn %d times, rank 31 %d times: not Zipf-shaped", counts[0], counts[31])
	}
}

func TestSelfTimesOnNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "client", Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Name: "handler", Start: ms(20), End: ms(50)}, // overlaps client
		{ID: 3, Parent: 0, Name: "late", Start: ms(90), End: ms(120)},   // clipped to the parent
		{ID: 4, Parent: 2, Name: "engine", Start: ms(25), End: ms(45)},
		{ID: 5, Parent: -1, Name: "alone", Start: ms(0), End: ms(7)},
	}
	want := []time.Duration{ms(50), ms(20), ms(10), ms(30), ms(20), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPublishHomogeneityCheck(t *testing.T) {
	var ref []byte
	check := sameOutput(&ref, nil)
	ok := cliOp{stdout: []byte("1 2 0.5\n")}
	if err := check(ok); err != nil || !bytes.Equal(ref, ok.stdout) {
		t.Fatalf("first op: err %v, reference %q", err, ref)
	}
	if err := check(cliOp{stdout: []byte("1 2 0.5\n")}); err != nil {
		t.Errorf("identical release failed: %v", err)
	}
	if err := check(cliOp{stdout: []byte("1 2 0.6\n")}); err == nil {
		t.Error("a different release passed")
	}
	if err := check(cliOp{err: errors.New("exit status 1")}); err == nil {
		t.Error("a failed op passed")
	}

	// Inside the window loop every op is checked and a differing one
	// counts as failed.
	r := &runner{}
	ref = nil
	ops, different := 0, 0
	ws := r.cliLoop(60*time.Millisecond, nil, "op", func() cliOp {
		out := []byte("1 2 0.5\n")
		if ops%3 == 2 {
			out = []byte("1 2 0.6\n")
			different++
		}
		ops++
		time.Sleep(5 * time.Millisecond)
		return cliOp{stdout: out, wall: 5 * time.Millisecond}
	}, check)
	if different == 0 || ws.ops != ops || r.out.attempted != ops || r.out.failed != different {
		t.Errorf("ops %d, attempted %d, failed %d; want %d, %d, %d", ws.ops, r.out.attempted, r.out.failed, ops, ops, different)
	}
}

func TestRecordDrift(t *testing.T) {
	prev := map[string]string{"core.probes": "28", "core.trials": "140"}
	if d := recordDrift(prev, map[string]string{"core.probes": "28", "core.trials": "140", "new": "1"}); len(d) != 0 {
		t.Errorf("no drift expected, got %v", d)
	}
	if d := recordDrift(prev, map[string]string{"core.probes": "29"}); len(d) != 1 {
		t.Errorf("one drift expected, got %v", d)
	}
}

func TestThreadCPUCountsWork(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	for d := time.Now(); time.Since(d) < 20*time.Millisecond; {
		spinSink++
	}
	if got := threadCPU() - c0; got < 5*time.Millisecond || got > time.Second {
		t.Errorf("20 ms of spinning read %v of thread CPU", got)
	}
}

// cliReport formats rep the way cmd/evaluate prints it.
func cliReport(rep *ug.EstimateReport) []byte {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "statistic\tmean\trel.SEM\trel.err")
	for _, name := range ug.StatNames {
		fmt.Fprintf(w, "%s\t%.6g\t%.4f\t-\n", name, rep.Mean(name), rep.RelSEM(name))
	}
	fmt.Fprintf(w, "exact E[S_NE]\t%.6g\t\t\n", rep.ExactNE)
	fmt.Fprintf(w, "exact E[S_AD]\t%.6g\t\t\n", rep.ExactAD)
	w.Flush()
	return b.Bytes()
}

func TestCheckReport(t *testing.T) {
	rep := &ug.EstimateReport{Samples: map[string][]float64{}, ExactNE: 3358.25, ExactAD: 2.9667, WorldsUsed: 3}
	for i, name := range ug.StatNames {
		rep.Samples[name] = []float64{float64(i), float64(i) + 0.5, float64(i) + 2}
	}
	if err := checkReport(cliReport(rep), rep); err != nil {
		t.Fatalf("the report of the same estimate failed: %v", err)
	}
	other := &ug.EstimateReport{Samples: map[string][]float64{}, ExactNE: rep.ExactNE, ExactAD: rep.ExactAD}
	for name, xs := range rep.Samples {
		other.Samples[name] = xs
	}
	other.Samples["S_CC"] = []float64{9, 9.5, 11.25}
	if err := checkReport(cliReport(other), rep); err == nil {
		t.Error("a report with a different S_CC mean passed")
	}
	other.Samples["S_CC"] = rep.Samples["S_CC"]
	other.ExactAD = 2.9
	if err := checkReport(cliReport(other), rep); err == nil {
		t.Error("a report with a different exact E[S_AD] passed")
	}
	trunc := cliReport(rep)
	if err := checkReport(trunc[:bytes.Index(trunc, []byte("S_CL"))], rep); err == nil {
		t.Error("a report missing statistics passed")
	}
}

func TestStealClockShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two vCPUs sampled every 10 ms: both busy throughout, with 1 tick of
	// steal in each of the intervals ending at 20 and 30 ms.
	clk := &stealClock{
		at: []time.Time{at(0), at(10), at(20), at(30), at(40)},
		c: []cpuTimes{
			{steal: 0, busy: 0}, {steal: 0, busy: 2}, {steal: 1, busy: 3},
			{steal: 2, busy: 4}, {steal: 2, busy: 6},
		},
	}
	for _, c := range []struct {
		start, end int
		want       float64
	}{
		{0, 40, 0.25}, // 2 of 8 ticks stolen
		{10, 30, 0.5}, // 2 of 4
		{12, 38, 0.5}, // only the whole interval 20..30 counts: 1 of 2
		{21, 29, 0},   // inside one interval: no whole interval to read
		{31, 45, 0},   // after the last sample
		{-5, 10, 0},   // 0..10: no steal
	} {
		if got := clk.share(at(c.start), at(c.end)); got != c.want {
			t.Errorf("share(%d ms, %d ms) = %g, want %g", c.start, c.end, got, c.want)
		}
	}
	ws := windowStats{lat: []float64{40, 8}}
	clk.stop, clk.done = make(chan struct{}), make(chan struct{})
	close(clk.done)
	ws.closeWindow(clk, []interval{{at(0), at(40)}, {at(21), at(29)}})
	if ws.unstolen[0] != 30 || ws.unstolen[1] != 8 {
		t.Errorf("unstolen latencies %v, want [30 8]", ws.unstolen)
	}
}
