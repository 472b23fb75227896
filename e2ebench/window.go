package main

import (
	"fmt"
	"time"
)

// windowStats summarises one timed window.
type windowStats struct {
	lat      []float64 // latency of every op, ms
	unstolen []float64 // the same less the host steal inside each op, ms
	ops      int
	length   time.Duration
	steal    float64       // host steal over the window, percent
	rss      float64       // peak RSS of the process under test, MiB
	cpu      time.Duration // CPU of the generator over the window
	opCPU    float64       // CPU of the process under test per op, ms
}

// interval is when one op ran.
type interval struct{ start, end time.Time }

// closeWindow stops the window's steal clock and sets the host steal
// over the window and each op's unstolen latency: its latency times one
// minus the steal share inside it (lat and ops are parallel).
func (ws *windowStats) closeWindow(clk *stealClock, ops []interval) {
	clk.halt()
	ws.steal = clk.window()
	ws.unstolen = make([]float64, len(ops))
	for i, op := range ops {
		ws.unstolen[i] = ws.lat[i] * (1 - clk.share(op.start, op.end))
	}
}

// windows runs the timed window. A traced run splits it into an
// untraced half and a traced half and reports the difference of their
// median latencies; the traced half's figures are returned.
func (r *runner) windows(loop func(dur time.Duration, tr *tracer) windowStats) windowStats {
	if !r.traced {
		return loop(r.window, nil)
	}
	plain := loop(r.window/2, nil)
	traced := loop(r.window/2, r.tr)
	p0, p1 := median(plain.lat), median(traced.lat)
	r.out.set("trace.overhead_pct", 100*(p1-p0)/p0, "%", len(traced.lat),
		fmt.Sprintf("traced minus untraced median latency (%d and %d ops, half window each)", len(traced.lat), len(plain.lat)))
	return traced
}

// reportWindow sets the end-to-end metrics of a window. setup holds the
// set-up samples in CPU seconds; noun names the op.
func (r *runner) reportWindow(ws windowStats, setup []float64, noun, cpuNote, rssNote string) {
	o := &r.out
	lat := sortedCopy(ws.lat)
	n := len(lat)
	o.set("setup_s", median(setup), "s", len(setup), "median set-up CPU time")
	o.set("cpu_ms_per_op", ws.opCPU, "ms", ws.ops, cpuNote)
	o.set("unstolen_latency_p50_ms", median(ws.unstolen), "ms", n, "median over "+noun+"s of the latency less the host steal inside it")
	o.set("latency_p50_ms", percentile(lat, 50), "ms", n, "over every "+noun+" of the window")
	note := fmt.Sprintf("%d samples beyond", beyond(n, 90))
	if beyond(n, 90) < 10 {
		note += ": fewer than ten, so only indicative"
	}
	o.set("latency_p90_ms", percentile(lat, 90), "ms", n, note)
	if p, ok := tailPercentile(n); ok {
		o.set("latency_tail_ms", percentile(lat, p), "ms", n,
			fmt.Sprintf("p%g, the highest percentile with >= 10 samples beyond (%d)", p, beyond(n, p)))
	}
	o.set("latency_p99_ms", percentile(lat, 99), "ms", n, fmt.Sprintf("diagnostic, %d samples beyond", beyond(n, 99)))
	o.set("latency_max_ms", lat[n-1], "ms", n, "diagnostic")
	o.set("throughput_ops", float64(ws.ops)/ws.length.Seconds(), "ops/s", ws.ops,
		fmt.Sprintf("%d %ss in %.3f s", ws.ops, noun, ws.length.Seconds()))
	o.set("peak_rss_mb", ws.rss, "MiB", 0, rssNote)
	o.set("window.steal_pct", ws.steal, "%", 0, "hypervisor steal over the window, /proc/stat")
}
