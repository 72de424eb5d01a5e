package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// endToEndUnits lists the metrics a --trace 0 run prints.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_p95_ms":   "ms",
	"throughput_per_s": "jobs/s",
	"iters_per_s":      "iters/s",
	"slo_frac":         "fraction",
	"peak_rss_mb":      "MB",
}

// selfLayers are the span names whose wall-time share the traced run
// reports as trace.<name>.self_s.
var selfLayers = []string{
	"bench.run", "bench.request", "bench.verify", "problems.build", "core.solve",
	"service.handler", "service.backend", "multiwalk.walker", "dist.worker_run", "dist.worker_cancel",
}

// families are the engine-seq families with their own iteration rate.
var families = []string{"costas", "alpha", "magic-square", "timetable"}

// perLayerUnits lists the metrics a --trace 1 run prints. Every
// workload prints all of them; a layer a workload does not reach reads
// 0.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"core.iterations":        "count",
		"core.busy_s":            "s",
		"core.iters_per_busy_s":  "iters/s",
		"core.swaps_per_iter":    "ratio",
		"core.assigns_per_iter":  "ratio",
		"core.restarts":          "count",
		"core.resets":            "count",
		"core.local_minima":      "count",
		"core.prefix_iterations": "count",

		"problems.move_eval_share": "fraction",
		"problems.build_ms_p50":    "ms",

		"multiwalk.useful_iter_frac": "fraction",
		"multiwalk.truncated":        "count",

		"service.queue_wait_p50_ms":    "ms",
		"service.queue_wait_p95_ms":    "ms",
		"service.run_p50_ms":           "ms",
		"service.http_overhead_p50_ms": "ms",
		"service.slots_busy_frac":      "fraction",
		"service.rejected":             "count",
		"service.jobs_failed":          "count",

		"runtime.allocs_per_job": "count",
		"runtime.gc_cpu_frac":    "fraction",

		"calibrate.autosize_admitted":     "count",
		"calibrate.autosize_rejected":     "count",
		"calibrate.autosize_k1":           "count",
		"calibrate.autosize_k2":           "count",
		"calibrate.autosize_extra_p50_ms": "ms",
		"calibrate.seq_draws_end":         "count",
		"calibrate.resolve_ms_end":        "ms",

		"dist.shard_runs":            "count",
		"dist.cancels":               "count",
		"dist.shard_busy_p50_ms":     "ms",
		"dist.dispatch_p50_ms":       "ms",
		"dist.loser_tail_p50_ms":     "ms",
		"dist.merge_p50_ms":          "ms",
		"dist.bytes_per_job":         "bytes",
		"dist.failovers":             "count",
		"dist.shards_lost":           "count",
		"dist.speculations_launched": "count",

		"bench.gen_lag_p95_ms":      "ms",
		"bench.ref_rate_start":      "Msteps/s",
		"bench.ref_rate_end":        "Msteps/s",
		"bench.samples":             "count",
		"bench.trace_overhead_frac": "fraction",
		"failed_frac":               "fraction",
		"trace.attributed_frac":     "fraction",
	}
	for _, f := range families {
		m["core."+f+".iters_per_busy_s"] = "iters/s"
	}
	for op := 0; op < numOps; op++ {
		if op == opReduce {
			continue // reported inside problems.build_ms_p50
		}
		m[opNames[op]+".calls"] = "count"
		m[opNames[op]+".self_s"] = "s"
	}
	for _, l := range selfLayers {
		m["trace."+l+".self_s"] = "s"
	}
	return m
}()

// jobRec is one attempted job of a measured phase.
type jobRec struct {
	key    string        // instance and seed, for the determinism check
	lat    time.Duration // latency as the workload defines it
	ok     bool          // solved, and the solution verified
	iters  int64         // engine iterations summed over all walkers
	pinned bool          // iters is fixed by (instance, seed)
}

// coreCounts sums core.Result fields over every walker of a phase.
type coreCounts struct {
	iters, swaps, assigns, resets, locmin int64
	restarts                              int64
	busy                                  time.Duration
	famIters                              map[string]int64
	famBusy                               map[string]time.Duration
}

func (c *coreCounts) add(family string, r *core.Result) {
	c.iters += r.Iterations
	c.swaps += r.Swaps
	c.assigns += r.Assigns
	c.resets += r.Resets
	c.locmin += r.LocalMinima
	c.restarts += int64(r.Restarts)
	c.busy += r.Elapsed
	if c.famIters == nil {
		c.famIters = make(map[string]int64)
		c.famBusy = make(map[string]time.Duration)
	}
	c.famIters[family] += r.Iterations
	c.famBusy[family] += r.Elapsed
}

// phase is the outcome of one measured phase.
type phase struct {
	wall  time.Duration
	jobs  []jobRec
	core  coreCounts
	build []float64 // problem build times in ms, traced phase only
	// layer holds workload-specific per-layer metrics.
	layer map[string]float64
	// runtime/metrics deltas over the phase.
	allocs, gcCPU, totalCPU float64
}

func newPhase() *phase { return &phase{layer: make(map[string]float64)} }

// digest hashes (instance, seed, iterations) of the first prefixJobs
// pinned jobs, and sums their iterations.
const prefixJobs = 64

func (p *phase) digest() string {
	h := fnv.New64a()
	n := 0
	for i := range p.jobs {
		j := &p.jobs[i]
		if !j.pinned {
			continue
		}
		fmt.Fprintf(h, "%s:%d;", j.key, j.iters)
		if n++; n == prefixJobs {
			break
		}
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), n)
}

func (p *phase) prefixIterations() int64 {
	var s int64
	n := 0
	for i := range p.jobs {
		if p.jobs[i].pinned {
			s += p.jobs[i].iters
			if n++; n == prefixJobs {
				break
			}
		}
	}
	return s
}

// readRuntime samples the runtime/metrics counters the phase reports.
func readRuntime() (allocs, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// runPhase runs one measured phase with the runtime counters around it.
func runPhase(b env, d time.Duration, tr *tracer) (*phase, error) {
	a0, g0, c0 := readRuntime()
	ph, err := b.run(d, tr)
	if err != nil {
		return nil, err
	}
	a1, g1, c1 := readRuntime()
	ph.allocs, ph.gcCPU, ph.totalCPU = a1-a0, g1-g0, c1-c0
	return ph, nil
}

// summary is the part of the end-to-end metrics both run kinds share.
type summary struct {
	attempted, failed int
	p50, p95          float64 // ms, over verified jobs
	inLimit           int
}

func summarize(ph *phase, limit time.Duration) summary {
	s := summary{attempted: len(ph.jobs)}
	lats := make([]float64, 0, len(ph.jobs))
	for i := range ph.jobs {
		j := &ph.jobs[i]
		if !j.ok {
			s.failed++
			continue
		}
		lats = append(lats, ms(j.lat))
		if j.lat <= limit {
			s.inLimit++
		}
	}
	s.p50 = quantile(lats, 0.5)
	s.p95 = quantile(lats, 0.95)
	return s
}

// endToEnd builds the --trace 0 result line.
func endToEnd(w workload, ph *phase, setupS float64) *result {
	s := summarize(ph, w.limit)
	var iters int64
	for i := range ph.jobs {
		iters += ph.jobs[i].iters
	}
	wall := ph.wall.Seconds()
	vals := map[string]float64{
		"setup_s":          setupS,
		"latency_p50_ms":   s.p50,
		"latency_p95_ms":   s.p95,
		"throughput_per_s": float64(s.attempted-s.failed) / wall,
		"iters_per_s":      float64(iters) / wall,
		"slo_frac":         float64(s.inLimit) / float64(max(s.attempted, 1)),
		"peak_rss_mb":      peakRSSMB(),
	}
	return newResult(s, vals, endToEndUnits)
}

func newResult(s summary, vals map[string]float64, units map[string]string) *result {
	res := &result{Correct: true, Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]metric, len(units))}
	for name, unit := range units {
		v := vals[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res
}

// perLayer builds the --trace 1 result line from the traced phase, with
// the untraced phase of the same run as the overhead baseline.
func perLayer(w workload, plain, traced *phase, tr *tracer, mc *machineContext) *result {
	s := summarize(traced, w.limit)
	base := summarize(plain, w.limit)
	vals := make(map[string]float64)
	for k, v := range traced.layer {
		vals[k] = v
	}
	c := &traced.core
	vals["core.iterations"] = float64(c.iters)
	vals["core.busy_s"] = c.busy.Seconds()
	vals["core.iters_per_busy_s"] = float64(c.iters) / c.busy.Seconds()
	for _, f := range families {
		vals["core."+f+".iters_per_busy_s"] = float64(c.famIters[f]) / c.famBusy[f].Seconds()
	}
	vals["core.swaps_per_iter"] = float64(c.swaps) / float64(c.iters)
	vals["core.assigns_per_iter"] = float64(c.assigns) / float64(c.iters)
	vals["core.restarts"] = float64(c.restarts)
	vals["core.resets"] = float64(c.resets)
	vals["core.local_minima"] = float64(c.locmin)
	vals["core.prefix_iterations"] = float64(traced.prefixIterations())

	dur, calls := tr.sums()
	for op := 0; op < numOps; op++ {
		vals[opNames[op]+".calls"] = float64(calls[opNames[op]])
		vals[opNames[op]+".self_s"] = dur[opNames[op]]
	}
	moveEval := dur[opNames[opSwapAll]] + dur[opNames[opAssignAll]]
	vals["problems.move_eval_share"] = moveEval / c.busy.Seconds()
	vals["problems.build_ms_p50"] = quantile(traced.build, 0.5)

	self := tr.attribution()
	var attributed float64
	for _, v := range self {
		attributed += v
	}
	for _, l := range selfLayers {
		vals["trace."+l+".self_s"] = self[l]
	}
	vals["trace.attributed_frac"] = attributed / dur["bench.run"]

	vals["runtime.allocs_per_job"] = traced.allocs / float64(max(s.attempted, 1))
	vals["runtime.gc_cpu_frac"] = traced.gcCPU / traced.totalCPU
	vals["bench.samples"] = float64(s.attempted)
	vals["bench.trace_overhead_frac"] = s.p50/base.p50 - 1
	vals["failed_frac"] = float64(s.failed) / float64(max(s.attempted, 1))
	if lag, ok := plain.layer["bench.gen_lag_p95_ms"]; ok {
		vals["bench.gen_lag_p95_ms"] = lag
	}
	vals["bench.ref_rate_start"] = mc.RefRateStart
	vals["bench.ref_rate_end"] = mc.RefRateEnd
	return newResult(s, vals, perLayerUnits)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (0 for an empty
// slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB reads VmHWM, the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
