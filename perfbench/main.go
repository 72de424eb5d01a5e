// Command perfbench is the repository benchmark. It runs one seeded
// workload in this process for a fixed time, re-verifies every solved
// job, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last
// line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload engine-seq -seed 1 -seconds 10 -trace 0
//
// Workloads (METRICS.md gives the reasons and the layer-to-end-to-end
// mapping):
//
//	engine-seq    closed loop, one client, core.Solve on four families
//	service-open  open loop of Poisson arrivals over loopback HTTP to
//	              service.NewHandler on the local backend
//	fleet-k2      closed loop, one client, k=2 jobs sharded over two
//	              in-process dist workers with one slot each
//
// A wrong solution, a determinism mismatch or a failed set-up ends the
// process with a non-zero exit code and no result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times each run builds its environment; setup_s
// is the median, and the last environment serves the measured phase.
const setupReps = 9

// env is one set-up workload environment.
type env interface {
	// run executes a measured phase of length d and returns its jobs.
	// tr is nil for the untraced phase.
	run(d time.Duration, tr *tracer) (*phase, error)
	close()
}

// workload names one benchmark workload.
type workload struct {
	name string
	// limit is the latency limit behind slo_frac.
	limit time.Duration
	// setup builds a ready-to-measure environment for seed; traced
	// selects the instrumented variant (middleware, traced backend).
	setup func(seed uint64, traced bool) (env, error)
}

var workloads = []workload{
	{name: "engine-seq", limit: 100 * time.Millisecond, setup: setupEngine},
	{name: "service-open", limit: 5 * time.Millisecond, setup: setupService},
	{name: "fleet-k2", limit: 50 * time.Millisecond, setup: setupFleet},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: engine-seq, service-open or fleet-k2")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the traced phase's spans to this file as JSON lines")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	res, ctx, err := execute(o)
	if err != nil {
		fail(err)
	}
	printJSON(map[string]any{"context": ctx})
	printJSON(res)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and returns its result line and the
// machine context it ran in. Every returned error means the run is
// invalid: a wrong solution, a determinism mismatch, or a failed
// set-up.
func execute(o options) (*result, *machineContext, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	mc := startContext()
	d := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		b, setupS, err := setupMedian(w, o.seed)
		if err != nil {
			return nil, nil, err
		}
		ph, err := runPhase(b, d, nil)
		b.close()
		if err != nil {
			return nil, nil, err
		}
		mc.finish(ph)
		return endToEnd(w, ph, setupS), mc, nil
	}

	// Traced run: an untraced phase and a traced phase of half the
	// length each, so the tracing overhead is measured on the same
	// inputs in the same process.
	plain, err := setupAndRun(w, o.seed, d/2, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := setupAndRun(w, o.seed, d/2, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := sameIterations(plain, traced); err != nil {
		return nil, nil, err
	}
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, nil, err
		}
	}
	mc.finish(traced)
	return perLayer(w, plain, traced, tr, mc), mc, nil
}

func setupAndRun(w workload, seed uint64, d time.Duration, tr *tracer) (*phase, error) {
	b, err := w.setup(seed, tr != nil)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer b.close()
	return runPhase(b, d, tr)
}

// setupMedian builds the environment setupReps times, closing all but
// the last, and returns the last with the median set-up time.
func setupMedian(w workload, seed uint64) (env, float64, error) {
	var times []float64
	var b env
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		b, err = w.setup(seed, false)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, quantile(times, 0.5), nil
}

// sameIterations is the determinism check: every (instance, seed) job
// both phases ran must have taken the same number of iterations, so
// the traced wrappers cannot have altered the search. Jobs whose
// iteration count depends on timing (multi-walker first-solution
// races) carry no fixed count and are skipped.
func sameIterations(a, b *phase) error {
	n := min(len(a.jobs), len(b.jobs))
	for i := 0; i < n; i++ {
		ja, jb := &a.jobs[i], &b.jobs[i]
		if !ja.pinned || !jb.pinned {
			continue
		}
		if ja.key != jb.key || ja.iters != jb.iters {
			return fmt.Errorf("determinism: job %d (%s) took %d iterations untraced and %d (%s) traced",
				i, ja.key, ja.iters, jb.iters, jb.key)
		}
	}
	return nil
}
