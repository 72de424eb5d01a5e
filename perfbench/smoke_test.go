package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

// attributionTolerance is how far the traced run's self times, summed
// over every layer, may stray from the measured wall time.
const attributionTolerance = 0.02

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for about a second, untraced and
// traced. Each run must check out, print exactly the metrics
// BENCHMARK.json names with their units, and, traced, account for its
// whole wall time in the layers' self times.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	// service-open is not in BENCHMARK.json (METRICS.md says why) but
	// stays runnable, so it is checked with the rest.
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, mc, err := execute(options{workload: w.name, seed: 3, seconds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
			if mc.Samples != res.Attempted {
				t.Errorf("%s trace=%v: context reports %d samples, result %d", w.name, trace, mc.Samples, res.Attempted)
			}
			if trace {
				f := res.Metrics["trace.attributed_frac"].Value
				if f < 1-attributionTolerance || f > 1+attributionTolerance {
					t.Errorf("%s: layer self times add up to %.4f of the wall time, want 1 ± %v", w.name, f, attributionTolerance)
				}
			}
		}
	}
}

// TestIterationsRepeat checks that engine-seq's per-job iteration
// counts, and so its digest, are a function of the seed alone.
func TestIterationsRepeat(t *testing.T) {
	w, err := findWorkload("engine-seq")
	if err != nil {
		t.Fatal(err)
	}
	var phases []*phase
	for i := 0; i < 2; i++ {
		ph, err := setupAndRun(w, 11, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, ph)
	}
	if n := min(len(phases[0].jobs), len(phases[1].jobs)); n < 5 {
		t.Fatalf("only %d jobs in common", n)
	}
	if err := sameIterations(phases[0], phases[1]); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsWrongSolution checks the output check on a solution
// with two values swapped and on one with a value outside its domain.
func TestVerifyRejectsWrongSolution(t *testing.T) {
	for _, c := range []struct {
		problem string
		size    int
		params  map[string]int
	}{
		{"costas", 10, nil},
		{"timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
	} {
		p, err := problems.NewWithParams(c.problem, c.size, c.params)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.TunedOptions(p)
		opts.Seed = 5
		res, err := core.Solve(context.Background(), p, opts)
		if err != nil || !res.Solved {
			t.Fatalf("%s: solve: %v %v", c.problem, err, res)
		}
		if err := verifySolution(c.problem, c.size, c.params, res.Solution); err != nil {
			t.Fatalf("%s: correct solution rejected: %v", c.problem, err)
		}
		bad := append([]int(nil), res.Solution...)
		if c.problem == "costas" {
			bad[0], bad[1] = bad[1], bad[0]
		} else {
			bad[0] = -1
		}
		if err := verifySolution(c.problem, c.size, c.params, bad); !errors.Is(err, errWrongSolution) {
			t.Errorf("%s: wrong solution: got %v, want errWrongSolution", c.problem, err)
		}
	}
}

// TestAttribution checks self times on a root with two overlapping
// children, one of which holds an aggregated problem-method span.
func TestAttribution(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, Name: "root", Start: 0, Dur: 100e9})
	tr.add(span{ID: 2, Parent: 1, Name: "a", Start: 0, Dur: 60e9})
	tr.add(span{ID: 3, Parent: 1, Name: "b", Start: 40e9, Dur: 60e9})
	tr.add(span{ID: 4, Parent: 2, Name: "agg", Start: 0, Dur: 30e9, Calls: 7})
	self := tr.attribution()
	// a and b overlap on [40, 100]: each gets 40 + 10 = 50 of root's
	// 100; a's 60 s of span carry 50 s of wall, so its aggregate's 30
	// s carry 25 and a keeps 25.
	want := map[string]float64{"root": 0, "a": 25, "agg": 25, "b": 50}
	var sum float64
	for name, w := range want {
		if d := self[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 100 {
		t.Errorf("self times add up to %v, want 100", sum)
	}
}
