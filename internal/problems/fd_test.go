package problems

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/domain"
	"repro/internal/rng"
)

// fdHotPathProblem is the FD intersection the consistency suites
// exercise: the finite-domain engine contract plus the incremental
// executor, the batched assign evaluator and the maintained error
// vector.
type fdHotPathProblem interface {
	core.FDProblem
	core.AssignExecutor
	core.AssignEvaluator
	core.MaintainedErrorVector
}

// fdHotPathBuilders constructs one instance of every incremental FD
// encoding: the timetable benchmark and a mixed linear/custom csp model
// compiled onto the FD path (with a binary domain so flip moves are
// exercised too). Domains are reduced before the walk, matching the
// engine's pre-search pass.
func fdHotPathBuilders(t *testing.T) map[string]func() fdHotPathProblem {
	t.Helper()
	return map[string]func() fdHotPathProblem{
		"timetable": func() fdHotPathProblem {
			p, err := NewTimetable(20, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ReduceDomains(); err != nil {
				t.Fatal(err)
			}
			return p
		},
		"csp-fd-mixed": func() fdHotPathProblem {
			m := csp.NewModel(6, 1)
			m.AddLinearSum("lin", []int{0, 1, 2, 1}, nil, 14)
			m.AddLinearSum("coef", []int{2, 3, 4}, []int{2, -1, 3}, 11)
			m.AddWeighted("spread", []int{3, 4, 5}, 2, func(vals []int) int {
				d := vals[0] - vals[2]
				if d < 0 {
					d = -d
				}
				if d > 3 {
					return d - 3
				}
				return 0
			})
			m.SetDomainRange(0, 0, 7)
			m.SetDomain(1, 1, 3, 5)
			m.SetDomainRange(2, 0, 7)
			m.SetDomain(3, 0, 1) // binary: assigns on it are flips
			m.SetDomainRange(4, 0, 7)
			m.SetDomainRange(5, 2, 6)
			p, err := m.CompileFD()
			if err != nil {
				t.Fatalf("csp-fd-mixed: %v", err)
			}
			if err := p.ReduceDomains(); err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

// driveFDHotPath walks an FD problem through the engine's exact
// mutation pattern — Cost at run start, random in-domain assignments
// through ExecutedAssign, repeated queries, periodic full rebuilds —
// invoking check at every step.
func driveFDHotPath(t *testing.T, p fdHotPathProblem, steps int, check func(cfg []int, cost int, step string)) {
	t.Helper()
	n := p.Size()
	r := rng.New(2012)
	cfg := make([]int, n)
	for i := range cfg {
		d := p.Domain(i)
		cfg[i] = d[r.Intn(len(d))]
	}
	cost := p.Cost(cfg)
	check(cfg, cost, "initial")
	for step := 0; step < steps; step++ {
		i := r.Intn(n)
		d := p.Domain(i)
		v := d[r.Intn(len(d))]
		cost = p.CostIfAssign(cfg, cost, i, v)
		old := cfg[i]
		cfg[i] = v
		p.ExecutedAssign(cfg, i, old)
		check(cfg, cost, "after assign")
		check(cfg, cost, "repeat query")
		if step%37 == 0 {
			if rebuilt := p.Cost(cfg); rebuilt != cost {
				t.Fatalf("step %d: incremental cost %d != rebuilt cost %d", step, cost, rebuilt)
			}
			check(cfg, cost, "after Cost rebuild")
		}
	}
}

// TestFDMoveEvaluatorConsistency is the assign-move counterpart of
// TestMoveEvaluatorConsistency: at every step of a random assignment
// walk, the batched CostsIfAssignAll row must report exactly what
// per-call CostIfAssign reports for every (variable, value), with the
// current value's entry holding the current cost — so the batched fast
// path can never drift from the reference.
func TestFDMoveEvaluatorConsistency(t *testing.T) {
	for name, build := range fdHotPathBuilders(t) {
		t.Run(name, func(t *testing.T) {
			p := build()
			n := p.Size()
			row := make([]int, 64)
			driveFDHotPath(t, p, 60, func(cfg []int, cost int, step string) {
				for i := 0; i < n; i++ {
					d := p.Domain(i)
					out := row[:len(d)]
					p.CostsIfAssignAll(cfg, cost, i, out)
					for k, v := range d {
						want := p.CostIfAssign(cfg, cost, i, v)
						if v == cfg[i] && want != cost {
							t.Fatalf("%s: CostIfAssign(%d, current %d) = %d, want current cost %d", step, i, v, want, cost)
						}
						if out[k] != want {
							t.Fatalf("%s: CostsIfAssignAll(%d)[%d] = %d, CostIfAssign(v=%d) = %d (cfg %v)",
								step, i, k, out[k], v, want, cfg)
						}
					}
				}
			})
		})
	}
}

// TestFDErrorVectorConsistency drives the same walk and checks the
// delta-maintained error vector against the per-variable scan at every
// step.
func TestFDErrorVectorConsistency(t *testing.T) {
	for name, build := range fdHotPathBuilders(t) {
		t.Run(name, func(t *testing.T) {
			p := build()
			n := p.Size()
			out := make([]int, n)
			driveFDHotPath(t, p, 200, func(cfg []int, cost int, step string) {
				p.ErrorsOnVariables(cfg, out)
				live := p.LiveErrors(cfg)
				for i := 0; i < n; i++ {
					want := p.CostOnVariable(cfg, i)
					if out[i] != want || live[i] != want {
						t.Fatalf("%s: errVec[%d] out=%d live=%d, CostOnVariable=%d (cfg %v)",
							step, i, out[i], live[i], want, cfg)
					}
				}
			})
		})
	}
}

// TestFDCostIfSwapHonest checks the retained swap evaluator against a
// from-scratch Cost on a swapped copy: exchange probes and harnesses
// still evaluate swap perturbations on FD encodings.
func TestFDCostIfSwapHonest(t *testing.T) {
	p, err := NewTimetable(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewTimetable(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	n := p.Size()
	r := rng.New(99)
	cfg := make([]int, n)
	for i := range cfg {
		d := p.Domain(i)
		cfg[i] = d[r.Intn(len(d))]
	}
	cost := p.Cost(cfg)
	scratch := make([]int, n)
	for trial := 0; trial < 200; trial++ {
		i, j := r.Intn(n), r.Intn(n)
		got := p.CostIfSwap(cfg, cost, i, j)
		copy(scratch, cfg)
		scratch[i], scratch[j] = scratch[j], scratch[i]
		if want := fresh.Cost(scratch); got != want {
			t.Fatalf("CostIfSwap(%d,%d) = %d, fresh Cost = %d", i, j, got, want)
		}
		if again := p.Cost(cfg); again != cost {
			t.Fatalf("CostIfSwap corrupted caches: cost %d -> %d", cost, again)
		}
	}
}

// TestTimetableParams covers the params-aware constructor: unknown and
// invalid parameters fail with the typed error, and valid overrides
// shape the instance.
func TestTimetableParams(t *testing.T) {
	if _, err := NewTimetable(10, map[string]int{"professors": 3}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("unknown param: err = %v, want ErrBadParams", err)
	}
	if _, err := NewTimetable(10, map[string]int{"rooms": 0}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("non-positive param: err = %v, want ErrBadParams", err)
	}
	if _, err := NewWithParams("timetable", 10, map[string]int{"slots": -1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("registry non-positive param: err = %v, want ErrBadParams", err)
	}
	if _, err := NewWithParams("queens", 8, map[string]int{"slots": 2}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("params on a permutation benchmark: err = %v, want ErrBadParams", err)
	}
	p, err := NewTimetable(12, map[string]int{"slots": 4, "rooms": 3, "teachers": 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Size(); i++ {
		for _, v := range p.Domain(i) {
			if v < 0 || v >= 4 {
				t.Fatalf("Domain(%d) contains slot %d outside [0,4)", i, v)
			}
		}
	}
}

// TestTimetableUnsatisfiable pins the empty-domain proof: one room and
// two slots cannot host three sessions sharing that room, and the
// pigeonhole check in the all-different reduction proves it before
// search. The reduction is memoized per template, so the typed error
// must come back on every call from every instance, leave the
// generated domains as they were, and surface through core.Solve.
func TestTimetableUnsatisfiable(t *testing.T) {
	params := map[string]int{"rooms": 1, "slots": 2, "teachers": 3}
	for inst := 0; inst < 2; inst++ {
		p, err := NewTimetable(3, params)
		if err != nil {
			t.Fatal(err)
		}
		before := domainsOf(p)
		for call := 0; call < 3; call++ {
			if err := p.ReduceDomains(); !errors.Is(err, domain.ErrUnsatisfiable) {
				t.Fatalf("instance %d call %d: ReduceDomains = %v, want ErrUnsatisfiable", inst, call, err)
			}
		}
		if !slices.EqualFunc(domainsOf(p), before, slices.Equal) {
			t.Fatalf("instance %d: a failed reduction changed the domains", inst)
		}
		if _, err := core.Solve(context.Background(), p, core.DefaultOptions(p.Size())); !errors.Is(err, domain.ErrUnsatisfiable) {
			t.Fatalf("instance %d: Solve = %v, want ErrUnsatisfiable", inst, err)
		}
	}
}

// TestTimetableSolveVerify runs the full engine on the default instance
// and cross-checks the solution with the independent Verify scan.
func TestTimetableSolveVerify(t *testing.T) {
	p, err := NewTimetable(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.TunedOptions(p)
	opts.Seed = 42
	opts.MaxIterations = 50000
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("default timetable(20) unsolved: %v", res)
	}
	if !p.Verify(res.Solution) {
		t.Fatalf("Verify rejected the engine's solution %v", res.Solution)
	}
	if err := core.ValidateFDConfig(p, res.Solution); err != nil {
		t.Fatalf("solution outside domains: %v", err)
	}
	if res.Assigns == 0 || res.Swaps != 0 {
		t.Fatalf("FD counters off: assigns=%d swaps=%d", res.Assigns, res.Swaps)
	}
}
