package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

// engineFamily is one engine-seq family with its share of the job list.
type engineFamily struct {
	name   string
	size   int
	weight int // solves per cycle of the job list
}

// engineMix sets per-family solve counts from the mean solve times on
// the 2-core reference machine (costas-13 about 7 ms, timetable-400
// 4 ms, magic-square-6 9 ms, alpha 480 ms). Costas, timetable and
// magic-square each take about a third of search time; one cycle of
// the job list lasts about 80 seconds, longer than any run, and starts
// with its one alpha solve, so every run times exactly one alpha solve.
//
// The three sizes are chosen so that their solves take comparable
// times: with one family ten times faster than the rest, it made up
// nine solves in ten, the 95th percentile fell in the sparse middle of
// the slow families' few hundred draws, and it moved by a quarter from
// seed to seed. Alpha is kept to one solve per run because its solve
// time is heavy-tailed (median 220 ms, 99th percentile 2 s): at three
// solves per run its draws alone moved the run's throughput and
// iteration rate by a tenth.
//
//   - costas-13: problem-specific batched swap deltas.
//   - timetable-400: the finite-domain assign path, a few ms per solve.
//   - magic-square-6: line-local error-vector upkeep.
//   - alpha: the csp.Compiled linear model under the exhaustive pair scan.
var engineMix = []engineFamily{
	{"costas", 13, 4000},
	{"timetable", 400, 4800},
	{"magic-square", 6, 2000},
	{"alpha", 26, 1},
}

// engineJobTimeout bounds one solve; a solve that hits it is unsolved
// and counts as failed.
const engineJobTimeout = 20 * time.Second

// warmIters is the fixed iteration budget of each warm-up solve.
const warmIters = 3000

// setupSeed seeds all set-up work (warm-up solves and jobs, calibration
// seeding). It is not the run's seed, so every run sets up the same way
// and setup_s compares across runs; only the measured jobs come from
// the run's seed.
const setupSeed = 0x5e7

type engineBench struct {
	seed  uint64
	cycle []engineFamily // the job list repeats this order
}

func setupEngine(seed uint64, _ bool) (env, error) {
	e := &engineBench{seed: seed, cycle: interleave(engineMix)}
	for _, f := range engineMix {
		p, err := problems.New(f.name, f.size)
		if err != nil {
			return nil, err
		}
		opts := core.TunedOptions(p)
		opts.Seed = setupSeed
		opts.MaxRuns = 1
		opts.MaxIterations = warmIters
		if _, err := core.Solve(context.Background(), p, opts); err != nil {
			return nil, fmt.Errorf("warm-up %s-%d: %w", f.name, f.size, err)
		}
	}
	return e, nil
}

func (e *engineBench) close() {}

// interleave spreads each family's weight evenly over one cycle
// (smooth weighted round robin), so any stretch of the job list holds
// every family in about its share. The cycle is rotated to start with
// the rarest family.
func interleave(mix []engineFamily) []engineFamily {
	total := 0
	for _, f := range mix {
		total += f.weight
	}
	cur := make([]int, len(mix))
	out := make([]engineFamily, 0, total)
	for len(out) < total {
		best := 0
		for i, f := range mix {
			cur[i] += f.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, mix[best])
	}
	rarest := 0
	for i, f := range mix {
		if f.weight < mix[rarest].weight {
			rarest = i
		}
	}
	for i, f := range out {
		if f.name == mix[rarest].name {
			return append(out[i:], out[:i]...)
		}
	}
	return out
}

// jobSeed derives the engine seed of job i from the run seed
// (splitmix64), so job i is the same (instance, seed) on every run
// with that seed.
func jobSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (e *engineBench) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	var runID, runStart int64
	if tr != nil {
		runID, runStart = tr.newID(), tr.now()
	}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		rec, err := e.solve(ph, tr, runID, i)
		if err != nil {
			return nil, err
		}
		ph.jobs = append(ph.jobs, rec)
	}
	ph.wall = time.Since(start)
	if tr != nil {
		tr.end(runID, 0, 0, "bench.run", runStart)
	}
	return ph, nil
}

// solve runs job i: build, core.Solve, verify. Latency is the
// core.Solve call alone.
func (e *engineBench) solve(ph *phase, tr *tracer, runID int64, i int) (jobRec, error) {
	f := e.cycle[i%len(e.cycle)]
	seed := jobSeed(e.seed, i)
	job := int64(i + 1)
	var reqID, reqStart int64
	if tr != nil {
		reqID, reqStart = tr.newID(), tr.now()
	}

	b0 := time.Now()
	p, err := problems.New(f.name, f.size)
	if err != nil {
		return jobRec{}, err
	}
	var pr *probe
	if tr != nil {
		pr = &probe{}
		p = instrument(p, pr)
		tr.add(span{ID: tr.newID(), Parent: reqID, Job: job, Name: "problems.build", Start: tr.at(b0), Dur: int64(time.Since(b0))})
	}
	buildNS := time.Since(b0)

	opts := core.TunedOptions(p)
	opts.Seed = seed
	ctx, cancel := context.WithTimeout(context.Background(), engineJobTimeout)
	s0 := time.Now()
	res, err := core.Solve(ctx, p, opts)
	lat := time.Since(s0)
	cancel()
	if err != nil {
		return jobRec{}, fmt.Errorf("%s-%d seed %d: %w", f.name, f.size, seed, err)
	}
	ph.core.add(f.name, &res)
	if tr != nil {
		solveID := tr.newID()
		tr.add(span{ID: solveID, Parent: reqID, Job: job, Name: "core.solve", Start: tr.at(s0), Dur: int64(lat)})
		pr.emit(tr, solveID, job, tr.at(s0))
		ph.build = append(ph.build, ms(buildNS)+float64(pr.ns[opReduce])/1e6)
	}

	if res.Solved {
		v0 := time.Now()
		if err := verifySolution(f.name, f.size, nil, res.Solution); err != nil {
			return jobRec{}, fmt.Errorf("job %d seed %d: %w", i, seed, err)
		}
		if tr != nil {
			tr.add(span{ID: tr.newID(), Parent: reqID, Job: job, Name: "bench.verify", Start: tr.at(v0), Dur: int64(time.Since(v0))})
		}
	}
	if tr != nil {
		tr.end(reqID, runID, job, "bench.request", reqStart)
	}
	return jobRec{
		key:    fmt.Sprintf("%s-%d/%d", f.name, f.size, seed),
		lat:    lat,
		ok:     res.Solved,
		iters:  res.Iterations,
		pinned: res.Solved,
	}, nil
}
