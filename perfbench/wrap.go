package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

// Problem methods timed by the traced run, in span-name order.
const (
	opSwapAll = iota
	opExecSwap
	opLiveErrors
	opAssignAll
	opExecAssign
	opReduce
	numOps
)

var opNames = [numOps]string{
	"problems.costs_if_swap_all",
	"problems.executed_swap",
	"problems.live_errors",
	"problems.costs_if_assign_all",
	"problems.executed_assign",
	"problems.reduce_domains",
}

// probe counts and times the hot problem methods of one problem
// instance. An instance belongs to one walker, so a probe is never
// used by two goroutines at once.
type probe struct {
	calls [numOps]int64
	ns    [numOps]int64
	last  time.Time // end of the latest timed call
}

func (p *probe) done(op int, t0 time.Time) {
	p.last = time.Now()
	p.calls[op]++
	p.ns[op] += int64(p.last.Sub(t0))
}

// emit records one aggregate span per timed method under parent.
func (p *probe) emit(tr *tracer, parent, job, start int64) {
	for op := 0; op < numOps; op++ {
		if p.calls[op] > 0 {
			tr.add(span{ID: tr.newID(), Parent: parent, Job: job, Name: opNames[op], Start: start, Dur: p.ns[op], Calls: p.calls[op]})
		}
	}
}

// instrument returns p wrapped so that its hot methods report to pr.
// Each wrapper embeds the concrete problem type, so every interface
// the engine detects on the problem (MoveEvaluator,
// MaintainedErrorVector, Tuner, FDProblem, ...) is still there and the
// engine takes the same path; the overriding methods only time the
// call. Problem types without a wrapper are returned unchanged.
func instrument(p core.Problem, pr *probe) core.Problem {
	switch q := p.(type) {
	case *problems.Costas:
		return costasProbe{q, pr}
	case *problems.Alpha:
		return alphaProbe{q, pr}
	case *problems.MagicSquare:
		return magicProbe{q, pr}
	case *problems.Queens:
		return queensProbe{q, pr}
	case *problems.AllInterval:
		return allIntervalProbe{q, pr}
	case *problems.Timetable:
		return timetableProbe{q, pr}
	}
	return p
}

type costasProbe struct {
	*problems.Costas
	pr *probe
}

func (w costasProbe) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	t0 := time.Now()
	w.Costas.CostsIfSwapAll(cfg, cost, i, out)
	w.pr.done(opSwapAll, t0)
}

func (w costasProbe) ExecutedSwap(cfg []int, i, j int) {
	t0 := time.Now()
	w.Costas.ExecutedSwap(cfg, i, j)
	w.pr.done(opExecSwap, t0)
}

func (w costasProbe) LiveErrors(cfg []int) []int {
	t0 := time.Now()
	v := w.Costas.LiveErrors(cfg)
	w.pr.done(opLiveErrors, t0)
	return v
}

type alphaProbe struct {
	*problems.Alpha
	pr *probe
}

func (w alphaProbe) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	t0 := time.Now()
	w.Alpha.CostsIfSwapAll(cfg, cost, i, out)
	w.pr.done(opSwapAll, t0)
}

func (w alphaProbe) ExecutedSwap(cfg []int, i, j int) {
	t0 := time.Now()
	w.Alpha.ExecutedSwap(cfg, i, j)
	w.pr.done(opExecSwap, t0)
}

func (w alphaProbe) LiveErrors(cfg []int) []int {
	t0 := time.Now()
	v := w.Alpha.LiveErrors(cfg)
	w.pr.done(opLiveErrors, t0)
	return v
}

type magicProbe struct {
	*problems.MagicSquare
	pr *probe
}

func (w magicProbe) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	t0 := time.Now()
	w.MagicSquare.CostsIfSwapAll(cfg, cost, i, out)
	w.pr.done(opSwapAll, t0)
}

func (w magicProbe) ExecutedSwap(cfg []int, i, j int) {
	t0 := time.Now()
	w.MagicSquare.ExecutedSwap(cfg, i, j)
	w.pr.done(opExecSwap, t0)
}

func (w magicProbe) LiveErrors(cfg []int) []int {
	t0 := time.Now()
	v := w.MagicSquare.LiveErrors(cfg)
	w.pr.done(opLiveErrors, t0)
	return v
}

type queensProbe struct {
	*problems.Queens
	pr *probe
}

func (w queensProbe) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	t0 := time.Now()
	w.Queens.CostsIfSwapAll(cfg, cost, i, out)
	w.pr.done(opSwapAll, t0)
}

func (w queensProbe) ExecutedSwap(cfg []int, i, j int) {
	t0 := time.Now()
	w.Queens.ExecutedSwap(cfg, i, j)
	w.pr.done(opExecSwap, t0)
}

func (w queensProbe) LiveErrors(cfg []int) []int {
	t0 := time.Now()
	v := w.Queens.LiveErrors(cfg)
	w.pr.done(opLiveErrors, t0)
	return v
}

type allIntervalProbe struct {
	*problems.AllInterval
	pr *probe
}

func (w allIntervalProbe) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	t0 := time.Now()
	w.AllInterval.CostsIfSwapAll(cfg, cost, i, out)
	w.pr.done(opSwapAll, t0)
}

func (w allIntervalProbe) ExecutedSwap(cfg []int, i, j int) {
	t0 := time.Now()
	w.AllInterval.ExecutedSwap(cfg, i, j)
	w.pr.done(opExecSwap, t0)
}

func (w allIntervalProbe) LiveErrors(cfg []int) []int {
	t0 := time.Now()
	v := w.AllInterval.LiveErrors(cfg)
	w.pr.done(opLiveErrors, t0)
	return v
}

type timetableProbe struct {
	*problems.Timetable
	pr *probe
}

func (w timetableProbe) CostsIfAssignAll(cfg []int, cost, i int, out []int) {
	t0 := time.Now()
	w.Timetable.CostsIfAssignAll(cfg, cost, i, out)
	w.pr.done(opAssignAll, t0)
}

func (w timetableProbe) ExecutedAssign(cfg []int, i, old int) {
	t0 := time.Now()
	w.Timetable.ExecutedAssign(cfg, i, old)
	w.pr.done(opExecAssign, t0)
}

func (w timetableProbe) LiveErrors(cfg []int) []int {
	t0 := time.Now()
	v := w.Timetable.LiveErrors(cfg)
	w.pr.done(opLiveErrors, t0)
	return v
}

// ReduceDomains is the FD pre-search pass; it is timed as part of the
// problem build.
func (w timetableProbe) ReduceDomains() error {
	t0 := time.Now()
	err := w.Timetable.ReduceDomains()
	w.pr.done(opReduce, t0)
	return err
}
