package main

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calibrate"
	"repro/internal/dist"
	"repro/internal/service"
)

// fleetMix is one block of fleet-k2's job list. Most jobs are
// independent k=2 jobs of medium size, sharded one walker per worker;
// the timetable jobs carry their params on the wire. One job in five is
// an {"autosize": {}} costas-13 request, which the scheduler sizes from
// a calibration store seeded at set-up (the fleet's two slots cap it at
// k=2), and one in five is its fixed k=1 twin, which
// calibrate.autosize_extra_p50_ms compares it with and whose solves
// the live feed records as sequential draws.
var fleetMix = []scenario{
	fleetCostasK2, fleetCostasK2, fleetCostasK2,
	fleetTimetable, fleetTimetable, fleetTimetable,
	fleetAutosize, fleetAutosize,
	fleetCostasK1, fleetCostasK1,
}

var (
	fleetCostasK2  = scenario{"costas-13x2", service.Request{Problem: "costas", Size: 13, Walkers: 2, TimeoutMS: jobTimeoutMS}}
	fleetTimetable = scenario{"timetable-160x2", service.Request{Problem: "timetable", Size: 160, Walkers: 2, TimeoutMS: jobTimeoutMS,
		Params: map[string]int{"slots": 40, "rooms": 4, "teachers": 4}}}
	fleetAutosize = scenario{"autosize-costas-13", service.Request{
		Problem: "costas", Size: 13, AutoSize: &service.AutoSizeSpec{}, TimeoutMS: jobTimeoutMS,
	}}
	fleetCostasK1 = scenario{"costas-13", service.Request{Problem: "costas", Size: 13, Walkers: 1, TimeoutMS: jobTimeoutMS}}
)

// fleetWorkers is the fleet size; each worker has one slot.
const fleetWorkers = 2

// fleetBench is the fleet-k2 workload: the scheduler's backend is a
// dist.Coordinator over in-process dist.Worker servers on loopback
// HTTP, with the default HTTP/JSON control plane.
type fleetBench struct {
	s       *server
	srv     atomic.Pointer[server] // s, for the worker middleware
	seed    uint64
	store   *calibrate.Store
	coord   *dist.Coordinator
	workers []*dist.Worker
	wsrv    []*httptest.Server

	// Traced runs only. The client is a closed loop of one, so the job
	// in flight is the one every worker request belongs to.
	cur     atomic.Uint64 // seed of the job in flight
	runs    atomic.Int64
	cancels atomic.Int64
	bytes   atomic.Int64
	mu      sync.Mutex
	busy    []float64 // /v1/run handler durations in ms
}

func setupFleet(seed uint64, traced bool) (env, error) {
	store, err := seededStore(13)
	if err != nil {
		return nil, err
	}
	f := &fleetBench{seed: seed, store: store}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		wk := dist.NewWorker(dist.WorkerConfig{Slots: 1})
		var h http.Handler = wk.Handler()
		if traced {
			h = f.workerMiddleware(h)
		}
		srv := httptest.NewServer(h)
		f.workers = append(f.workers, wk)
		f.wsrv = append(f.wsrv, srv)
		urls = append(urls, srv.URL)
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Workers: urls})
	if err != nil {
		f.closeWorkers()
		return nil, err
	}
	f.coord = coord
	cfg := service.Config{Backend: coord, Calibration: store, ResultTTL: resultTTL}
	var tb *tracedBackend
	if traced {
		tb = &tracedBackend{inner: coord}
		cfg.Backend = tb
	}
	f.s = newServer(cfg, traced)
	f.srv.Store(f.s)
	if tb != nil {
		tb.s = f.s
	}
	if err := warmUp(f.s, fleetMix); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetBench) closeWorkers() {
	for i := range f.workers {
		f.wsrv[i].Close()
		f.workers[i].Close()
	}
}

// close stops the scheduler, which closes the coordinator, then the
// workers.
func (f *fleetBench) close() {
	f.s.close()
	f.closeWorkers()
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// workerMiddleware opens a span per shard run and cancel request under
// the job's service.backend span, and counts their bytes.
func (f *fleetBench) workerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		run := r.URL.Path == "/v1/run"
		cancel := strings.HasSuffix(r.URL.Path, "/cancel")
		var jt *jobTrace
		var tr *tracer
		if run || cancel {
			// Shard traffic starts only once the server is up.
			s := f.srv.Load()
			tr = s.trace.Load()
			if v, ok := s.jobs.Load(f.cur.Load()); ok && tr != nil {
				jt = v.(*jobTrace)
			}
		}
		if jt == nil {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		arrive := time.Now()
		id, start := tr.newID(), tr.at(arrive)
		next.ServeHTTP(cw, r)
		end := time.Now()
		name := "dist.worker_cancel"
		if run {
			name = "dist.worker_run"
			f.runs.Add(1)
			f.mu.Lock()
			f.busy = append(f.busy, ms(end.Sub(arrive)))
			f.mu.Unlock()
			jt.mu.Lock()
			jt.runStarts = append(jt.runStarts, arrive)
			jt.runEnds = append(jt.runEnds, end)
			jt.mu.Unlock()
		} else {
			f.cancels.Add(1)
		}
		f.bytes.Add(int64(len(body)) + cw.n)
		tr.end(id, jt.backendID.Load(), jt.job, name, start)
	})
}

func (f *fleetBench) run(d time.Duration, tr *tracer) (*phase, error) {
	f.s.trace.Store(tr)
	next := shuffledBlocks(rand.New(rand.NewPCG(f.seed, 0xf1ee7)), fleetMix)
	ph := newPhase()
	var outs []outcome
	var runID, runStart int64
	if tr != nil {
		runID, runStart = tr.newID(), tr.now()
	}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		j, err := newServed(next(), jobSeed(f.seed, i))
		if err != nil {
			return nil, err
		}
		var reqID int64
		if tr != nil {
			reqID = tr.newID()
			f.cur.Store(j.seed)
		}
		sent := time.Now()
		o, err := f.s.postTraced(&j, int64(i+1), runID, reqID, sent)
		if err != nil {
			return nil, err
		}
		o.lat = o.received.Sub(sent)
		outs = append(outs, o)
		ph.jobs = append(ph.jobs, o.rec(o.lat))
	}
	ph.wall = time.Since(start)
	st := f.s.sched.Stats()
	serviceLayers(ph, outs, fleetWorkers, st)
	calibrateLayers(ph, outs, st, f.store, fleetAutosize.name, fleetCostasK1.name, calibrate.Key{Problem: "costas", Size: 13})
	if tr == nil {
		return ph, nil
	}
	tr.end(runID, 0, 0, "bench.run", runStart)
	f.mu.Lock()
	busy := f.busy
	f.mu.Unlock()
	f.distLayers(ph, outs, busy)
	f.s.cores.mu.Lock()
	ph.core = f.s.cores.core
	f.s.cores.mu.Unlock()
	return ph, nil
}

// distLayers fills the dist.* per-layer metrics from the worker
// middleware's records and the job snapshots.
func (f *fleetBench) distLayers(ph *phase, outs []outcome, busy []float64) {
	var dispatch, tail, merge []float64
	for i := range outs {
		o := &outs[i]
		v, ok := f.s.jobs.Load(o.j.seed)
		if !ok || o.snap.StartedAt.IsZero() {
			continue
		}
		jt := v.(*jobTrace)
		jt.mu.Lock()
		if len(jt.runStarts) > 0 {
			first, lastEnd, firstEnd := jt.runStarts[0], jt.runEnds[0], jt.runEnds[0]
			for k := range jt.runStarts {
				if jt.runStarts[k].Before(first) {
					first = jt.runStarts[k]
				}
				if jt.runEnds[k].After(lastEnd) {
					lastEnd = jt.runEnds[k]
				}
				if jt.runEnds[k].Before(firstEnd) {
					firstEnd = jt.runEnds[k]
				}
			}
			dispatch = append(dispatch, ms(first.Sub(o.snap.StartedAt)))
			tail = append(tail, ms(lastEnd.Sub(firstEnd)))
			merge = append(merge, ms(o.snap.FinishedAt.Sub(lastEnd)))
		}
		jt.mu.Unlock()
	}
	l := ph.layer
	l["dist.shard_runs"] = float64(f.runs.Load())
	l["dist.cancels"] = float64(f.cancels.Load())
	l["dist.shard_busy_p50_ms"] = quantile(busy, 0.5)
	l["dist.dispatch_p50_ms"] = quantile(dispatch, 0.5)
	l["dist.loser_tail_p50_ms"] = quantile(tail, 0.5)
	l["dist.merge_p50_ms"] = quantile(merge, 0.5)
	l["dist.bytes_per_job"] = float64(f.bytes.Load()) / float64(max(len(outs), 1))
	m := f.coord.BackendMetrics()
	l["dist.failovers"] = float64(m["dispatch_failovers"])
	l["dist.shards_lost"] = float64(m["shards_lost"])
	l["dist.speculations_launched"] = float64(m["speculations_launched"])
}
