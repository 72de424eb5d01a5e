package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/service"
)

// serviceRate is service-open's fixed arrival rate in jobs per second,
// about 20% of the 3,100 to 3,500 jobs/s a closed loop of two clients
// sustains on the mix on the 2-core reference machine. The shared host
// at times runs at half speed; at 40% of capacity the loop then
// saturates and its backlog does not drain within a run.
const serviceRate = 650

// mixRepeats and autosizeRepeats set one block of service-open's job
// list: every scenario of serviceMix mixRepeats times and the autosize
// costas-10 request autosizeRepeats times, so one job in five is an
// {"autosize": {}} request.
const (
	mixRepeats      = 4
	autosizeRepeats = 7
)

// jobTimeoutMS is every served job's solver deadline.
const jobTimeoutMS = 10_000

// calibrationRuns is the number of sequential costas solves that seed
// the calibration store behind autosize requests.
const calibrationRuns = 60

// warmJobs is the number of jobs sent, one at a time, before a phase.
const warmJobs = 40

// resultTTL is how long the scheduler keeps a finished job. The
// benchmark reads every result from its synchronous response and never
// by ID; with the 10-minute default the kept results would make peak
// RSS grow with the number of jobs a run happens to complete.
const resultTTL = 2 * time.Second

// scenario is one entry of a served job mix.
type scenario struct {
	name string
	req  service.Request
}

var autosizeScenario = scenario{"autosize-costas-10", service.Request{
	Problem: "costas", Size: 10, AutoSize: &service.AutoSizeSpec{}, TimeoutMS: jobTimeoutMS,
}}

// fixedK1Scenario is the fixed-walker twin of the autosize requests;
// calibrate.autosize_extra_p50_ms compares the two.
const fixedK1Scenario = "costas-10"

// serviceMix is service-open's job mix: small jobs of about 1 ms of
// search or less each, the shape of the loadgen example's traffic. The
// magic square is 4 wide: a 5-wide solve averages 5 ms, 25 times the
// rest of the mix, and k=2 jobs queued behind it made the tail latency
// track the host's steal time.
var serviceMix = []scenario{
	{"costas-10", service.Request{Problem: "costas", Size: 10, Walkers: 1, TimeoutMS: jobTimeoutMS}},
	{"costas-10x2", service.Request{Problem: "costas", Size: 10, Walkers: 2, TimeoutMS: jobTimeoutMS}},
	{"queens-32", service.Request{Problem: "queens", Size: 32, Walkers: 1, TimeoutMS: jobTimeoutMS}},
	{"all-interval-10x2", service.Request{Problem: "all-interval", Size: 10, Walkers: 2, TimeoutMS: jobTimeoutMS}},
	{"magic-square-4", service.Request{Problem: "magic-square", Size: 4, Walkers: 1, TimeoutMS: jobTimeoutMS}},
	{"timetable-20x2", service.Request{Problem: "timetable", Size: 20, Walkers: 2, TimeoutMS: jobTimeoutMS,
		Params: map[string]int{"slots": 6, "rooms": 4, "teachers": 4}}},
	{"portfolio-costas-9x2", service.Request{Problem: "costas", Size: 9, Walkers: 2, TimeoutMS: jobTimeoutMS,
		Portfolio: []service.PortfolioSpec{{Strategy: "adaptive", Weight: 1}, {Strategy: "metropolis", Weight: 1}}}},
}

// served is one generated job: its request, body and, for an open
// loop, its scheduled send time.
type served struct {
	sc   scenario
	seed uint64
	body []byte
	due  time.Duration // offset from the phase start
}

func newServed(sc scenario, seed uint64) (served, error) {
	req := sc.req
	req.Seed = seed
	body, err := json.Marshal(struct {
		service.Request
		Wait bool `json:"wait"`
	}{req, true})
	if err != nil {
		return served{}, err
	}
	return served{sc: sc, seed: seed, body: body}, nil
}

// outcome is one served job as the client saw it.
type outcome struct {
	j        *served
	status   int
	snap     service.Job
	sent     time.Time // actual send
	received time.Time // verified response
	lat      time.Duration
	ok       bool
}

// server is the scheduler behind service.NewHandler on loopback HTTP,
// shared by service-open and fleet-k2.
type server struct {
	sched  *service.Scheduler
	srv    *httptest.Server
	client *http.Client
	base   string

	// Traced runs only: the tracer of the measured phase (nil during
	// warm-up), and the map from job seed to the bench-side job, which
	// is how the backend finds the job a run belongs to.
	trace atomic.Pointer[tracer]
	jobs  sync.Map // seed -> *jobTrace
	cores *coreSink
}

// jobTrace links one job's spans across the layers it crosses.
type jobTrace struct {
	job       int64
	handlerID atomic.Int64
	backendID atomic.Int64

	mu        sync.Mutex
	runStarts []time.Time // arrivals of /v1/run at the workers
	runEnds   []time.Time // their responses
}

// coreSink collects walker results and problem build times reported by
// the traced backend.
type coreSink struct {
	mu    sync.Mutex
	core  coreCounts
	build []float64
}

// newServer starts the scheduler and its HTTP front end. traced puts
// the handler middleware in front; it records spans once s.trace is
// set.
func newServer(cfg service.Config, traced bool) *server {
	s := &server{cores: &coreSink{}}
	s.sched = service.New(cfg)
	var h http.Handler = service.NewHandler(s.sched)
	if traced {
		h = s.handlerMiddleware(h)
	}
	s.srv = httptest.NewServer(h)
	s.base = s.srv.URL
	n := runtime.GOMAXPROCS(0)
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
	return s
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.sched.Close()
}

// handlerMiddleware opens a service.handler span under the client's
// request span, found through the X-Bench-Seed and X-Bench-Span headers.
func (s *server) handlerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seed, _ := strconv.ParseUint(r.Header.Get("X-Bench-Seed"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		v, ok := s.jobs.Load(seed)
		tr := s.trace.Load()
		if !ok || tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		jt := v.(*jobTrace)
		id, start := tr.newID(), tr.now()
		jt.handlerID.Store(id)
		next.ServeHTTP(w, r)
		tr.end(id, parent, jt.job, "service.handler", start)
	})
}

// post sends one synchronous solve request and verifies the answer.
// reqID is the client's request span, 0 when the job is not traced. A
// wrong solution is an error; every other failure is a failed outcome.
func (s *server) post(j *served, job, reqID int64) (outcome, error) {
	o := outcome{j: j}
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/solve", bytes.NewReader(j.body))
	if err != nil {
		return o, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != 0 {
		s.jobs.Store(j.seed, &jobTrace{job: job})
		req.Header.Set("X-Bench-Seed", strconv.FormatUint(j.seed, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(reqID, 10))
	}
	o.sent = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return o, fmt.Errorf("POST /v1/solve: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return o, fmt.Errorf("POST /v1/solve: reading response: %w", err)
	}
	o.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &o.snap); err != nil {
			return o, fmt.Errorf("POST /v1/solve: decoding job: %w", err)
		}
		r := o.snap.Result
		o.ok = o.snap.State == service.StateSolved && r != nil && r.Solved && !r.Truncated
		if o.ok {
			v0 := time.Now()
			if err := verifySolution(j.sc.req.Problem, j.sc.req.Size, j.sc.req.Params, r.Solution); err != nil {
				return o, fmt.Errorf("job %d (%s, seed %d): %w", job, j.sc.name, j.seed, err)
			}
			r.Solution = nil // checked; the run keeps every outcome
			if tr := s.trace.Load(); reqID != 0 {
				tr.add(span{ID: tr.newID(), Parent: reqID, Job: job, Name: "bench.verify", Start: tr.at(v0), Dur: int64(time.Since(v0))})
			}
		}
	}
	o.received = time.Now()
	return o, nil
}

// rec turns an outcome into the phase's job record; lat is the
// latency the workload defines.
func (o *outcome) rec(lat time.Duration) jobRec {
	r := jobRec{key: fmt.Sprintf("%s/%d", o.j.sc.name, o.j.seed), lat: lat, ok: o.ok}
	if res := o.snap.Result; res != nil {
		r.iters = res.TotalIterations
	}
	// Single-walker jobs of a fixed walker count take an iteration
	// count the seed alone decides.
	r.pinned = o.ok && o.j.sc.req.Walkers == 1 && len(o.j.sc.req.Portfolio) == 0
	return r
}

// serviceLayers fills the service, multiwalk and calibrate per-layer
// metrics that job snapshots give.
func serviceLayers(ph *phase, outs []outcome, slots int, stats service.Stats) {
	var queue, run, overhead []float64
	var walkerRun float64
	var winner, total, truncated int64
	var rejected int
	for i := range outs {
		o := &outs[i]
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		sn := &o.snap
		if sn.Result == nil || sn.StartedAt.IsZero() {
			continue
		}
		queue = append(queue, ms(sn.StartedAt.Sub(sn.SubmittedAt)))
		r := sn.FinishedAt.Sub(sn.StartedAt)
		run = append(run, ms(r))
		overhead = append(overhead, ms(o.received.Sub(o.sent)-sn.FinishedAt.Sub(sn.SubmittedAt)))
		walkerRun += float64(sn.Request.Walkers) * r.Seconds()
		if sn.Request.Walkers >= 2 {
			winner += sn.Result.WinnerIterations
			total += sn.Result.TotalIterations
		}
		if sn.Result.Truncated {
			truncated++
		}
	}
	l := ph.layer
	l["service.queue_wait_p50_ms"] = quantile(queue, 0.5)
	l["service.queue_wait_p95_ms"] = quantile(queue, 0.95)
	l["service.run_p50_ms"] = quantile(run, 0.5)
	l["service.http_overhead_p50_ms"] = quantile(overhead, 0.5)
	l["service.slots_busy_frac"] = walkerRun / (float64(slots) * ph.wall.Seconds())
	l["service.rejected"] = float64(rejected)
	l["service.jobs_failed"] = float64(stats.JobsFailed)
	if total > 0 {
		l["multiwalk.useful_iter_frac"] = float64(winner) / float64(total)
	}
	l["multiwalk.truncated"] = float64(truncated)
}

// tracedBackend wraps a backend for the traced phase: it opens a
// service.backend span per job, instruments every problem instance the
// in-process local pool builds, and collects each walker's engine
// result. It runs the same multiwalk.Run call as the scheduler's
// default local backend.
type tracedBackend struct {
	s     *server
	slots int
	inner service.Backend // nil runs the local pool
}

func (b *tracedBackend) Name() string {
	if b.inner != nil {
		return b.inner.Name()
	}
	return "local"
}

func (b *tracedBackend) Slots() int {
	if b.inner != nil {
		return b.inner.Slots()
	}
	return b.slots
}

func (b *tracedBackend) Close() {
	if b.inner != nil {
		b.inner.Close()
	}
}

func (b *tracedBackend) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	tr := b.s.trace.Load()
	if tr == nil {
		// Warm-up, before the measured phase.
		if b.inner != nil {
			return b.inner.RunJob(ctx, problem, size, params, factory, opts)
		}
		return multiwalk.Run(ctx, factory, opts)
	}
	jt := &jobTrace{}
	if v, ok := b.s.jobs.Load(opts.Seed); ok {
		jt = v.(*jobTrace)
	}
	id, start := tr.newID(), tr.now()
	jt.backendID.Store(id)

	type walker struct {
		pr    *probe
		start time.Time
		build time.Duration
	}
	var mu sync.Mutex
	var walkers []*walker
	var res multiwalk.Result
	var err error
	if b.inner != nil {
		res, err = b.inner.RunJob(ctx, problem, size, params, factory, opts)
	} else {
		traced := func() (core.Problem, error) {
			w := &walker{pr: &probe{}, start: time.Now()}
			p, err := factory()
			w.build = time.Since(w.start)
			w.pr.last = time.Now()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			walkers = append(walkers, w)
			mu.Unlock()
			return instrument(p, w.pr), nil
		}
		res, err = multiwalk.Run(ctx, traced, opts)
	}
	tr.end(id, jt.handlerID.Load(), jt.job, "service.backend", start)

	sink := b.s.cores
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i := range res.Walkers {
		sink.core.add(problem, &res.Walkers[i].Result)
	}
	for _, w := range walkers {
		wid, ws := tr.newID(), tr.at(w.start)
		tr.add(span{ID: wid, Parent: id, Job: jt.job, Name: "multiwalk.walker", Start: ws, Dur: int64(w.pr.last.Sub(w.start))})
		tr.add(span{ID: tr.newID(), Parent: wid, Job: jt.job, Name: "problems.build", Start: ws, Dur: int64(w.build)})
		w.pr.emit(tr, wid, jt.job, ws)
		sink.build = append(sink.build, ms(w.build)+float64(w.pr.ns[opReduce])/1e6)
	}
	return res, err
}

// serviceBench is the service-open workload.
type serviceBench struct {
	s     *server
	seed  uint64
	store *calibrate.Store
}

// seededStore returns a calibration store seeded with calibrationRuns
// sequential solves of costas of the given size, for autosize requests.
func seededStore(size int) (*calibrate.Store, error) {
	store := calibrate.NewStore()
	if _, err := bench.SeedCalibration(context.Background(), store,
		bench.Workload{Benchmark: "costas", Size: size, Runs: calibrationRuns}, setupSeed); err != nil {
		return nil, fmt.Errorf("seeding calibration: %w", err)
	}
	return store, nil
}

func setupService(seed uint64, traced bool) (env, error) {
	store, err := seededStore(10)
	if err != nil {
		return nil, err
	}
	slots := runtime.GOMAXPROCS(0)
	cfg := service.Config{Slots: slots, Calibration: store, ResultTTL: resultTTL}
	var tb *tracedBackend
	if traced {
		tb = &tracedBackend{slots: slots}
		cfg.Backend = tb
	}
	s := newServer(cfg, traced)
	if tb != nil {
		tb.s = s
	}
	if err := warmUp(s, serviceMix); err != nil {
		s.close()
		return nil, err
	}
	return &serviceBench{s: s, seed: seed, store: store}, nil
}

// warmUp sends warmJobs jobs of mix one at a time.
func warmUp(s *server, mix []scenario) error {
	for i := 0; i < warmJobs; i++ {
		j, err := newServed(mix[i%len(mix)], jobSeed(setupSeed, i))
		if err != nil {
			return err
		}
		o, err := s.post(&j, 0, 0)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if !o.ok {
			return fmt.Errorf("warm-up job %s failed with status %d", j.sc.name, o.status)
		}
	}
	return nil
}

func (b *serviceBench) close() { b.s.close() }

// schedule generates the open loop's jobs for d: Poisson arrivals at
// serviceRate, the scenarios in shuffled blocks, all from the seed.
func (b *serviceBench) schedule(d time.Duration) ([]served, error) {
	r := rand.New(rand.NewPCG(b.seed, 0x5e41ce))
	var block []scenario
	for i := 0; i < mixRepeats; i++ {
		block = append(block, serviceMix...)
	}
	for i := 0; i < autosizeRepeats; i++ {
		block = append(block, autosizeScenario)
	}
	next := shuffledBlocks(r, block)
	var out []served
	var t time.Duration
	for i := 0; ; i++ {
		t += time.Duration(r.ExpFloat64() / serviceRate * float64(time.Second))
		if t >= d {
			return out, nil
		}
		j, err := newServed(next(), jobSeed(b.seed, i))
		if err != nil {
			return nil, err
		}
		j.due = t
		out = append(out, j)
	}
}

func (b *serviceBench) run(d time.Duration, tr *tracer) (*phase, error) {
	// The schedule, every request body included, exists before the
	// clock starts; the program sees only these requests.
	jobs, err := b.schedule(d)
	if err != nil {
		return nil, err
	}
	b.s.trace.Store(tr)
	outs := make([]outcome, len(jobs))
	lags := make([]float64, len(jobs))
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup

	var runID, runStart int64
	start := time.Now().Add(2 * time.Millisecond)
	if tr != nil {
		runID, runStart = tr.newID(), tr.at(start)
	}
	// At most GOMAXPROCS requests are in flight, one per connection: a
	// sender that is still waiting on its last response sends late, and
	// the lateness counts in that job's latency.
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				due := start.Add(j.due)
				sleepUntil(due)
				lags[i] = ms(time.Since(due))
				var reqID int64
				if tr != nil {
					reqID = tr.newID()
				}
				o, err := b.s.postTraced(j, int64(i+1), runID, reqID, due)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				o.lat = o.received.Sub(due)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	ph := newPhase()
	end := start
	for i := range outs {
		if outs[i].received.After(end) {
			end = outs[i].received
		}
		ph.jobs = append(ph.jobs, outs[i].rec(outs[i].lat))
	}
	ph.wall = end.Sub(start)
	if tr != nil {
		tr.add(span{ID: runID, Name: "bench.run", Start: runStart, Dur: int64(ph.wall)})
	}
	ph.layer["bench.gen_lag_p95_ms"] = quantile(lags, 0.95)
	st := b.s.sched.Stats()
	serviceLayers(ph, outs, runtime.GOMAXPROCS(0), st)
	calibrateLayers(ph, outs, st, b.store, autosizeScenario.name, fixedK1Scenario, calibrate.Key{Problem: "costas", Size: 10})
	b.s.cores.mu.Lock()
	ph.core, ph.build = b.s.cores.core, b.s.cores.build
	b.s.cores.mu.Unlock()
	return ph, nil
}

// sleepUntil blocks until t on the kernel's high-resolution timer. An
// idle Go process waits for its own timers in epoll_wait, whose timeout
// has millisecond resolution: a send due in 0.3 ms would go out up to a
// millisecond late, and that lateness, which depends on whether the
// process happens to be busy, would count in the job's latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// shuffledBlocks returns a generator that deals out block over and
// over, each pass in a fresh order drawn from r. Every stretch of the
// job list then holds each scenario in its share, so a run's mix does
// not depend on how its draws fell.
func shuffledBlocks(r *rand.Rand, block []scenario) func() scenario {
	cur := append([]scenario(nil), block...)
	k := len(cur)
	return func() scenario {
		if k == len(cur) {
			r.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
			k = 0
		}
		k++
		return cur[k-1]
	}
}

// postTraced is post with the client's request span around it; the
// span starts at the job's due time, where its latency starts.
func (s *server) postTraced(j *served, job, runID, reqID int64, due time.Time) (outcome, error) {
	o, err := s.post(j, job, reqID)
	if tr := s.trace.Load(); err == nil && reqID != 0 {
		tr.add(span{ID: reqID, Parent: runID, Job: job, Name: "bench.request", Start: tr.at(due), Dur: int64(o.received.Sub(due))})
	}
	return o, err
}

// calibrateLayers fills the calibrate.* per-layer metrics: autosize
// names the autosize scenario, fixed its fixed-walker twin, and key the
// calibration the autosize requests resolve against in store.
func calibrateLayers(ph *phase, outs []outcome, st service.Stats, store *calibrate.Store, autosize, fixed string, key calibrate.Key) {
	var auto, twin []float64
	var k1, k2 int
	for i := range outs {
		o := &outs[i]
		if !o.ok {
			continue
		}
		switch o.j.sc.name {
		case autosize:
			auto = append(auto, ms(o.lat))
			switch o.snap.Request.Walkers {
			case 1:
				k1++
			case 2:
				k2++
			}
		case fixed:
			twin = append(twin, ms(o.lat))
		}
	}
	l := ph.layer
	l["calibrate.autosize_admitted"] = float64(st.AutoSized)
	l["calibrate.autosize_rejected"] = float64(st.AutoRejected)
	l["calibrate.autosize_k1"] = float64(k1)
	l["calibrate.autosize_k2"] = float64(k2)
	l["calibrate.autosize_extra_p50_ms"] = quantile(auto, 0.5) - quantile(twin, 0.5)
	t0 := time.Now()
	res, err := store.Resolve(key)
	l["calibrate.resolve_ms_end"] = ms(time.Since(t0))
	if err == nil {
		l["calibrate.seq_draws_end"] = float64(res.Samples)
	}
}
