package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// CoordinatorConfig configures a coordinator over a worker fleet.
type CoordinatorConfig struct {
	// Workers lists worker base URLs (e.g. "http://10.0.0.7:9101")
	// enrolled statically at construction time; each is probed for its
	// slot capacity. With Dynamic set the list may be empty — workers
	// join at runtime through the fleet registration endpoints.
	Workers []string
	// Dynamic allows an empty initial fleet and enables runtime
	// membership: workers register, heartbeat and drain through
	// FleetHandler. Static workers and dynamic joiners share one
	// registry, so mixing both is fine.
	Dynamic bool
	// Client is the HTTP client used for all worker traffic. nil
	// selects a dedicated client with no global timeout (run requests
	// are long-polls bounded by their context).
	Client *http.Client
	// ProbeTimeout bounds every health probe — enrollment, runtime
	// registration and the monitor's liveness sweeps. Each probe gets
	// its own independent context with this timeout, so one hung worker
	// can never eat a job deadline or stall the sweep. 0 selects 5s.
	ProbeTimeout time.Duration
	// HeartbeatInterval is the monitor's sweep period: workers not
	// heard from (push heartbeat or probe) within one interval are
	// re-probed; a failed probe makes them suspect, a second makes them
	// dead. 0 selects 2s; negative disables the monitor (tests).
	HeartbeatInterval time.Duration
	// RecoverAttempts bounds the lost-shard recovery rounds per job: a
	// shard whose worker is lost mid-run is re-planned onto healthy
	// workers and re-run — bit-for-bit identically, walker identity
	// being global — up to this many times before the job is truncated.
	// 0 selects 2; negative disables recovery (lost shards truncate
	// immediately, the pre-elastic behavior).
	RecoverAttempts int
	// BoardAddr is the listen address of the coordinator's global
	// exchange-board server, which workers sync against during
	// dependent (Exchange) jobs. Empty selects 127.0.0.1:0 — correct
	// for single-host fleets and tests. The server starts lazily on the
	// first exchange-enabled job, so independent-only fleets never open
	// the port.
	BoardAddr string
	// BoardAdvertise is the base URL workers use to reach the board
	// server (e.g. "http://10.0.0.1:9190"). Empty derives it from the
	// listener address; set it explicitly when workers are on other
	// hosts or behind NAT.
	BoardAdvertise string
	// BoardSync is the period at which worker-side board caches
	// reconcile with the global board. 0 lets each worker apply its
	// default (50ms).
	BoardSync time.Duration
	// Stream enables the board stream: exchange jobs sync through a
	// persistent multiplexed binary connection to the hub in place of
	// the periodic POST loop; a worker without stream support keeps
	// the HTTP board path. cmd/serve's -stream sets it together with
	// the service's client progress stream. Shard dispatch, fleet
	// membership and shard progress are HTTP/JSON either way.
	Stream bool
	// StreamAddr is the listen address of the board stream hub. Empty
	// selects 127.0.0.1:0; set it (with a routable host) when workers
	// are on other machines. Only used when Stream is set.
	StreamAddr string
	// Speculate enables straggler speculation for wall-clock (Run mode)
	// jobs: workers report per-shard progress, a detector compares each
	// running shard against the job's median, and a shard lagging past
	// SpeculateThreshold is re-dispatched on a free healthy worker —
	// whichever copy finishes first wins, the loser is cancelled, and
	// its late result is dropped before shard merging. Global walker
	// identity makes the two copies bit-for-bit identical, so
	// speculation trades slots for tail latency with zero correctness
	// risk.
	Speculate bool
	// SpeculateThreshold is how far behind the job's median per-walker
	// iteration count a shard must lag before a backup launches: a
	// shard speculates when its progress × threshold < median. Must be
	// > 1; 0 selects 2 (lagging more than 2× behind).
	SpeculateThreshold float64
	// SpeculateAfter is the minimum job age before the detector acts —
	// short jobs finish before any backup could help, so they never
	// speculate. 0 selects 2s.
	SpeculateAfter time.Duration
	// SpeculateInterval is the detector's evaluation period. 0 selects
	// 500ms.
	SpeculateInterval time.Duration
	// ProgressInterval is the per-shard progress report cadence stamped
	// into speculation-enabled run requests. 0 lets each worker apply
	// its default (250ms).
	ProgressInterval time.Duration
}

// JobSpec describes one distributed multi-walk job. It is the
// transportable subset of (factory, multiwalk.Options): problems are
// named, not passed as closures, and engine options must not carry
// process-local hooks (Monitor) or the in-process Exchange scheme.
type JobSpec struct {
	// Problem and Size name the benchmark instance in the shared
	// registry.
	Problem string
	Size    int
	// Params carries benchmark-specific problem parameters, shipped
	// verbatim to every shard (finite-domain benchmarks' knobs).
	Params map[string]int
	// Walkers is the whole job's walker count k.
	Walkers int
	// Seed is the master seed; walker w of the job draws seed w of the
	// master stream no matter which worker runs it.
	Seed uint64
	// Engine holds the per-walker engine options (Portfolio overrides
	// it, exactly as in multiwalk.Options).
	Engine core.Options
	// Portfolio, when non-empty, runs a heterogeneous portfolio with
	// entries assigned by global walker index.
	Portfolio []multiwalk.PortfolioEntry
	// Exchange, when Enabled, runs the job in the dependent
	// (communicating) multi-walk scheme: the coordinator hosts a global
	// elite board and every worker shard cooperates through it, so
	// adoptions cross process boundaries. Run mode only; dependent runs
	// are timing-dependent by nature (see DESIGN.md §10), unlike the
	// bit-for-bit deterministic independent modes.
	Exchange multiwalk.ExchangeOptions
}

// Coordinator shards multi-walk jobs over a fleet of workers. It
// implements the same contract as multiwalk.Run / RunVirtual — walker
// identity, portfolio assignment and the min-iterations virtual winner
// are bit-for-bit those of the single-process run — and satisfies
// service.Backend, so a Scheduler can serve its traffic from the fleet
// (cmd/serve -workers / -fleet).
//
// Fleet membership is dynamic: workers join statically (config) or at
// runtime (FleetHandler registration), push heartbeats, and leave by
// draining. A background monitor probes workers it has not heard from,
// and a shard lost to a worker failure is re-planned onto surviving
// healthy workers and re-run — global walker identity makes the re-run
// bit-for-bit identical — before the job is ever truncated.
type Coordinator struct {
	client *http.Client
	reg    *registry

	probeTimeout    time.Duration
	hbInterval      time.Duration
	recoverAttempts int

	seq atomic.Uint64

	boards    *boardHub
	boardSync time.Duration
	stream    bool

	speculate     bool
	specThreshold float64
	specAfter     time.Duration
	specInterval  time.Duration
	progInterval  time.Duration

	// prog is the straggler detector's input: one entry per tracked
	// in-flight shard run, fed by worker progress reports (HTTP POST)
	// and finalized from the shard's own outcome when it resolves.
	progMu sync.Mutex
	prog   map[string]*shardProg

	monitorStop    chan struct{}
	monitorDone    chan struct{}
	monitorOnce    sync.Once
	mLostShards    atomic.Int64
	mRecShards     atomic.Int64
	mRecWalkers    atomic.Int64
	mRecRounds     atomic.Int64
	mFailovers     atomic.Int64
	mTruncations   atomic.Int64
	mProbeFails    atomic.Int64
	mProbesDone    atomic.Int64
	mSpecLaunched  atomic.Int64
	mSpecWon       atomic.Int64
	mSpecLost      atomic.Int64
	mSpecCancelled atomic.Int64
}

// newFleetClient is the coordinator's default HTTP client: one shared
// transport with keep-alives and an idle pool sized to the fleet, so
// shard dispatch, cancel RPCs and health probes reuse connections
// instead of opening a fresh one per call (the default zero-value
// Client churned through ephemeral ports under load).
func newFleetClient(workers int) *http.Client {
	if workers < 1 {
		workers = 1
	}
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        8 * workers,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// NewCoordinator enrolls the configured workers, probing each for its
// slot capacity, and fails if any static worker is unreachable — a
// fleet that starts degraded is a misconfiguration, while one that
// degrades later is handled at run time (lost shards are recovered on
// surviving workers, truncating only when capacity or the retry budget
// runs out).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 && !cfg.Dynamic {
		return nil, errors.New("dist: coordinator needs at least one worker URL")
	}
	client := cfg.Client
	if client == nil {
		client = newFleetClient(len(cfg.Workers))
	}
	probeTimeout := cfg.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 5 * time.Second
	}
	hbInterval := cfg.HeartbeatInterval
	if hbInterval == 0 {
		hbInterval = 2 * time.Second
	}
	recoverAttempts := cfg.RecoverAttempts
	if recoverAttempts == 0 {
		recoverAttempts = 2
	}
	if cfg.BoardSync < 0 {
		return nil, errors.New("dist: CoordinatorConfig.BoardSync must be >= 0")
	}
	specThreshold := cfg.SpeculateThreshold
	if specThreshold == 0 {
		specThreshold = 2
	}
	if specThreshold <= 1 {
		return nil, errors.New("dist: CoordinatorConfig.SpeculateThreshold must be > 1 (a shard speculates when progress x threshold < median)")
	}
	specAfter := cfg.SpeculateAfter
	if specAfter <= 0 {
		specAfter = 2 * time.Second
	}
	specInterval := cfg.SpeculateInterval
	if specInterval <= 0 {
		specInterval = 500 * time.Millisecond
	}
	c := &Coordinator{
		client:          client,
		reg:             newRegistry(),
		probeTimeout:    probeTimeout,
		hbInterval:      hbInterval,
		recoverAttempts: recoverAttempts,
		boards:          newBoardHub(cfg.BoardAddr, cfg.BoardAdvertise, cfg.StreamAddr),
		boardSync:       cfg.BoardSync,
		stream:          cfg.Stream,
		speculate:       cfg.Speculate,
		specThreshold:   specThreshold,
		specAfter:       specAfter,
		specInterval:    specInterval,
		progInterval:    cfg.ProgressInterval,
		prog:            make(map[string]*shardProg),
		monitorStop:     make(chan struct{}),
		monitorDone:     make(chan struct{}),
	}
	c.boards.onShardProgress = c.recordShardProgress
	now := time.Now()
	for _, base := range cfg.Workers {
		slots, err := c.probe(base, probeTimeout)
		if err != nil {
			return nil, fmt.Errorf("dist: enrolling worker %s: %w", base, err)
		}
		c.reg.upsert(base, slots, now)
	}
	if hbInterval > 0 {
		go c.monitor()
	} else {
		close(c.monitorDone)
	}
	return c, nil
}

// probe reads a worker's slot capacity from its health endpoint.
// Every probe runs on its own short timeout context, independent of
// any job deadline — a hung worker costs one bounded probe, never the
// job.
func (c *Coordinator) probe(base string, timeout time.Duration) (int, error) {
	c.mProbesDone.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		Slots int `json:"slots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, fmt.Errorf("decoding healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	if health.Slots < 1 {
		return 0, fmt.Errorf("worker reports %d slots", health.Slots)
	}
	return health.Slots, nil
}

// monitor is the fleet liveness loop: each tick it probes every worker
// it has not heard from within one heartbeat interval. Probes run
// concurrently, each on its own ProbeTimeout context, so one hung
// worker delays nothing but its own verdict.
func (c *Coordinator) monitor() {
	defer close(c.monitorDone)
	ticker := time.NewTicker(c.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.monitorStop:
			return
		case <-ticker.C:
			c.sweep()
		}
	}
}

// sweep probes stale workers concurrently and records the verdicts.
func (c *Coordinator) sweep() {
	now := time.Now()
	stale := c.reg.stale(c.hbInterval, now)
	if len(stale) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, w := range stale {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			slots, err := c.probe(w.base, c.probeTimeout)
			if err != nil {
				c.mProbeFails.Add(1)
				c.reg.reportFailure(w)
				return
			}
			c.reg.probeOK(w, slots, time.Now())
		}(w)
	}
	wg.Wait()
}

// BoardTraffic reports the cumulative exchange-board bytes moved each
// way (HTTP sync bodies plus stream frames) — the board-sync bytes
// metric the telemetry sampler records.
func (c *Coordinator) BoardTraffic() (rx, tx int64) {
	return c.boards.traffic()
}

// BoardHTTPSyncs reports how many per-tick board POSTs the hub has
// served. With streaming negotiated fleet-wide it stays zero — the
// invariant the streaming exchange test asserts.
func (c *Coordinator) BoardHTTPSyncs() int64 {
	return c.boards.mHTTPSyncs.Load()
}

// Name identifies the backend in service logs and metrics.
func (c *Coordinator) Name() string {
	return fmt.Sprintf("dist(%d workers)", c.reg.size())
}

// Slots returns the fleet's dispatchable walker-slot capacity: healthy
// and suspect workers count, dead and draining do not. It moves as the
// fleet does; the serving layer tracks it through NotifyCapacity.
func (c *Coordinator) Slots() int {
	return c.reg.capacity()
}

// Workers returns a snapshot of the registered fleet.
func (c *Coordinator) Workers() []WorkerInfo {
	return c.reg.snapshot()
}

// NotifyCapacity installs a callback invoked (without locks held)
// whenever fleet membership or capacity changes — the serving layer's
// cue to resize its admission pool. One callback; later calls replace
// earlier ones.
func (c *Coordinator) NotifyCapacity(f func()) {
	c.reg.setOnChange(f)
}

// BackendMetrics exposes the fleet and recovery counters to the
// serving layer's Stats (structurally, like service.Backend itself).
func (c *Coordinator) BackendMetrics() map[string]int64 {
	healthy, suspect, dead, draining := c.reg.counts()
	tracked, maxAge := c.progressGauges(time.Now())
	return map[string]int64{
		"fleet_workers":          int64(c.reg.size()),
		"fleet_healthy":          int64(healthy),
		"fleet_suspect":          int64(suspect),
		"fleet_dead":             int64(dead),
		"fleet_draining":         int64(draining),
		"fleet_slots":            int64(c.reg.capacity()),
		"fleet_joins":            c.reg.mJoins.Load(),
		"fleet_leaves":           c.reg.mLeaves.Load(),
		"fleet_probe_failures":   c.mProbeFails.Load(),
		"fleet_probes":           c.mProbesDone.Load(),
		"shards_lost":            c.mLostShards.Load(),
		"shards_recovered":       c.mRecShards.Load(),
		"walkers_recovered":      c.mRecWalkers.Load(),
		"recovery_rounds":        c.mRecRounds.Load(),
		"dispatch_failovers":     c.mFailovers.Load(),
		"jobs_truncated_by_loss": c.mTruncations.Load(),
		"speculations_launched":  c.mSpecLaunched.Load(),
		"speculations_won":       c.mSpecWon.Load(),
		"speculations_lost":      c.mSpecLost.Load(),
		"speculations_cancelled": c.mSpecCancelled.Load(),
		"shards_tracked":         tracked,
		"shard_progress_age_ms":  maxAge,
	}
}

// Close releases the coordinator: the liveness monitor stops and the
// exchange-board server shuts down (its absence degrades in-flight
// dependent runs to independent walks — the scheme's designed failure
// mode). Runs in flight keep their slot reservations until they
// unwind.
func (c *Coordinator) Close() {
	c.monitorOnce.Do(func() { close(c.monitorStop) })
	<-c.monitorDone
	c.boards.close()
}

// Run executes the job in wall-clock mode: every shard's walkers run
// concurrently on their worker, and the first shard to report a
// solution triggers cancel RPCs to the rest ("no communication between
// the simultaneous computations except for completion").
func (c *Coordinator) Run(ctx context.Context, job JobSpec) (multiwalk.Result, error) {
	return c.run(ctx, ModeRun, job)
}

// RunVirtual executes the job in deterministic virtual mode: every
// walker runs to completion and the fewest-iterations walker wins.
// The merged result is bit-for-bit identical to a single-process
// multiwalk.RunVirtual with the same (problem, options, seed) — the
// property the experiment harness and the golden-trace suite pin.
func (c *Coordinator) RunVirtual(ctx context.Context, job JobSpec) (multiwalk.Result, error) {
	return c.run(ctx, ModeVirtual, job)
}

// RunJob adapts the coordinator to the service.Backend contract. The
// factory is ignored — workers build their own problem instances from
// the registry — and the options' Progress hook, which cannot stream
// across processes, is replayed from the final per-walker statistics
// so the scheduler's throughput counters stay truthful. Walkers that
// never ran (Iterations 0, Cost core.CostUnknown) are skipped — the
// sentinel is never replayed as a real cost.
func (c *Coordinator) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	_ = factory
	res, err := c.Run(ctx, JobSpec{
		Problem:   problem,
		Size:      size,
		Params:    params,
		Walkers:   opts.Walkers,
		Seed:      opts.Seed,
		Engine:    opts.Engine,
		Portfolio: opts.Portfolio,
		Exchange:  opts.Exchange,
	})
	if err == nil && opts.Progress != nil {
		for _, ws := range res.Walkers {
			if ws.Result.Iterations > 0 && ws.Result.Cost != core.CostUnknown {
				opts.Progress(ws.Walker, ws.Result.Iterations, ws.Result.Cost)
			}
		}
	}
	return res, err
}

// assignment is one shard placed on one worker.
type assignment struct {
	worker   *workerRef
	start    int
	count    int
	reserved int
	released bool // guarded by registry.mu
	runID    string
}

// shardOutcome is the terminal state of one shard request.
type shardOutcome struct {
	res  multiwalk.Result
	lost bool  // transport-level loss: no stats came back
	err  error // application-level rejection (bad options)
}

// lostRange is a run of global walker indices whose shard was lost.
type lostRange struct {
	start, count int
}

func (c *Coordinator) run(ctx context.Context, mode string, job JobSpec) (multiwalk.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if job.Walkers < 1 {
		return multiwalk.Result{}, fmt.Errorf("dist: Walkers must be >= 1, got %d", job.Walkers)
	}
	if job.Engine.Monitor != nil {
		return multiwalk.Result{}, errors.New("dist: engine Monitor hooks cannot cross process boundaries")
	}
	for i := range job.Portfolio {
		if job.Portfolio[i].Engine.Monitor != nil {
			return multiwalk.Result{}, fmt.Errorf("dist: portfolio[%d] carries a Monitor hook, which cannot cross process boundaries", i)
		}
	}
	exchangeSpec := ExchangeSpecFor(job.Exchange)
	if job.Exchange.Enabled {
		if mode != ModeRun {
			return multiwalk.Result{}, errExchangeVirtual
		}
		// Stamp the fleet-wide sync cadence before validating, so a bad
		// CoordinatorConfig.BoardSync is caught here — before slots are
		// reserved — rather than by every worker's request validation.
		exchangeSpec.SyncMS = c.boardSync.Milliseconds()
		if err := exchangeSpec.validate("exchange"); err != nil {
			return multiwalk.Result{}, err
		}
	}

	plan, err := c.plan(mode, job.Walkers)
	if err != nil {
		return multiwalk.Result{}, err
	}
	// Safety net for early returns; the normal path releases each
	// shard's reservation the moment its outcome is in (releases are
	// idempotent), so recovery rounds see the freed capacity.
	defer c.releaseAll(plan)

	engineSpec := EngineSpecFor(job.Engine)
	portfolio := make([]PortfolioSpec, len(job.Portfolio))
	for i, e := range job.Portfolio {
		portfolio[i] = PortfolioSpec{Weight: e.Weight, Engine: EngineSpecFor(e.Engine)}
	}

	start := time.Now()
	jobID := c.seq.Add(1)
	for i := range plan {
		plan[i].runID = fmt.Sprintf("job%06d-s%d", jobID, i)
	}

	// Dependent jobs get a job-wide global board: every shard receives
	// the same sync URL, so elite configurations flow between workers.
	// The board lives exactly as long as the job — run() waits for all
	// shard responses (including recovery rounds) before releasing it,
	// so no shard ever syncs into a reassigned board.
	var boardURL, boardStream, boardJob string
	if job.Exchange.Enabled {
		// The probe instance lets the board server verify every publish
		// against the actual problem (see boardHub.handleSync); building
		// it here also validates the job's problem/size coordinator-side.
		probe, err := problems.NewWithParams(job.Problem, job.Size, job.Params)
		if err != nil {
			return multiwalk.Result{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		boardJob = fmt.Sprintf("job%06d", jobID)
		url, _, releaseBoard, err := c.boards.open(boardJob, probe)
		if err != nil {
			return multiwalk.Result{}, err
		}
		defer releaseBoard()
		boardURL = url
		if c.stream {
			// Streaming fleets also get the hub's persistent-frame
			// address; stream-capable workers replace their POST loops
			// with it, others ignore the field. The HTTP URL stays in
			// the request as the in-run fallback path.
			boardStream, err = c.boards.ensureStream()
			if err != nil {
				return multiwalk.Result{}, err
			}
		} else {
			boardJob = ""
		}
	}

	// Pre-cancelled caller: don't contact the fleet at all — report
	// the walkers as never-run, exactly like a pre-cancelled RunVirtual
	// sweep reports its unrun tail.
	if ctx.Err() != nil {
		shards := make([]multiwalk.Result, len(plan))
		for i := range plan {
			shards[i] = lostShardResult(plan[i].start, plan[i].count, job)
		}
		res, err := multiwalk.CombineShards(job.Walkers, shards...)
		if err != nil {
			return multiwalk.Result{}, err
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Shard requests are detached from the caller's context:
	// cancellation is delivered as cancel RPCs, so the workers answer
	// with their partial statistics instead of losing them to an
	// aborted connection. If a worker sits on its response past the
	// grace period (or the cancel RPC raced the run registration), the
	// hard cancel severs the connection — and the worker-side DeadlineMS
	// bound reaps the run itself.
	reqCtx, hardCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer hardCancel()
	// Recovery rounds add their own shards after dispatch starts, so
	// external cancellation targets a live list, not the initial plan.
	var plansMu sync.Mutex
	activePlans := [][]assignment{plan}
	addPlan := func(p []assignment) {
		plansMu.Lock()
		activePlans = append(activePlans, p)
		plansMu.Unlock()
	}
	stopNotify := context.AfterFunc(ctx, func() {
		plansMu.Lock()
		plans := make([][]assignment, len(activePlans))
		copy(plans, activePlans)
		plansMu.Unlock()
		for _, p := range plans {
			c.cancelShards(p, -1)
		}
		time.AfterFunc(cancelGrace, hardCancel)
	})
	defer stopNotify()

	params := shardParams{
		engine:      engineSpec,
		portfolio:   portfolio,
		exchange:    exchangeSpec,
		boardURL:    boardURL,
		boardStream: boardStream,
		boardJob:    boardJob,
		deadline:    deadlineMS(ctx),
	}

	// Straggler speculation needs the progress feed: stamp the report
	// endpoints into every shard request and track the shards. Virtual
	// mode is excluded (its shards are sequential sweeps whose runtimes
	// are the experiment itself), as are single-shard jobs (no median
	// to lag behind).
	speculating := c.speculate && mode == ModeRun && len(plan) >= 2
	if speculating {
		base, err := c.boards.ensureServer()
		if err != nil {
			return multiwalk.Result{}, err
		}
		params.progressBase = base
		params.progressMS = c.progInterval.Milliseconds()
		defer c.clearJobProgress(fmt.Sprintf("job%06d-", jobID))
	}

	var solvedOnce sync.Once
	var outcomes []shardOutcome
	if speculating {
		outcomes = c.dispatchSpeculative(reqCtx, job, plan, &solvedOnce, hardCancel, params, jobID, addPlan)
	} else {
		outcomes = c.dispatch(reqCtx, mode, job, plan, &solvedOnce, hardCancel, params)
	}

	shards := make([]multiwalk.Result, 0, len(plan))
	var lost []lostRange
	solved := false
	for i, out := range outcomes {
		if out.err != nil {
			return multiwalk.Result{}, fmt.Errorf("dist: worker %s: %w", plan[i].worker.base, out.err)
		}
		if out.lost {
			c.mLostShards.Add(1)
			lost = append(lost, lostRange{plan[i].start, plan[i].count})
			continue
		}
		if mode == ModeRun && out.res.Solved {
			solved = true
		}
		shards = append(shards, out.res)
	}

	// Recovery: re-run each lost shard's walkers on surviving healthy
	// workers. Global walker identity (Shard.Start/Total against the
	// whole job) makes the re-run bit-for-bit identical to the run the
	// lost worker would have produced, so the determinism contract
	// holds across failures. Recovery is skipped when the caller
	// cancelled (the "loss" is our own hard-cancel severing
	// connections) and when a wall-clock run already solved (losers are
	// stopped, not resurrected); it stops when the retry budget or the
	// fleet's healthy capacity runs out — only then does the job
	// truncate.
	for attempt := 1; len(lost) > 0 && attempt <= c.recoverAttempts && ctx.Err() == nil && !solved; attempt++ {
		rplan, uncovered, rerr := c.planRecovery(mode, lost)
		if rerr != nil {
			// Zero healthy free workers: there is nothing to dispatch
			// and nothing to learn from another round, so stop without
			// burning the remaining attempts (the attempt-accounting
			// regression test pins recovery_rounds here).
			break
		}
		if len(rplan) == 0 {
			break
		}
		c.mRecRounds.Add(1)
		for i := range rplan {
			rplan[i].runID = fmt.Sprintf("job%06d-r%d-s%d", jobID, attempt, i)
		}
		addPlan(rplan)
		// Recovery shards re-run a known range on a fresh worker; their
		// runtimes carry no straggler signal, so they skip the progress
		// feed — and they see the deadline budget that remains now, not
		// the one the job started with.
		rparams := params
		rparams.progressBase, rparams.progressMS = "", 0
		rparams.deadline = deadlineMS(ctx)
		routs := c.dispatch(reqCtx, mode, job, rplan, &solvedOnce, hardCancel, rparams)
		lost = uncovered
		for i, out := range routs {
			if out.err != nil {
				return multiwalk.Result{}, fmt.Errorf("dist: worker %s: %w", rplan[i].worker.base, out.err)
			}
			if out.lost {
				lost = append(lost, lostRange{rplan[i].start, rplan[i].count})
				continue
			}
			if mode == ModeRun && out.res.Solved {
				solved = true
			}
			c.mRecShards.Add(1)
			c.mRecWalkers.Add(int64(rplan[i].count))
			shards = append(shards, out.res)
		}
	}

	anyLost := len(lost) > 0
	for _, lr := range lost {
		shards = append(shards, lostShardResult(lr.start, lr.count, job))
	}
	res, err := multiwalk.CombineShards(job.Walkers, shards...)
	if err != nil {
		// A worker violated the protocol (wrong or duplicate walker
		// indices). Surface it as an error, never as a fabricated run.
		return multiwalk.Result{}, fmt.Errorf("dist: inconsistent shard stats: %w", err)
	}
	if anyLost {
		res.Truncated = true
		c.mTruncations.Add(1)
	}
	if mode == ModeRun && res.Solved {
		// Losers interrupted after the winner's cancel are the normal
		// completion mechanism, exactly as in multiwalk.Run: a solved
		// wall-clock run is never truncated (a lost loser leaves its
		// mark in Completed < Walkers instead). Virtual mode keeps
		// sticky truncation — a walker that never ran to completion
		// taints the deterministic winner even when another solved,
		// matching RunVirtual's mid-sweep cancellation semantics.
		res.Truncated = false
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// shardParams bundles the per-job request fields shared by every shard
// dispatch (initial plan and recovery rounds alike).
type shardParams struct {
	engine      EngineSpec
	portfolio   []PortfolioSpec
	exchange    ExchangeSpec
	boardURL    string
	boardStream string
	boardJob    string
	deadline    int64
	// Progress feed endpoint for straggler speculation; empty when the
	// job does not speculate. progressBase is the hub's HTTP base URL
	// (each shard's report route is derived from its run id).
	progressBase string
	progressMS   int64
}

// shardRequest builds one shard's run request from the job, the
// assignment and the shared per-job parameters — the single place
// primary, backup and recovery dispatches derive their wire requests
// from.
func shardRequest(mode string, job *JobSpec, a *assignment, p *shardParams) RunRequest {
	req := RunRequest{
		ID:           a.runID,
		Mode:         mode,
		Problem:      job.Problem,
		Size:         job.Size,
		Params:       job.Params,
		Seed:         job.Seed,
		TotalWalkers: job.Walkers,
		Start:        a.start,
		Count:        a.count,
		Engine:       p.engine,
		Portfolio:    p.portfolio,
		DeadlineMS:   p.deadline,
		Exchange:     p.exchange,
		Board:        p.boardURL,
		BoardStream:  p.boardStream,
		BoardJob:     p.boardJob,
	}
	if p.progressBase != "" {
		req.ProgressURL = p.progressBase + "/v1/runs/" + a.runID + "/progress"
		req.ProgressMS = p.progressMS
	}
	return req
}

// deadlineMS converts the context's remaining budget to the worker-side
// deadline field (0 = none), so an orphaned shard self-terminates even
// if the coordinator dies without delivering a cancel.
func deadlineMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// dispatch runs every assignment in plan concurrently and returns their
// outcomes. Each shard's slot reservation is released the moment its
// outcome is in, so later recovery rounds can plan into the freed
// capacity. The solvedOnce/hardCancel pair implements first-solution
// termination across all rounds of one job.
func (c *Coordinator) dispatch(ctx context.Context, mode string, job JobSpec, plan []assignment, solvedOnce *sync.Once, hardCancel context.CancelFunc, p shardParams) []shardOutcome {
	outcomes := make([]shardOutcome, len(plan))
	var wg sync.WaitGroup
	for i := range plan {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := &plan[i]
			outcomes[i] = c.runShard(ctx, a, shardRequest(mode, &job, a, &p))
			c.releaseOne(a)
			if mode == ModeRun && outcomes[i].err == nil && !outcomes[i].lost && outcomes[i].res.Solved {
				// First-solution termination: tell the other workers to
				// stop. Cancel RPCs — not aborted connections — so the
				// losers still deliver their partial statistics; the
				// same grace-then-hard-cancel backstop as external
				// cancellation keeps a stalled loser (or a cancel RPC
				// that raced the run registration) from blocking the
				// job forever.
				solvedOnce.Do(func() {
					c.cancelShards(plan, i)
					time.AfterFunc(cancelGrace, hardCancel)
				})
			}
		}(i)
	}
	wg.Wait()
	return outcomes
}

// lostShardResult synthesizes the stats of walkers [start, start+count)
// whose shard was lost past recovery: each walker keeps its global
// identity and portfolio entry and carries an empty Interrupted result
// stamped core.CostUnknown — never fabricated work, and never a cost a
// consumer may aggregate.
func lostShardResult(start, count int, job JobSpec) multiwalk.Result {
	stats := make([]multiwalk.WalkerStat, count)
	for i := range stats {
		g := start + i
		stats[i] = multiwalk.WalkerStat{
			Walker: g,
			Entry:  multiwalk.EntryFor(job.Portfolio, job.Walkers, g),
			Result: core.Result{Interrupted: true, Cost: core.CostUnknown},
		}
	}
	return multiwalk.Result{Winner: -1, Walkers: stats, Completed: 0, Truncated: true}
}

// plan partitions k walkers over the fleet's free capacity and
// reserves the slots it uses (healthy and suspect workers; dead and
// draining are excluded). ModeRun places at most free-slot walkers per
// worker (they run concurrently); a job that fits the fleet's total
// free capacity always fits, because shards split at arbitrary
// boundaries. ModeVirtual reserves one slot per participating worker
// (shards run sequentially) and splits the walkers proportionally to
// worker capacity, so the slowest shard — the distributed collection's
// wall-clock — is balanced.
func (c *Coordinator) plan(mode string, k int) ([]assignment, error) {
	r := c.reg
	r.mu.Lock()
	defer r.mu.Unlock()

	dispatchable := func(w *workerRef) bool {
		return w.state == stateHealthy || w.state == stateSuspect
	}

	var plan []assignment
	switch mode {
	case ModeVirtual:
		var eligible []*workerRef
		weight := 0
		for _, w := range r.workers {
			if dispatchable(w) && w.slots-w.busy >= 1 {
				eligible = append(eligible, w)
				weight += w.slots
			}
		}
		if len(eligible) == 0 {
			return nil, fmt.Errorf("%w: no worker has a free slot", ErrNoCapacity)
		}
		// Largest-remainder proportional split, ties to earlier
		// workers; zero-walker workers drop out of the plan.
		counts := make([]int, len(eligible))
		assigned := 0
		for i, w := range eligible {
			counts[i] = k * w.slots / weight
			assigned += counts[i]
		}
		for i := 0; assigned < k; i = (i + 1) % len(eligible) {
			counts[i]++
			assigned++
		}
		next := 0
		for i, w := range eligible {
			if counts[i] == 0 {
				continue
			}
			plan = append(plan, assignment{worker: w, start: next, count: counts[i], reserved: 1})
			next += counts[i]
		}
	default: // ModeRun
		free := 0
		for _, w := range r.workers {
			if dispatchable(w) {
				free += w.slots - w.busy
			}
		}
		if free < k {
			return nil, fmt.Errorf("%w: job needs %d walkers, fleet has %d free slots", ErrNoCapacity, k, free)
		}
		next := 0
		for _, w := range r.workers {
			if next == k {
				break
			}
			if !dispatchable(w) {
				continue
			}
			take := min(k-next, w.slots-w.busy)
			if take <= 0 {
				continue
			}
			plan = append(plan, assignment{worker: w, start: next, count: take, reserved: take})
			next += take
		}
	}

	for i := range plan {
		plan[i].worker.busy += plan[i].reserved
	}
	return plan, nil
}

// ErrNoRecoveryCapacity reports that shard recovery found zero healthy
// workers with any free slot: nothing can be dispatched, so the caller
// should stop retrying immediately instead of burning recovery
// attempts on empty plans.
var ErrNoRecoveryCapacity = errors.New("dist: no healthy worker has free capacity for shard recovery")

// planRecovery re-plans lost walker ranges onto healthy workers with
// free capacity, reserving the slots it takes. Suspect workers are
// excluded — the failure that made them suspect is usually the one
// being recovered from. Ranges (or range tails) that find no capacity
// come back as uncovered; the caller truncates them after the retry
// budget is spent. When no healthy worker has even one free slot the
// whole input comes back uncovered with ErrNoRecoveryCapacity.
func (c *Coordinator) planRecovery(mode string, lost []lostRange) (plan []assignment, uncovered []lostRange, err error) {
	r := c.reg
	r.mu.Lock()
	defer r.mu.Unlock()

	anyFree := false
	for _, w := range r.workers {
		if w.state == stateHealthy && w.slots-w.busy >= 1 {
			anyFree = true
			break
		}
	}
	if !anyFree {
		return nil, lost, ErrNoRecoveryCapacity
	}

	for _, lr := range lost {
		switch mode {
		case ModeVirtual:
			// One slot on the healthy worker with the most free
			// capacity; virtual shards run sequentially, so the whole
			// range stays on one worker.
			var best *workerRef
			for _, w := range r.workers {
				if w.state != stateHealthy || w.slots-w.busy < 1 {
					continue
				}
				if best == nil || w.slots-w.busy > best.slots-best.busy {
					best = w
				}
			}
			if best == nil {
				uncovered = append(uncovered, lr)
				continue
			}
			best.busy++
			plan = append(plan, assignment{worker: best, start: lr.start, count: lr.count, reserved: 1})
		default: // ModeRun
			next, end := lr.start, lr.start+lr.count
			for _, w := range r.workers {
				if next == end {
					break
				}
				if w.state != stateHealthy {
					continue
				}
				take := min(end-next, w.slots-w.busy)
				if take <= 0 {
					continue
				}
				w.busy += take
				plan = append(plan, assignment{worker: w, start: next, count: take, reserved: take})
				next += take
			}
			if next < end {
				uncovered = append(uncovered, lostRange{next, end - next})
			}
		}
	}
	return plan, uncovered, nil
}

// releaseOne returns one assignment's slot reservation; idempotent.
func (c *Coordinator) releaseOne(a *assignment) {
	r := c.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if !a.released {
		a.released = true
		a.worker.busy -= a.reserved
	}
}

// releaseAll returns every not-yet-released reservation in plan.
func (c *Coordinator) releaseAll(plan []assignment) {
	for i := range plan {
		c.releaseOne(&plan[i])
	}
}

// runShard posts one shard run and waits for its statistics. The
// worker's capability is re-validated against the registry at dispatch
// time — plan-time snapshots go stale in an elastic fleet — and a
// worker that went dead or draining in the gap is failed over (the
// shard reports lost, flowing into recovery) instead of erroring the
// job. Dispatch and response are both JSON: one request and one
// response per shard, so a binary codec would buy nothing.
func (c *Coordinator) runShard(ctx context.Context, a *assignment, reqBody RunRequest) shardOutcome {
	if !c.reg.dispatchable(a.worker) {
		c.mFailovers.Add(1)
		return shardOutcome{lost: true}
	}
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return shardOutcome{err: err}
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, a.worker.base+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return shardOutcome{err: err}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(httpReq)
	if err != nil {
		// Transport loss: connection refused, reset mid-run, context
		// cancelled. No stats came back — the shard is lost. Mark the
		// worker so recovery plans around it; the next successful probe
		// or heartbeat restores it.
		c.reg.reportFailure(a.worker)
		return shardOutcome{lost: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err != nil || e.Error == "" {
			return shardOutcome{lost: true}
		}
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusTooManyRequests {
			// The worker understood us and said no: an application
			// error the caller must see (bad options reject the whole
			// job; capacity conflicts mean a mis-shared fleet).
			return shardOutcome{err: errors.New(e.Error)}
		}
		return shardOutcome{lost: true}
	}
	var wire RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return shardOutcome{lost: true}
	}
	return shardOutcome{res: resultFromWire(wire)}
}

// cancelGrace is how long the coordinator waits, after delivering
// cancel RPCs, for workers to flush their partial statistics before it
// severs the connections.
const cancelGrace = 30 * time.Second

// cancelShards delivers best-effort cancel RPCs to every shard except
// skip (pass -1 to cancel all). A bounded background context — not the
// job context — carries them, so cancellation still reaches workers
// when the caller's context is the thing that expired.
func (c *Coordinator) cancelShards(plan []assignment, skip int) {
	for i := range plan {
		if i == skip {
			continue
		}
		go c.cancelRun(&plan[i])
	}
}

// cancelRun delivers one best-effort cancel RPC on its own bounded
// background context, reporting whether the worker acknowledged it.
func (c *Coordinator) cancelRun(a *assignment) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.worker.base+"/v1/runs/"+a.runID+"/cancel", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
