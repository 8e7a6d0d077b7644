package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/space"
)

// ExploreRequest is the wire form of one exploration job: which
// (study, application) pair to model, under what budget, and the name
// the finished model registers under. It is deliberately close to
// cmd/dsexplore's flags — one engine, two front ends.
type ExploreRequest struct {
	// Name is the model-registry name the finished bundle registers
	// under; it is reserved for the job's lifetime.
	Name string `json:"name"`
	// Study and App select the oracle (resolved by the server's
	// Backend at submission); TraceLen is instructions per simulation
	// (0 = backend default, at most MaxTraceLen).
	Study    string `json:"study"`
	App      string `json:"app"`
	TraceLen int    `json:"traceLen,omitempty"`

	// Budget is the maximum simulations (required); Batch is
	// simulations per round (0 = 50, the paper's batch). Target stops
	// the loop at an estimated mean error (%); 0 runs the full budget.
	Budget int     `json:"budget"`
	Batch  int     `json:"batch,omitempty"`
	Target float64 `json:"target,omitempty"`
	// Active selects variance-driven (active-learning) sampling.
	Active bool `json:"active,omitempty"`
	// Acquire selects a Pareto-aware acquisition function, in the
	// core.ParseAcquireSpec grammar ("hvi:max=out0:min=out1",
	// "variance:out0>=1.2", ...). It overrides Active once an ensemble
	// exists; the first round is always random.
	Acquire string `json:"acquire,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Workers bounds the per-job oracle fan-out (0 = all cores);
	// Retries is per-point retries before quarantine (0 = default).
	Workers int `json:"workers,omitempty"`
	Retries int `json:"retries,omitempty"`
}

// MaxTraceLen bounds ExploreRequest.TraceLen. A trace instruction takes
// 40 bytes, so the largest trace a request can ask for is 40 MB.
const MaxTraceLen = 1_000_000

// Validate checks the request's own fields; the Backend checks the
// study and app when Submit resolves the request.
func (r ExploreRequest) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("serve: job needs a model name to register under")
	}
	if r.Budget <= 0 {
		return fmt.Errorf("serve: job needs a positive simulation budget")
	}
	if r.Batch < 0 || r.Batch > r.Budget {
		return fmt.Errorf("serve: batch %d outside (0, budget=%d]", r.Batch, r.Budget)
	}
	if r.TraceLen < 0 || r.TraceLen > MaxTraceLen {
		return fmt.Errorf("serve: traceLen %d outside [0, %d]", r.TraceLen, MaxTraceLen)
	}
	if r.Acquire != "" {
		// Reject malformed specs at submission, not rounds later when
		// the first acquisition-driven batch would be drawn.
		if _, err := core.ParseAcquireSpec(r.Acquire); err != nil {
			return fmt.Errorf("serve: acquire: %w", err)
		}
	}
	return nil
}

// Backend resolves an exploration request into the design space and
// oracle it runs against. cmd/serve wires the cycle-level simulator in;
// tests wire synthetic oracles. The returned meta records provenance
// for the registered bundle. Submit calls it before queueing the job,
// so it must reject an unknown study or app with an error naming the
// field, and must be cheap enough to run on the request path.
type Backend func(req ExploreRequest) (*space.Space, core.Oracle, bundle.Meta, error)

// JobStatus is the lifecycle of an asynchronous job.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Job kinds the store runs.
const (
	// JobKindExplore trains a model by driving the exploration pipeline
	// and registers the finished bundle.
	JobKindExplore = "explore"
	// JobKindSweep ranks an entire design space through registered
	// models with the streaming sweep engine.
	JobKindSweep = "sweep"
)

// Job is one asynchronous unit of work tracked by the store.
type Job struct {
	ID   string
	Kind string
	Req  any // the submitted request (ExploreRequest, SweepRequest)

	// exec runs the work; its non-nil result is surfaced in JobInfo
	// once the job is done. reserved is the registry name released if
	// the job does not complete ("" when the job registers nothing).
	exec     func(ctx context.Context, job *Job) (any, error)
	reserved string

	mu          sync.Mutex
	status      JobStatus
	created     time.Time
	started     time.Time
	finished    time.Time
	steps       []core.Step
	quarantined int
	// liveSp/liveEns/acquire feed GET /v1/jobs/{id}/frontier: the
	// exploration's design space, its latest trained ensemble (updated
	// after every completed round) and its acquisition config.
	liveSp     *space.Space
	liveEns    *core.Ensemble
	acquire    *core.AcquireConfig
	swept      int
	sweepTotal int
	result     any
	errMsg     string
	cancel     context.CancelFunc
	cancelled  bool
}

// JobInfo is a consistent snapshot of a job, and its JSON view.
type JobInfo struct {
	ID          string      `json:"id"`
	Kind        string      `json:"kind"`
	Req         any         `json:"request"`
	Status      JobStatus   `json:"status"`
	Created     time.Time   `json:"created"`
	Started     *time.Time  `json:"started,omitempty"`
	Finished    *time.Time  `json:"finished,omitempty"`
	Samples     int         `json:"samples"`
	Rounds      []core.Step `json:"rounds,omitempty"`
	Quarantined int         `json:"quarantined,omitempty"`
	// Swept/SweepTotal are a sweep job's live progress in design
	// points.
	Swept      int    `json:"swept,omitempty"`
	SweepTotal int    `json:"sweepTotal,omitempty"`
	Error      string `json:"error,omitempty"`
	// Model is the registry name queryable once an exploration is done.
	Model string `json:"model,omitempty"`
	// Result is the job's product once Status == done — a sweep's
	// top-k/frontier document. Explorations surface theirs through the
	// model registry instead. Only single-job lookups carry it; the
	// job listing omits it, so polling GET /v1/jobs does not
	// re-serialize every finished sweep's tables.
	Result any `json:"result,omitempty"`
}

// Info snapshots the job under its lock, result document included.
func (j *Job) Info() JobInfo { return j.snapshot(true) }

func (j *Job) snapshot(withResult bool) JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:          j.ID,
		Kind:        j.Kind,
		Req:         j.Req,
		Status:      j.status,
		Created:     j.created,
		Rounds:      append([]core.Step(nil), j.steps...),
		Quarantined: j.quarantined,
		Swept:       j.swept,
		SweepTotal:  j.sweepTotal,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if n := len(j.steps); n > 0 {
		info.Samples = j.steps[n-1].Samples
	}
	if j.status == JobDone {
		if j.Kind == JobKindExplore {
			info.Model = j.reserved
		}
		if withResult {
			info.Result = j.result
		}
	}
	return info
}

// JobStore runs exploration jobs over a bounded worker pool and
// registers the finished models. Submissions beyond the queue's
// capacity are rejected rather than buffered without bound; cancelling
// a queued job frees its slot immediately.
type JobStore struct {
	reg     *Registry
	backend Backend
	copts   CoalesceOpts
	// kernel is the forward-kernel tier for sweep jobs that leave
	// "kernel" unset; set through Server.SetDefaultKernel before
	// serving (zero value: exact).
	kernel ann.KernelMode

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	notEmpty *sync.Cond // signaled when pending gains a job or the store closes
	pending  []*Job     // FIFO of queued jobs awaiting a worker
	queueCap int
	jobs     map[string]*Job
	order    []string
	names    map[string]bool // model names reserved by live or done jobs
	nextID   int
	closed   bool
}

// NewJobStore builds a store running at most concurrency jobs at once
// (minimum 1), queueing at most queueCap more (minimum 1). Finished
// models register in reg with copts.
func NewJobStore(reg *Registry, backend Backend, concurrency, queueCap int, copts CoalesceOpts) *JobStore {
	if concurrency < 1 {
		concurrency = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &JobStore{
		reg:      reg,
		backend:  backend,
		copts:    copts,
		baseCtx:  ctx,
		stop:     stop,
		queueCap: queueCap,
		jobs:     make(map[string]*Job),
		names:    make(map[string]bool),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	for i := 0; i < concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates the request, resolves it through the Backend, then
// enqueues and returns a new exploration job. A request the Backend
// cannot resolve (an unknown study or app) is rejected here rather
// than failing, or panicking, once a worker runs it. The model name is
// reserved immediately, so two concurrent submissions cannot race for
// one registry slot.
func (s *JobStore) Submit(req ExploreRequest) (JobInfo, error) {
	if err := req.Validate(); err != nil {
		return JobInfo{}, err
	}
	sp, oracle, meta, err := s.backend(req)
	if err != nil {
		return JobInfo{}, fmt.Errorf("serve: %w", err)
	}
	return s.enqueue(JobKindExplore, req, req.Name, func(ctx context.Context, job *Job) (any, error) {
		return nil, s.runExplore(ctx, job, req, sp, oracle, meta)
	})
}

// enqueue is the kind-agnostic admission path: it checks store
// shutdown and queue capacity, reserves the registry name when the job
// will register one, and hands the job to the worker pool.
func (s *JobStore) enqueue(kind string, req any, reserve string, exec func(ctx context.Context, job *Job) (any, error)) (JobInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: job store is shut down")
	}
	if reserve != "" {
		if s.names[reserve] {
			s.mu.Unlock()
			return JobInfo{}, fmt.Errorf("serve: model name %q is taken by another job", reserve)
		}
		if _, err := s.reg.Get(reserve); err == nil {
			s.mu.Unlock()
			return JobInfo{}, fmt.Errorf("serve: model %q already registered", reserve)
		}
	}
	if len(s.pending) >= s.queueCap {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: job queue is full (%d pending)", s.queueCap)
	}
	s.nextID++
	job := &Job{
		ID:       fmt.Sprintf("job-%d", s.nextID),
		Kind:     kind,
		Req:      req,
		exec:     exec,
		reserved: reserve,
		status:   JobQueued,
		created:  time.Now(),
	}
	s.pending = append(s.pending, job)
	if reserve != "" {
		s.names[reserve] = true
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.notEmpty.Signal()
	s.mu.Unlock()
	return job.Info(), nil
}

// Get returns a snapshot of one job.
func (s *JobStore) Get(id string) (JobInfo, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("serve: unknown job %q", id)
	}
	return job.Info(), nil
}

// List snapshots every job in submission order. Listings omit result
// documents — fetch a single job for those.
func (s *JobStore) List() []JobInfo {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(false)
	}
	return out
}

// Cancel stops a queued or running job. Finished jobs cannot be
// cancelled.
func (s *JobStore) Cancel(id string) (JobInfo, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("serve: unknown job %q", id)
	}
	job.mu.Lock()
	switch job.status {
	case JobQueued:
		// Drop it from the pending queue so its slot frees immediately;
		// if a worker dequeued it concurrently, the cancelled flag makes
		// run() skip it.
		job.cancelled = true
		job.status = JobCancelled
		job.finished = time.Now()
		s.unqueue(job)
		s.releaseName(job.reserved)
	case JobRunning:
		job.cancelled = true
		job.cancel() // run() settles status when Run returns
	case JobDone, JobFailed, JobCancelled:
		job.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: job %q already %s", id, job.status)
	}
	job.mu.Unlock()
	return job.Info(), nil
}

// Close stops accepting jobs, cancels queued and running ones and
// waits for the workers to drain.
func (s *JobStore) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	dropped := s.pending
	s.pending = nil
	s.notEmpty.Broadcast()
	s.mu.Unlock()
	for _, job := range dropped {
		job.mu.Lock()
		job.cancelled = true
		job.status = JobCancelled
		job.finished = time.Now()
		job.mu.Unlock()
		s.releaseName(job.reserved)
	}
	s.stop()
	s.wg.Wait()
}

func (s *JobStore) releaseName(name string) {
	s.mu.Lock()
	delete(s.names, name)
	s.mu.Unlock()
}

// unqueue removes a job from the pending FIFO if it is still there.
// Callers hold job.mu; everywhere the two locks nest, the order is
// job.mu → s.mu (run's settle path does the same), so this cannot
// deadlock against Submit/List/Get, which never take job.mu under s.mu.
func (s *JobStore) unqueue(job *Job) {
	s.mu.Lock()
	for i, p := range s.pending {
		if p == job {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

func (s *JobStore) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.notEmpty.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		job := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.run(job)
	}
}

// run executes one job end to end, whatever its kind, and settles its
// final status.
func (s *JobStore) run(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	job.mu.Lock()
	if job.cancelled { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.status = JobRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()

	result, err := job.exec(ctx, job)
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	if err != nil {
		if job.cancelled || ctx.Err() != nil {
			job.status = JobCancelled
		} else {
			job.status = JobFailed
		}
		job.errMsg = err.Error()
		s.releaseName(job.reserved)
		return
	}
	job.result = result
	job.status = JobDone
}

// runExplore is an exploration job's exec: the exploration driver over
// the resolved space and oracle, and registration of the finished
// bundle.
func (s *JobStore) runExplore(ctx context.Context, job *Job, req ExploreRequest, sp *space.Space, oracle core.Oracle, meta bundle.Meta) error {
	ens, d, meta, err := s.explore(ctx, job, req, sp, oracle, meta)
	if d != nil {
		job.mu.Lock()
		job.quarantined = len(d.Quarantined())
		job.mu.Unlock()
	}
	if err != nil {
		return err
	}
	b, err := bundle.New(d.Space(), ens, meta)
	if err == nil {
		_, err = s.reg.Add(req.Name, b, s.copts)
	}
	return err
}

// explore builds and runs the driver for one exploration job.
func (s *JobStore) explore(ctx context.Context, job *Job, req ExploreRequest, sp *space.Space, oracle core.Oracle, meta bundle.Meta) (*core.Ensemble, *explore.Driver, bundle.Meta, error) {
	batch := req.Batch
	if batch == 0 {
		batch = 50
		if batch > req.Budget {
			batch = req.Budget
		}
	}
	cfg, err := driverConfig(req, batch)
	if err != nil {
		return nil, nil, meta, err
	}
	// The OnStep observer snapshots the freshly trained ensemble into
	// the job for GET /v1/jobs/{id}/frontier. It closes over d, which is
	// assigned below before Run starts; OnStep runs on the goroutine
	// executing Run, so the read is ordered after the assignment.
	var d *explore.Driver
	cfg.OnStep = func(step core.Step) {
		job.mu.Lock()
		job.steps = append(job.steps, step)
		job.liveEns = d.Ensemble()
		job.mu.Unlock()
	}
	cfg.Meta = meta
	d, err = explore.New(sp, oracle, cfg)
	if err != nil {
		return nil, nil, meta, err
	}
	job.mu.Lock()
	job.liveSp = sp
	job.acquire = cfg.Acquire
	job.mu.Unlock()
	ens, err := d.Run(ctx)
	if err != nil {
		return nil, d, meta, err
	}
	meta.Samples = len(d.Samples())
	meta.Model = cfg.Model
	return ens, d, meta, nil
}

// driverConfig maps an exploration request onto the driver's
// configuration.
func driverConfig(req ExploreRequest, batch int) (explore.Config, error) {
	cfg := explore.Config{
		ExploreConfig: core.ExploreConfig{
			Model:         core.DefaultModelConfig(),
			BatchSize:     batch,
			MaxSamples:    req.Budget,
			TargetMeanErr: req.Target,
			Seed:          req.Seed,
		},
		Pipeline: explore.Pipeline{
			Workers: req.Workers,
			Retries: req.Retries,
		},
	}
	if req.Active {
		cfg.Strategy = core.SelectVariance
	}
	if req.Acquire != "" {
		acq, err := core.ParseAcquireSpec(req.Acquire)
		if err != nil {
			return explore.Config{}, fmt.Errorf("serve: %w", err)
		}
		cfg.Acquire = acq
	}
	cfg.Model.Workers = req.Workers
	return cfg, nil
}
