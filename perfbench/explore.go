package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/studies"
	"repro/internal/workload"
)

const (
	batchSize = 50    // simulations per round, as in the paper's §5
	traceLen  = 30000 // instructions per simulation
	// checkSamples is the prefix the workers=1 parity exploration runs:
	// two rounds, enough for a trained ensemble and (under acquisition)
	// one acquired batch.
	checkSamples = 2 * batchSize
)

// fixture is what set-up builds: the application's trace and a
// held-out set of design points with their simulated truth. The
// held-out points are excluded from sampling.
type fixture struct {
	study *studies.Study
	trace *workload.Trace
	held  []int
	truth []float64 // output 0 (IPC) per held-out point
}

// buildFixture generates the trace and simulates the held-out set.
// Simulation calls sim.Run directly: the experiments package's oracle
// memoizes results process-wide, which would let a later set-up reuse
// an earlier one's work.
func buildFixture(spec *workloadSpec, seed uint64) (*fixture, time.Duration, error) {
	st, err := studies.ByName(spec.study)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	fx := &fixture{study: st, trace: workload.Get(spec.app, traceLen)}
	traceTime := time.Since(t0)
	fx.held = st.Space.Sample(stats.NewRNG(seed^0x68656c64), held) // "held"
	fx.truth = make([]float64, len(fx.held))
	if err := parallel(len(fx.held), func(i int) error {
		r, err := sim.Run(st.Config(fx.held[i]), fx.trace)
		fx.truth[i] = r.IPC
		return err
	}); err != nil {
		return nil, 0, fmt.Errorf("held-out simulation: %w", err)
	}
	return fx, traceTime, nil
}

// parallel runs fn(0..n-1) on at most GOMAXPROCS goroutines and
// returns the first error.
func parallel(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simOracle evaluates design points with sim.Run and times every call:
// the sim layer, observed from outside.
type simOracle struct {
	study *studies.Study
	trace *workload.Trace
	multi bool // report IPC, L2 miss rate and branch mispredict rate
	tr    *tracer
	root  int // enclosing exploration span

	mu   sync.Mutex
	durs []time.Duration
}

func (o *simOracle) Evaluate(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	for i, idx := range indices {
		t0 := time.Now()
		r, err := sim.Run(o.study.Config(idx), o.trace)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", idx, err)
		}
		o.mu.Lock()
		o.durs = append(o.durs, t1.Sub(t0))
		o.mu.Unlock()
		o.tr.add("sim.Run", "sim", t0, t1, o.root, strconv.Itoa(idx))
		if o.multi {
			out[i] = []float64{r.IPC, r.L2MissRate, r.BrMispredRate}
		} else {
			out[i] = []float64{r.IPC}
		}
	}
	return out, nil
}

// exploration is one explore.Driver run to its budget.
type exploration struct {
	wall      time.Duration
	trueErr   float64 // mean |pred−sim|/sim of output 0 on the held-out set, %
	estErr    float64 // the ensemble's cross-validation estimate, %
	samples   []int
	digest    string // final estimate + sampled indices
	prefix    string // the same at checkSamples
	ens       *core.Ensemble
	simDurs   []time.Duration
	train     time.Duration
	ckpt      time.Duration
	ckptBytes int64
	selectT   time.Duration
	covered   float64 // seconds of the run covered by layer spans
}

// exploreOpts are the knobs that vary between the measured, parity and
// overhead explorations; none of them may change results.
type exploreOpts struct {
	workers    int // oracle fan-out and fold-training bound (0 = GOMAXPROCS)
	sequential bool
	maxSamples int
	tr         *tracer
	ckptPath   string
	id         string
}

func digest(est core.Estimate, samples []int) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range []float64{est.MeanErr, est.SDErr} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, s := range samples {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// runExploration explores the workload's application from seed. With a
// tracer it also times, after every round, the selection of the next
// batch on that round's ensemble and pool (a shadow call into core's
// selector, checked against the batch the driver then draws).
func runExploration(ctx context.Context, fx *fixture, spec *workloadSpec, seed uint64, o exploreOpts) (*exploration, error) {
	cfg := core.ExploreConfig{
		Model:      core.DefaultModelConfig(),
		BatchSize:  batchSize,
		MaxSamples: o.maxSamples,
		Seed:       seed,
		Exclude:    fx.held,
	}
	cfg.Model.Workers = o.workers
	var acq core.Acquirer
	if spec.acquire != "" {
		var err error
		if cfg.Acquire, err = core.ParseAcquireSpec(spec.acquire); err != nil {
			return nil, err
		}
		if acq, err = core.NewAcquirer(cfg.Acquire); err != nil {
			return nil, err
		}
	}
	oracle := &simOracle{study: fx.study, trace: fx.trace, multi: spec.acquire != "", tr: o.tr, root: -1}
	ex := &exploration{}
	var (
		drv     *explore.Driver
		stepErr error
		shadow  [][]int
	)
	onStep := func(s core.Step) {
		now := time.Now()
		round := strconv.Itoa(s.Samples / batchSize)
		ex.train += s.TrainTime
		o.tr.add("core.TrainEnsemble", "core.train", now.Add(-s.TrainTime), now, oracle.root, round)
		cp := drv.Checkpoint()
		if s.Samples == checkSamples {
			ex.prefix = digest(s.Est, cp.Indices)
		}
		if o.ckptPath != "" {
			t0 := time.Now()
			err := cp.WriteFile(o.ckptPath)
			t1 := time.Now()
			if err != nil && stepErr == nil {
				stepErr = err
			}
			ex.ckpt += t1.Sub(t0)
			o.tr.add("bundle.Checkpoint.WriteFile", "bundle", t0, t1, oracle.root, round)
			if fi, err := os.Stat(o.ckptPath); err == nil {
				ex.ckptBytes = fi.Size()
			}
		}
		if o.tr == nil || s.Samples >= o.maxSamples {
			return
		}
		next, t0, t1, err := shadowSelect(fx, cfg, acq, cp, drv, min(batchSize, o.maxSamples-s.Samples))
		if err != nil && stepErr == nil {
			stepErr = err
		}
		ex.selectT += t1.Sub(t0)
		o.tr.add("core.Acquirer.Select", "core.select", t0, t1, oracle.root, round)
		shadow = append(shadow, next)
	}
	pipe := explore.Pipeline{
		Workers:    o.workers,
		Sequential: o.sequential,
		Meta:       bundle.Meta{Study: spec.study, App: spec.app, TraceLen: traceLen, Model: cfg.Model},
		OnStep:     onStep,
	}
	var err error
	drv, err = explore.New(fx.study.Space, oracle, explore.Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	oracle.root = o.tr.open("explore.Driver.Run", "explore", start, -1, o.id)
	ens, err := drv.Run(ctx)
	end := time.Now()
	o.tr.close(oracle.root, end)
	if err != nil {
		return nil, err
	}
	if stepErr != nil {
		return nil, stepErr
	}
	ex.wall = end.Sub(start)
	ex.ens = ens
	ex.samples = drv.Samples()
	ex.simDurs = oracle.durs
	ex.estErr = ens.Estimate().MeanErr
	ex.trueErr = stats.MeanAbsPercentError(ens.PredictIndices(drv.Encoder(), fx.held), fx.truth)
	ex.digest = digest(ens.Estimate(), ex.samples)
	ex.covered = o.tr.childCoverage(oracle.root)
	if len(ex.simDurs) != o.maxSamples || len(ex.samples) != o.maxSamples {
		return nil, fmt.Errorf("%d simulations for %d samples, budget %d", len(ex.simDurs), len(ex.samples), o.maxSamples)
	}
	for k, next := range shadow {
		lo := (k + 1) * batchSize
		if !slices.Equal(next, ex.samples[lo:lo+len(next)]) {
			return nil, fmt.Errorf("round %d: selection timed on the round's ensemble drew %v, the driver drew %v", k+2, next, ex.samples[lo:lo+len(next)])
		}
	}
	return ex, nil
}

// shadowSelect repeats the selection the driver makes next, on a fresh
// selector restored to the checkpointed RNG state, and times only the
// selection call.
func shadowSelect(fx *fixture, cfg core.ExploreConfig, acq core.Acquirer, cp *bundle.Checkpoint, drv *explore.Driver, n int) (next []int, t0, t1 time.Time, err error) {
	rng := stats.NewRNG(0)
	if err := rng.Restore(cp.RNG); err != nil {
		return nil, t0, t1, err
	}
	sel := core.NewBatchSelector(fx.study.Space, drv.Encoder(), rng)
	for _, i := range cfg.Exclude {
		sel.Reserve(i)
	}
	xs := make([][]float64, len(cp.Indices))
	for i, idx := range cp.Indices {
		sel.Reserve(idx)
		xs[i] = drv.Encoder().EncodeIndex(idx, nil)
	}
	t0 = time.Now()
	if acq == nil {
		next = sel.Random(n)
	} else {
		next, err = sel.Acquire(acq, cp.Ensemble, xs, n, cfg.CandidatePool)
	}
	return next, t0, time.Now(), err
}

// exploreSummary aggregates a workload's measured explorations.
type exploreSummary struct {
	runs      []*exploration
	overheadS float64 // traced minus untraced wall of exploration 0, s
	untraced  float64
}

// runExplorePhase runs the workload's explorations, each from its own
// seed, then the parity checks: a workers=1 sequential run of exploration 0's prefix
// must reproduce its digest, and (traced runs) an untraced repeat of
// exploration 0 must reproduce its final digest.
func runExplorePhase(ctx context.Context, fx *fixture, spec *workloadSpec, seed uint64, tr *tracer, outDir string) (*exploreSummary, error) {
	rng := stats.NewRNG(seed ^ 0x6578706c) // "expl"
	seeds := make([]uint64, explorations)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	ckpt := outDir + "/checkpoint-" + spec.name + ".json"
	sum := &exploreSummary{}
	for j := range seeds {
		ex, err := runExploration(ctx, fx, spec, seeds[j], exploreOpts{
			maxSamples: budget, tr: tr, ckptPath: ckpt, id: fmt.Sprintf("explore-%d", j),
		})
		if err != nil {
			return nil, fmt.Errorf("exploration %d: %w", j, err)
		}
		sum.runs = append(sum.runs, ex)
	}
	first := sum.runs[0]
	check, err := runExploration(ctx, fx, spec, seeds[0], exploreOpts{workers: 1, sequential: true, maxSamples: checkSamples})
	if err != nil {
		return nil, fmt.Errorf("workers=1 exploration: %w", err)
	}
	if check.digest != first.prefix {
		return nil, fmt.Errorf("workers=1 exploration digest %s differs from the measured run's %s at %d samples", check.digest, first.prefix, checkSamples)
	}
	if tr != nil {
		again, err := runExploration(ctx, fx, spec, seeds[0], exploreOpts{maxSamples: budget, ckptPath: ckpt})
		if err != nil {
			return nil, fmt.Errorf("untraced repeat: %w", err)
		}
		if again.digest != first.digest {
			return nil, fmt.Errorf("repeated exploration digest %s differs from %s", again.digest, first.digest)
		}
		sum.untraced = again.wall.Seconds()
		sum.overheadS = first.wall.Seconds() - again.wall.Seconds()
	}
	return sum, nil
}

func (s *exploreSummary) mean(f func(*exploration) float64) float64 {
	var t float64
	for _, r := range s.runs {
		t += f(r)
	}
	return t / float64(len(s.runs))
}

// ensembles returns the final ensembles, in exploration order.
func (s *exploreSummary) ensembles() []*core.Ensemble {
	out := make([]*core.Ensemble, len(s.runs))
	for i, r := range s.runs {
		out[i] = r.ens
	}
	return out
}

func (s *exploreSummary) endToEnd(m metrics) {
	m.set("explore_s", "s", s.mean(func(r *exploration) float64 { return r.wall.Seconds() }))
	m.set("true_err_pct", "%", s.mean(func(r *exploration) float64 { return r.trueErr }))
}

func (s *exploreSummary) layers(m metrics) {
	workers := float64(runtime.GOMAXPROCS(0))
	var durs []float64
	for _, r := range s.runs {
		for _, d := range r.simDurs {
			durs = append(durs, d.Seconds())
		}
	}
	wall := s.mean(func(r *exploration) float64 { return r.wall.Seconds() })
	busy := s.mean(func(r *exploration) float64 { return sumDur(r.simDurs) })
	train := s.mean(func(r *exploration) float64 { return r.train.Seconds() })
	ckpt := s.mean(func(r *exploration) float64 { return r.ckpt.Seconds() })
	m.set("explore.est_gap_pct", "%", s.mean(func(r *exploration) float64 { return math.Abs(r.estErr - r.trueErr) }))
	m.set("explore.overlap_s", "s", busy/workers+train+ckpt-wall)
	m.set("explore.critical_path_frac", "ratio", s.mean(func(r *exploration) float64 { return r.covered / r.wall.Seconds() }))
	m.set("sim.points", "count", float64(len(s.runs[0].simDurs)))
	m.set("sim.busy_s", "s", busy)
	m.set("sim.minst_per_s", "Minst/s", float64(len(durs))*traceLen/1e6/(busy*float64(len(s.runs))))
	m.set("sim.point_p99_ms", "ms", 1e3*stats.Percentile(durs, 99))
	m.set("core.train_s", "s", train)
	m.set("core.train_share", "ratio", train/wall)
	m.set("core.select_s", "s", s.mean(func(r *exploration) float64 { return r.selectT.Seconds() }))
	m.set("bundle.checkpoint_s", "s", ckpt)
	m.set("bundle.checkpoint_bytes", "bytes", s.mean(func(r *exploration) float64 { return float64(r.ckptBytes) }))
	if s.untraced > 0 {
		m.set("trace.overhead_frac", "ratio", s.overheadS/s.untraced)
	}
}

func sumDur(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}
