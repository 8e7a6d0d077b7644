// Package explore is the exploration loop: the paper's §3.3
// select→simulate→train→estimate procedure, decomposed into
// overlapping stages that are durable, concurrent and cancellable.
//
//   - Oracle evaluation fans each batch out over a worker pool,
//     per-point, with order-preserving reassembly — the cycle-level
//     simulator finally runs in parallel, and a k-core box cuts a
//     simulation-bound round's wall clock by ~k× without changing one
//     bit of the result.
//   - Per-point oracle failures are retried and then quarantined (the
//     point is recorded and never drawn again) instead of aborting a
//     run that may have hours of simulation behind it.
//   - Under random selection, training on round N overlaps with the
//     speculative selection and simulation of round N+1: selection
//     draws from the RNG exactly where the sequential loop would, and
//     training never touches the selection stream, so the overlap is
//     invisible in the outputs. If round N meets the error target, the
//     speculative simulations are discarded. (Variance-driven selection
//     needs round N's ensemble to choose round N+1, so it runs the
//     stages in lockstep; the within-batch fan-out still applies.)
//   - After every completed round the driver can write a versioned
//     bundle.Checkpoint — kill the process anywhere and Resume
//     reproduces the uninterrupted run bit-identically.
//
// Every caller — CLI tools, examples, experiments and the HTTP job API
// (internal/serve) — runs on the driver. Its parity tests compare it
// against a plain sequential loop over core.BatchSelector and
// core.TrainEnsemble.
package explore

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
)

// Pipeline bundles the scheduling knobs of the driver. None of them
// affect results — only wall-clock time and durability; the outputs for
// a given (space, oracle, ExploreConfig) are bit-identical for every
// setting, which is what makes the pipeline safe to tune in production.
type Pipeline struct {
	// Workers bounds the oracle fan-out: at most this many design
	// points evaluate concurrently (0 = GOMAXPROCS, negative = one at a
	// time).
	Workers int
	// Retries is how many extra attempts a failing point gets before
	// quarantine (0 = DefaultRetries, negative = none).
	Retries int
	// Sequential disables the speculative overlap of round-N training
	// with round-N+1 simulation.
	Sequential bool
	// CheckpointPath, when non-empty, makes the driver atomically write
	// a resumable snapshot there after every completed round.
	CheckpointPath string
	// Meta is provenance recorded into checkpoints (study, app, trace
	// length), so a resume can rebuild the matching oracle.
	Meta bundle.Meta
	// OnStep, when non-nil, observes each completed round — live
	// progress for CLIs and the job API. It runs on the driver's
	// orchestration goroutine.
	OnStep func(core.Step)
}

// Config couples the paper's loop parameters with the pipeline's
// scheduling knobs.
type Config struct {
	core.ExploreConfig
	Pipeline
}

// Driver runs the exploration pipeline over one design space and
// oracle. Methods must not be called concurrently; the concurrency is
// inside (oracle fan-out, train/simulate overlap), not on the API.
type Driver struct {
	sp     *space.Space
	enc    *encoding.Encoder
	oracle core.Oracle
	cfg    Config
	sel    *core.BatchSelector
	acq    core.Acquirer // non-nil iff cfg.Acquire is

	indices []int       // simulated design points, in sampling order
	inputs  [][]float64 // encoded inputs, aligned with indices
	targets [][]float64 // oracle target vectors, aligned with indices
	width   int         // established target-vector width (0 before any)

	ens        *core.Ensemble
	steps      []core.Step
	quarantine []bundle.QuarantinedPoint

	// cpRNG is the selection RNG's state as of the last record() —
	// i.e. before any speculative draws for the next round — which is
	// exactly the state a resumed run must restart from.
	cpRNG [4]uint64
}

// New constructs a driver over the design space with the given oracle.
func New(sp *space.Space, oracle core.Oracle, cfg Config) (*Driver, error) {
	if oracle == nil {
		return nil, fmt.Errorf("explore: need an oracle")
	}
	if err := cfg.Validate(sp); err != nil {
		return nil, err
	}
	enc := encoding.NewEncoder(sp)
	d := &Driver{
		sp:     sp,
		enc:    enc,
		oracle: oracle,
		cfg:    cfg,
		sel:    core.NewBatchSelector(sp, enc, cfg.SeedRNG()),
	}
	if cfg.Acquire != nil {
		acq, err := core.NewAcquirer(cfg.Acquire)
		if err != nil {
			return nil, err
		}
		d.acq = acq
	}
	for _, idx := range cfg.Exclude {
		d.sel.Reserve(idx)
	}
	d.cpRNG = d.sel.RNG().State()
	return d, nil
}

// Resume rebuilds a driver from a checkpoint: the sampled set, targets,
// round history, quarantine list and — critically — the selection RNG's
// exact state are restored, so the continued run draws the same batches
// the uninterrupted run would have. The loop configuration is adopted
// from the checkpoint; only the pipeline knobs are the caller's, since
// they cannot change results.
func Resume(cp *bundle.Checkpoint, oracle core.Oracle, pipe Pipeline) (*Driver, error) {
	if reflect.DeepEqual(pipe.Meta, bundle.Meta{}) {
		pipe.Meta = cp.Meta
	}
	d, err := New(cp.Space, oracle, Config{ExploreConfig: cp.Config, Pipeline: pipe})
	if err != nil {
		return nil, err
	}
	if err := d.sel.RNG().Restore(cp.RNG); err != nil {
		return nil, fmt.Errorf("explore: resume: %w", err)
	}
	d.cpRNG = cp.RNG
	for i, idx := range cp.Indices {
		d.sel.Reserve(idx)
		d.indices = append(d.indices, idx)
		d.inputs = append(d.inputs, d.enc.EncodeIndex(idx, nil))
		d.targets = append(d.targets, cp.Targets[i])
		d.width = len(cp.Targets[i])
	}
	for _, q := range cp.Quarantine {
		d.sel.Reserve(q.Index)
	}
	d.quarantine = append(d.quarantine, cp.Quarantine...)
	d.steps = append(d.steps, cp.Steps...)
	d.ens = cp.Ensemble
	return d, nil
}

// ResumeFile is Resume over a checkpoint file written by a previous
// run's Pipeline.CheckpointPath.
func ResumeFile(path string, oracle core.Oracle, pipe Pipeline) (*Driver, error) {
	cp, err := bundle.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	return Resume(cp, oracle, pipe)
}

// Samples returns the design-point indices simulated so far.
func (d *Driver) Samples() []int { return append([]int(nil), d.indices...) }

// Steps returns the per-round history.
func (d *Driver) Steps() []core.Step { return append([]core.Step(nil), d.steps...) }

// Ensemble returns the most recently trained ensemble (nil before the
// first round).
func (d *Driver) Ensemble() *core.Ensemble { return d.ens }

// Encoder exposes the input encoding, so callers can encode evaluation
// points consistently.
func (d *Driver) Encoder() *encoding.Encoder { return d.enc }

// Space returns the design space the driver explores.
func (d *Driver) Space() *space.Space { return d.sp }

// Quarantined returns the points the oracle failed on, in failure
// order.
func (d *Driver) Quarantined() []bundle.QuarantinedPoint {
	return append([]bundle.QuarantinedPoint(nil), d.quarantine...)
}

// Checkpoint snapshots the driver at the current round boundary.
func (d *Driver) Checkpoint() *bundle.Checkpoint {
	meta := d.cfg.Meta
	meta.Samples = len(d.indices)
	return &bundle.Checkpoint{
		Space:      d.sp,
		Encoder:    d.enc,
		Config:     d.cfg.ExploreConfig,
		RNG:        d.cpRNG,
		Indices:    append([]int(nil), d.indices...),
		Targets:    append([][]float64(nil), d.targets...),
		Steps:      append([]core.Step(nil), d.steps...),
		Quarantine: append([]bundle.QuarantinedPoint(nil), d.quarantine...),
		Ensemble:   d.ens,
		Meta:       meta,
	}
}

// Run executes pipelined rounds of select→simulate→train until the
// error target is met, MaxSamples is reached, the drawable space is
// exhausted, or ctx is cancelled, returning the final ensemble. A
// cancelled run loses at most the in-flight round; everything up to the
// last completed round is in the checkpoint (when configured) and in
// the driver's own state.
func (d *Driver) Run(ctx context.Context) (*core.Ensemble, error) {
	// Derive a context that dies with this call, so a speculative
	// flight abandoned at an early stop (error target met, training
	// failure) stops simulating instead of burning cores behind the
	// caller's back.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var pending *flight
	for len(d.indices) < d.cfg.MaxSamples {
		// Checked at entry as well as after each round: a run resumed
		// from the checkpoint of a target-meeting final round must
		// finish immediately, not simulate one batch more than the
		// uninterrupted run did.
		if d.targetMet() {
			break
		}
		var batch []int
		var results []pointResult
		if pending != nil {
			batch, results = pending.batch, pending.await()
			pending = nil
		} else {
			var err error
			batch, err = d.nextBatch()
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				break // space (minus exclusions and quarantine) exhausted
			}
			results = d.launch(ctx, batch).await()
		}
		// A cancelled round is discarded whole: nothing recorded, no
		// quarantine from cancellation-induced failures.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		added := d.record(batch, results)
		if added == 0 {
			if d.sel.Remaining() == 0 {
				break // only quarantined points remained; no progress possible
			}
			continue // whole batch quarantined; draw a fresh one
		}
		training := d.trainAsync()
		// Speculative overlap: under random selection the next batch's
		// draws do not depend on the ensemble being trained, so its
		// simulations can run now. If this round turns out to be the
		// last, the speculative results are simply dropped — the
		// recorded run is identical to the sequential loop's.
		if d.speculative() && len(d.indices) < d.cfg.MaxSamples {
			// Random selection never errors, so the speculative draw
			// cannot either.
			if next, err := d.nextBatch(); err != nil {
				return nil, err
			} else if len(next) > 0 {
				pending = d.launch(ctx, next)
			}
		}
		res := <-training
		if res.err != nil {
			return nil, res.err
		}
		if err := d.finishRound(res); err != nil {
			return nil, err
		}
		if d.targetMet() {
			break
		}
	}
	if d.ens == nil {
		return nil, fmt.Errorf("explore: driver ran no rounds")
	}
	return d.ens, nil
}

// targetMet reports whether the current ensemble already satisfies the
// configured error target.
func (d *Driver) targetMet() bool {
	return d.ens != nil && d.cfg.TargetMeanErr > 0 && d.ens.Estimate().MeanErr <= d.cfg.TargetMeanErr
}

// Step runs one synchronous round growing the pool by up to n points —
// the incremental API the learning-curve experiments script against.
// Unlike Run it always trains, even when the batch came back smaller
// than asked (quarantine), so each call that adds points records
// exactly one round.
func (d *Driver) Step(ctx context.Context, n int) error {
	if n > 0 {
		batch, err := d.selectBatch(n)
		if err != nil {
			return err
		}
		added := 0
		if len(batch) > 0 {
			results := d.launch(ctx, batch).await()
			if err := ctx.Err(); err != nil {
				return err
			}
			added = d.record(batch, results)
		}
		// An empty or fully-quarantined batch leaves the pool
		// unchanged; the existing ensemble already models it, and
		// retraining would append a non-growing step that the
		// checkpoint loader rightly rejects.
		if added == 0 && d.ens != nil {
			return nil
		}
	}
	res := <-d.trainAsync()
	if res.err != nil {
		return res.err
	}
	return d.finishRound(res)
}

// nextBatch sizes the next batch by the remaining budget and selects
// it.
func (d *Driver) nextBatch() ([]int, error) {
	n := d.cfg.BatchSize
	if rem := d.cfg.MaxSamples - len(d.indices); n > rem {
		n = rem
	}
	return d.selectBatch(n)
}

// selectBatch draws up to n points per the configured strategy:
// acquisition once an ensemble exists (the first round is always
// random), else variance or random selection.
func (d *Driver) selectBatch(n int) ([]int, error) {
	if n <= 0 {
		return nil, nil
	}
	if d.acq != nil && d.ens != nil {
		return d.sel.Acquire(d.acq, d.ens, d.inputs, n, d.cfg.CandidatePool)
	}
	if d.cfg.Strategy == core.SelectVariance && d.ens != nil {
		return d.sel.ByVariance(d.ens, n, d.cfg.CandidatePool), nil
	}
	return d.sel.Random(n), nil
}

// speculative reports whether the driver may overlap training with the
// next round's simulations. Acquisition (like variance selection) needs
// the latest ensemble to choose the next batch, so it always runs the
// stages in lockstep.
func (d *Driver) speculative() bool {
	return !d.cfg.Sequential && d.cfg.Strategy == core.SelectRandom && d.acq == nil
}

// launch starts the fan-out evaluation of batch.
func (d *Driver) launch(ctx context.Context, batch []int) *flight {
	return launchEval(ctx, d.oracle, batch, resolveFanout(d.cfg.Workers), resolveAttempts(d.cfg.Retries))
}

// record folds a round's evaluation outcomes into the training pool:
// successes append in batch order, failures quarantine. It finishes by
// snapshotting the RNG — the state any checkpoint of this round must
// carry, taken before speculation draws for the next one.
func (d *Driver) record(batch []int, results []pointResult) int {
	added := 0
	for i, idx := range batch {
		r := results[i]
		if r.err == nil {
			// Cross-batch width drift is not caught by the per-point
			// check inside evalPoint, which has no width context.
			if err := core.CheckTarget(idx, r.target, d.width); err != nil {
				r.err = err
			}
		}
		d.sel.Reserve(idx)
		if r.err != nil {
			d.quarantine = append(d.quarantine, bundle.QuarantinedPoint{
				Index:    idx,
				Attempts: r.attempts,
				Error:    r.err.Error(),
			})
			continue
		}
		d.indices = append(d.indices, idx)
		d.inputs = append(d.inputs, d.enc.EncodeIndex(idx, nil))
		d.targets = append(d.targets, r.target)
		d.width = len(r.target)
		added++
	}
	d.cpRNG = d.sel.RNG().State()
	return added
}

// trainResult carries one round's training outcome across the
// train/simulate overlap.
type trainResult struct {
	ens *core.Ensemble
	dur time.Duration
	err error
}

// trainAsync trains an ensemble on everything recorded so far, off the
// orchestration goroutine. The snapshot slices are append-safe: record
// never runs while training does.
func (d *Driver) trainAsync() <-chan trainResult {
	n := len(d.indices)
	inputs := d.inputs[:n:n]
	targets := d.targets[:n:n]
	cfg := d.cfg.RoundModel(n)
	done := make(chan trainResult, 1)
	go func() {
		start := time.Now() //repolint:allow determinism -- Step.TrainTime is wall-clock training telemetry; it never feeds selection or weights
		ens, err := core.TrainEnsemble(inputs, targets, cfg)
		done <- trainResult{ens: ens, dur: time.Since(start), err: err} //repolint:allow determinism -- wall-clock training telemetry; excluded from bit-identity comparisons
	}()
	return done
}

// finishRound installs a completed round: ensemble, step record,
// observer, checkpoint.
func (d *Driver) finishRound(res trainResult) error {
	d.ens = res.ens
	step := core.Step{
		Samples:   len(d.indices),
		Fraction:  float64(len(d.indices)) / float64(d.sp.Size()),
		Est:       res.ens.Estimate(),
		TrainTime: res.dur,
	}
	d.steps = append(d.steps, step)
	if d.cfg.OnStep != nil {
		d.cfg.OnStep(step)
	}
	if d.cfg.CheckpointPath != "" {
		if err := d.Checkpoint().WriteFile(d.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	return nil
}
