package explore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
)

// synthSpace is a small analytic design space mirroring the core
// package's test space: 120 points over four axes.
func synthSpace() *space.Space {
	return space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

// synthTarget is a smooth positive function of a design point, standing
// in for simulated IPC.
func synthTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	a := sp.Value(c, 0)
	b := sp.Value(c, 1)
	f := sp.Value(c, 2)
	v := 0.4 + 0.3*math.Log2(a) + 0.1*b*f
	if sp.LevelName(c, 3) == "y" {
		v *= 1.25
	}
	return v
}

// synthOracle answers synthTarget, optionally misbehaving per point
// through fail, and counting evaluations (thread-safe: the driver fans
// it out).
type synthOracle struct {
	sp   *space.Space
	fail func(idx, attempt int) error // nil = always succeed

	mu       sync.Mutex
	calls    int
	attempts map[int]int
}

func (o *synthOracle) Evaluate(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	for i, idx := range indices {
		o.mu.Lock()
		o.calls++
		if o.attempts == nil {
			o.attempts = make(map[int]int)
		}
		o.attempts[idx]++
		attempt := o.attempts[idx]
		o.mu.Unlock()
		if o.fail != nil {
			if err := o.fail(idx, attempt); err != nil {
				return nil, err
			}
		}
		out[i] = []float64{synthTarget(o.sp, idx)}
	}
	return out, nil
}

func (o *synthOracle) evaluations() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

func fastModel() core.ModelConfig {
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	return cfg
}

func exploreCfg(strategy core.Selection) core.ExploreConfig {
	return core.ExploreConfig{
		Model:      fastModel(),
		BatchSize:  15,
		MaxSamples: 30,
		Strategy:   strategy,
		Seed:       41,
	}
}

// ensembleBytes serializes an ensemble so runs can be compared
// bit-for-bit.
func ensembleBytes(t *testing.T, ens *core.Ensemble) []byte {
	t.Helper()
	if ens == nil {
		t.Fatal("no ensemble")
	}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runState captures everything two runs must agree on.
type runState struct {
	samples []int
	steps   []core.Step
	ens     []byte
}

func stripTimes(steps []core.Step) []core.Step {
	out := append([]core.Step(nil), steps...)
	for i := range out {
		out[i].TrainTime = 0 // wall clock is the one legitimately varying field
	}
	return out
}

// stateOf captures a finished driver's run.
func stateOf(t *testing.T, d *Driver) runState {
	t.Helper()
	return runState{samples: d.Samples(), steps: stripTimes(d.Steps()), ens: ensembleBytes(t, d.Ensemble())}
}

// synth and dual build the single- and two-metric test oracles.
func synth(sp *space.Space) core.Oracle { return &synthOracle{sp: sp} }
func dual(sp *space.Space) core.Oracle  { return &dualOracle{sp: sp} }

// sequentialReference is the §3.3 procedure written the naive way, the
// reference the driver's parity tests compare against: each round
// selects a batch through core.BatchSelector, blocks on one oracle call
// for the whole batch, then trains with core.TrainEnsemble — no
// fan-out, no speculation, no retries, no checkpoints.
func sequentialReference(t *testing.T, newOracle func(*space.Space) core.Oracle, cfg core.ExploreConfig) runState {
	t.Helper()
	sp := synthSpace()
	oracle := newOracle(sp)
	enc := encoding.NewEncoder(sp)
	sel := core.NewBatchSelector(sp, enc, cfg.SeedRNG())
	for _, idx := range cfg.Exclude {
		sel.Reserve(idx)
	}
	var acq core.Acquirer
	if cfg.Acquire != nil {
		var err error
		if acq, err = core.NewAcquirer(cfg.Acquire); err != nil {
			t.Fatal(err)
		}
	}
	var st runState
	var inputs, targets [][]float64
	var ens *core.Ensemble
	for len(st.samples) < cfg.MaxSamples {
		n := min(cfg.BatchSize, cfg.MaxSamples-len(st.samples))
		var batch []int
		var err error
		switch {
		case acq != nil && ens != nil:
			batch, err = sel.Acquire(acq, ens, inputs, n, cfg.CandidatePool)
		case cfg.Strategy == core.SelectVariance && ens != nil:
			batch = sel.ByVariance(ens, n, cfg.CandidatePool)
		default:
			batch = sel.Random(n)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		ys, err := oracle.Evaluate(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range batch {
			sel.Reserve(idx)
			st.samples = append(st.samples, idx)
			inputs = append(inputs, enc.EncodeIndex(idx, nil))
			targets = append(targets, ys[i])
		}
		if ens, err = core.TrainEnsemble(inputs, targets, cfg.RoundModel(len(st.samples))); err != nil {
			t.Fatal(err)
		}
		st.steps = append(st.steps, core.Step{
			Samples:  len(st.samples),
			Fraction: float64(len(st.samples)) / float64(sp.Size()),
			Est:      ens.Estimate(),
		})
		if cfg.TargetMeanErr > 0 && ens.Estimate().MeanErr <= cfg.TargetMeanErr {
			break
		}
	}
	st.ens = ensembleBytes(t, ens)
	return st
}

// runDriver runs a fresh driver over synthSpace to completion with a
// healthy oracle, which must leave nothing quarantined.
func runDriver(t *testing.T, newOracle func(*space.Space) core.Oracle, cfg core.ExploreConfig, pipe Pipeline) runState {
	t.Helper()
	sp := synthSpace()
	d, err := New(sp, newOracle(sp), Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("deterministic oracle produced quarantine: %v", q)
	}
	return stateOf(t, d)
}

func requireSameRun(t *testing.T, label string, got, want runState) {
	t.Helper()
	if len(got.samples) != len(want.samples) {
		t.Fatalf("%s: sampled %d points, want %d", label, len(got.samples), len(want.samples))
	}
	for i := range want.samples {
		if got.samples[i] != want.samples[i] {
			t.Fatalf("%s: sample order diverges at %d: got point %d, want %d",
				label, i, got.samples[i], want.samples[i])
		}
	}
	if len(got.steps) != len(want.steps) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got.steps), len(want.steps))
	}
	for i := range want.steps {
		if got.steps[i] != want.steps[i] {
			t.Fatalf("%s: round %d diverges: got %+v, want %+v", label, i, got.steps[i], want.steps[i])
		}
	}
	if !bytes.Equal(got.ens, want.ens) {
		t.Fatalf("%s: final ensemble weights differ", label)
	}
}

// parityPipelines are the pipeline settings every parity test runs:
// the sequential setting and workers {1, 4, 16}.
var parityPipelines = map[string]Pipeline{
	"sequential":          {Workers: -1, Sequential: true},
	"workers=1":           {Workers: -1},
	"workers=4":           {Workers: 4},
	"workers=16 no-retry": {Workers: 16, Retries: -1},
}

// TestDriverMatchesSequentialReference is the deterministic-parity
// guarantee: for every pipeline setting — one worker, many workers,
// speculation on or off — the driver reproduces the sequential
// reference loop's exact sample order, step history and ensemble
// weights. The pipeline may only change wall-clock time.
func TestDriverMatchesSequentialReference(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	want := sequentialReference(t, synth, cfg)
	for label, pipe := range parityPipelines {
		requireSameRun(t, label, runDriver(t, synth, cfg, pipe), want)
	}
}

func TestDriverMatchesReferenceUnderVarianceSelection(t *testing.T) {
	cfg := exploreCfg(core.SelectVariance)
	cfg.CandidatePool = 60
	want := sequentialReference(t, synth, cfg)
	for label, pipe := range parityPipelines {
		requireSameRun(t, label, runDriver(t, synth, cfg, pipe), want)
	}
}

func TestDriverStopsAtErrorTarget(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	cfg.TargetMeanErr = 1e9 // stop after the first round
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	d, err := New(sp, oracle, Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Samples()); got != cfg.BatchSize {
		t.Fatalf("driver recorded %d samples despite an immediately met target", got)
	}
	// Speculation may have simulated (at most) one extra batch; those
	// results are discarded, never recorded.
	if got, max := oracle.evaluations(), 2*cfg.BatchSize; got > max {
		t.Fatalf("oracle ran %d evaluations, speculation should bound it by %d", got, max)
	}
}

// TestDriverSequentialStopsAtErrorTarget pins the strict §3.3 stop:
// with speculation off, an immediately met target costs exactly one
// batch of simulations.
func TestDriverSequentialStopsAtErrorTarget(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	cfg.TargetMeanErr = 1e9 // stop after the first round
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: -1, Sequential: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Samples()); got != cfg.BatchSize {
		t.Fatalf("driver recorded %d samples despite an immediately met target", got)
	}
	if got := oracle.evaluations(); got != cfg.BatchSize {
		t.Fatalf("sequential run simulated %d points, want exactly one batch of %d", got, cfg.BatchSize)
	}
}

func TestDriverQuarantinesFailingPoints(t *testing.T) {
	sp := synthSpace()
	// Points divisible by 7 fail on every attempt.
	bad := func(idx int) bool { return idx%7 == 0 }
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if bad(idx) {
			return fmt.Errorf("synthetic hard failure")
		}
		return nil
	}}
	cfg := exploreCfg(core.SelectRandom)
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 4, Retries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatalf("per-point failures must not abort the run: %v", err)
	}
	if got := len(d.Samples()); got != cfg.MaxSamples {
		t.Fatalf("run finished with %d samples, want the full budget %d (fresh draws replace quarantined points)",
			got, cfg.MaxSamples)
	}
	for _, idx := range d.Samples() {
		if bad(idx) {
			t.Fatalf("failing point %d entered the training pool", idx)
		}
	}
	q := d.Quarantined()
	if len(q) == 0 {
		t.Fatal("no quarantine recorded despite failing points")
	}
	for _, p := range q {
		if !bad(p.Index) {
			t.Fatalf("healthy point %d quarantined: %s", p.Index, p.Error)
		}
		if p.Attempts != 3 {
			t.Fatalf("point %d quarantined after %d attempts, want 1+2 retries", p.Index, p.Attempts)
		}
		if want := fmt.Sprintf("design point %d", p.Index); !strings.Contains(p.Error, want) {
			t.Fatalf("quarantine error %q does not name %q", p.Error, want)
		}
	}
}

func TestDriverRetriesTransientFailures(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	want := sequentialReference(t, synth, cfg)
	sp := synthSpace()
	// Every point fails exactly once, then succeeds: one retry must
	// make the run indistinguishable from a healthy oracle's.
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if attempt == 1 {
			return fmt.Errorf("transient failure")
		}
		return nil
	}}
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 4, Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("transient failures quarantined despite retry budget: %v", q)
	}
	requireSameRun(t, "retried run", stateOf(t, d), want)
}

// malformedOracle answers synthTarget but breaks the oracle contract
// for the points bad selects: a short reply, an empty vector, a
// non-finite value, or a target width that disagrees with the rest of
// the run.
func malformedOracle(sp *space.Space, mode string, bad func(int) bool) core.Oracle {
	return core.OracleFunc(func(indices []int) ([][]float64, error) {
		out := make([][]float64, 0, len(indices))
		for _, idx := range indices {
			v := []float64{synthTarget(sp, idx)}
			if bad(idx) {
				switch mode {
				case "short":
					continue
				case "empty":
					v = nil
				case "nan":
					v = []float64{math.NaN()}
				case "inf":
					v = []float64{math.Inf(1)}
				case "width":
					v = []float64{1, 2}
				}
			}
			out = append(out, v)
		}
		return out, nil
	})
}

func TestDriverMalformedTargetsQuarantineNotAbort(t *testing.T) {
	sp := synthSpace()
	cfg := exploreCfg(core.SelectRandom)
	// Corrupt two points of the first batch, replayed from the same
	// selection stream. Its first point stays healthy: it establishes
	// the run's target width, so the width row means drift.
	batch := core.NewBatchSelector(sp, encoding.NewEncoder(sp), cfg.SeedRNG()).Random(cfg.BatchSize)
	bad := func(idx int) bool { return idx == batch[1] || idx == batch[len(batch)/2] }
	for _, mode := range []string{"nan", "inf", "empty", "width", "short"} {
		t.Run(mode, func(t *testing.T) {
			d, err := New(sp, malformedOracle(sp, mode, bad), Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(context.Background()); err != nil {
				t.Fatalf("malformed replies must not abort the run: %v", err)
			}
			q := d.Quarantined()
			if len(q) != 2 {
				t.Fatalf("%d points quarantined, want the 2 malformed ones: %v", len(q), q)
			}
			for _, p := range q {
				if !bad(p.Index) {
					t.Fatalf("healthy point %d quarantined: %s", p.Index, p.Error)
				}
				if want := fmt.Sprintf("design point %d", p.Index); !strings.Contains(p.Error, want) {
					t.Fatalf("quarantine error %q does not name %q", p.Error, want)
				}
			}
			for _, idx := range d.Samples() {
				if bad(idx) {
					t.Fatalf("malformed point %d entered the training pool", idx)
				}
			}
			if got := len(d.Samples()); got != cfg.MaxSamples {
				t.Fatalf("run finished with %d samples, want the full budget %d", got, cfg.MaxSamples)
			}
		})
	}
}

// TestDriverStepRejectsMalformedBatch makes every reply of a later
// step break the oracle contract: the step must quarantine the whole
// batch, naming each point, and record none of it.
func TestDriverStepRejectsMalformedBatch(t *testing.T) {
	sp := synthSpace()
	cfg := exploreCfg(core.SelectRandom)
	cfg.MaxSamples = sp.Size()
	for _, mode := range []string{"short", "empty", "nan", "inf", "width"} {
		t.Run(mode, func(t *testing.T) {
			var failAll bool
			oracle := malformedOracle(sp, mode, func(int) bool { return failAll })
			d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1}})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := d.Step(ctx, 10); err != nil {
				t.Fatal(err)
			}
			failAll = true
			if err := d.Step(ctx, 10); err != nil {
				t.Fatalf("%s batch must be quarantined, not fail the step: %v", mode, err)
			}
			if got := len(d.Samples()); got != 10 {
				t.Fatalf("%d samples after a rejected batch, want the first step's 10", got)
			}
			q := d.Quarantined()
			if len(q) != 10 {
				t.Fatalf("%d points quarantined, want the whole 10-point batch", len(q))
			}
			for _, p := range q {
				if want := fmt.Sprintf("design point %d", p.Index); !strings.Contains(p.Error, want) {
					t.Fatalf("quarantine error %q does not name %q", p.Error, want)
				}
			}
		})
	}
}

func TestDriverRunsIncrementally(t *testing.T) {
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	cfg := exploreCfg(core.SelectRandom)
	cfg.BatchSize, cfg.MaxSamples = 20, 60
	d, err := New(sp, oracle, Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	steps := d.Steps()
	if len(steps) != 3 {
		t.Fatalf("%d rounds, want 3", len(steps))
	}
	for i, s := range steps {
		if s.Samples != (i+1)*cfg.BatchSize {
			t.Fatalf("round %d ended with %d samples, want %d", i, s.Samples, (i+1)*cfg.BatchSize)
		}
	}
	if got := oracle.evaluations(); got != len(d.Samples()) {
		t.Fatalf("oracle evaluated %d points for %d samples", got, len(d.Samples()))
	}
	seen := map[int]bool{}
	for _, idx := range d.Samples() {
		if seen[idx] {
			t.Fatalf("point %d sampled twice", idx)
		}
		seen[idx] = true
	}
}

func TestDriverRespectsExclusions(t *testing.T) {
	sp := synthSpace()
	cfg := exploreCfg(core.SelectRandom)
	cfg.BatchSize, cfg.MaxSamples = 30, 90
	cfg.Exclude = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	d, err := New(sp, synth(sp), Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Samples()); got != cfg.MaxSamples {
		t.Fatalf("sampled %d points, want the full budget %d", got, cfg.MaxSamples)
	}
	for _, idx := range d.Samples() {
		if idx < 10 {
			t.Fatalf("excluded point %d was sampled", idx)
		}
	}
}

// TestDriverVarianceSelectionNearExhaustion drives SelectVariance into
// the regime where the drawable complement (space minus simulated minus
// Exclude-reserved points) is smaller than a batch: the driver must
// neither hang in the candidate draw nor panic in the top-n selection,
// must drain every drawable point, and must never sample an excluded
// one.
func TestDriverVarianceSelectionNearExhaustion(t *testing.T) {
	sp := synthSpace()
	var exclude []int
	for i := 0; i < sp.Size(); i += 3 {
		exclude = append(exclude, i)
	}
	cfg := exploreCfg(core.SelectVariance)
	cfg.BatchSize = 25
	cfg.MaxSamples = sp.Size() // more than is drawable
	cfg.Exclude = exclude
	d, err := New(sp, synth(sp), Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, drawable := len(d.Samples()), sp.Size()-len(exclude); got != drawable {
		t.Fatalf("sampled %d points, want the full drawable complement %d", got, drawable)
	}
	for _, idx := range d.Samples() {
		if idx%3 == 0 {
			t.Fatalf("excluded point %d was sampled", idx)
		}
	}
}

func TestDriverStepBeyondSpaceIsBounded(t *testing.T) {
	sp := synthSpace()
	cfg := exploreCfg(core.SelectRandom)
	cfg.BatchSize, cfg.MaxSamples = sp.Size(), sp.Size()
	d, err := New(sp, synth(sp), Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Step(context.Background(), sp.Size()+50); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Samples()); got != sp.Size() {
		t.Fatalf("grew to %d of %d points", got, sp.Size())
	}
}

func TestDriverAcceptsConsistentMultiTargetWidths(t *testing.T) {
	sp := synthSpace()
	d, err := New(sp, dual(sp), Config{ExploreConfig: exploreCfg(core.SelectRandom)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("consistent two-metric replies quarantined: %v", q)
	}
	if got := d.Ensemble().Outputs(); got != 2 {
		t.Fatalf("multi-target run produced %d outputs, want 2", got)
	}
}

func TestDriverCancellation(t *testing.T) {
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the oracle, mid-way through the second round.
	oracle := &synthOracle{sp: sp}
	counting := core.OracleFunc(func(indices []int) ([][]float64, error) {
		if oracle.evaluations() >= 20 {
			cancel()
		}
		return oracle.Evaluate(indices)
	})
	cfg := exploreCfg(core.SelectRandom)
	d, err := New(sp, counting, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	// The interrupted round is discarded whole: state sits at a round
	// boundary, and cancellation never masquerades as quarantine.
	if got := len(d.Samples()); got != 0 && got != cfg.BatchSize {
		t.Fatalf("cancelled run holds %d samples, not a round boundary", got)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("cancellation produced quarantine entries: %v", q)
	}
}

func TestDriverValidatesConfig(t *testing.T) {
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	if _, err := New(sp, oracle, Config{ExploreConfig: core.ExploreConfig{Model: fastModel(), BatchSize: 0, MaxSamples: 10}}); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := New(sp, nil, Config{ExploreConfig: exploreCfg(core.SelectRandom)}); err == nil {
		t.Fatal("nil oracle accepted")
	}
	bad := exploreCfg(core.SelectRandom)
	bad.Exclude = []int{sp.Size()}
	if _, err := New(sp, oracle, Config{ExploreConfig: bad}); err == nil {
		t.Fatal("out-of-range exclusion accepted")
	}
}
