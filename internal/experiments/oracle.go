// Package experiments implements the paper's evaluation (Chapter 5):
// simulation-backed oracles, learning curves (Fig. 5.1), error-estimate
// fidelity (Figs. 5.2/5.3), the accuracy summary (Table 5.1), the
// ANN+SimPoint combination (Figs. 5.4–5.7), training-time measurements
// (Fig. 5.8), and the cross-application and active-learning extensions
// of Chapter 7. Each experiment returns plain row/series data; the
// cmd/repro tool renders them in the paper's format.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/studies"
	"repro/internal/workload"
)

// Metrics selects which simulator statistics an oracle reports as
// network targets.
type Metrics uint8

// Target sets.
const (
	// IPCOnly reports IPC, the paper's primary studies.
	IPCOnly Metrics = iota
	// MultiTask reports IPC plus L2 miss rate and branch mispredict
	// rate, for the Chapter 7 multi-task-learning extension.
	MultiTask
)

// SimOracle evaluates design points by running the cycle-level
// simulator on a fixed application trace. It parallelizes batches
// across GOMAXPROCS workers, memoizes results per design point (the
// simulator is deterministic, so the cache changes wall-clock time
// only), and counts the simulations it actually performs. The cache
// belongs to the oracle and is dropped with it.
type SimOracle struct {
	Study    *studies.Study
	App      string
	TraceLen int
	Metrics  Metrics

	cache sync.Map // design-point index -> sim.Result
	mu    sync.Mutex
	sims  int // simulations actually executed (not served from cache)
}

// NewSimOracle builds an oracle for one (study, application) pair.
func NewSimOracle(study *studies.Study, app string, traceLen int, metrics Metrics) *SimOracle {
	return &SimOracle{Study: study, App: app, TraceLen: traceLen, Metrics: metrics}
}

// SimulationsRun returns how many detailed simulations this oracle has
// executed (cache hits excluded).
func (o *SimOracle) SimulationsRun() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sims
}

// Result returns the full simulation result for one design point,
// through the cache.
func (o *SimOracle) Result(index int) (sim.Result, error) {
	if v, ok := o.cache.Load(index); ok {
		return v.(sim.Result), nil
	}
	cfg := o.Study.Config(index)
	tr := workload.Get(o.App, o.TraceLen)
	r, err := sim.Run(cfg, tr)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %s/%s point %d: %w", o.Study.Name, o.App, index, err)
	}
	o.cache.Store(index, r)
	o.mu.Lock()
	o.sims++
	o.mu.Unlock()
	return r, nil
}

// targets converts a simulation result into the configured target
// vector.
func (o *SimOracle) targets(r sim.Result) []float64 {
	if o.Metrics == MultiTask {
		return []float64{r.IPC, r.L2MissRate, r.BrMispredRate}
	}
	return []float64{r.IPC}
}

// Evaluate implements core.Oracle, fanning the batch across workers.
func (o *SimOracle) Evaluate(indices []int) ([][]float64, error) {
	results, err := o.Results(indices)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(indices))
	for i, r := range results {
		out[i] = o.targets(r)
	}
	return out, nil
}

// Results returns full simulation results for a batch, in order,
// simulating cache misses in parallel.
func (o *SimOracle) Results(indices []int) ([]sim.Result, error) {
	out := make([]sim.Result, len(indices))
	errs := make([]error, len(indices))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers())
	for i, idx := range indices {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = o.Result(idx)
		}(i, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// IPCs is a convenience wrapper returning just the primary metric for a
// batch.
func (o *SimOracle) IPCs(indices []int) ([]float64, error) {
	rs, err := o.Results(indices)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.IPC
	}
	return out, nil
}

// SimPointOracle evaluates design points with SimPoint-estimated IPC:
// it simulates only the representative intervals SimPoint chose for the
// application and combines them with the cluster weights (§5.3). Its
// estimates are noisy relative to full simulation — which is exactly
// the property the ANN+SimPoint experiments study. The noisy estimates
// are memoized per oracle, like SimOracle's full results.
type SimPointOracle struct {
	Study *studies.Study
	App   string

	TraceLen int
	Plan     *simpoint.Plan

	cache sync.Map // design-point index -> float64 IPC estimate
	mu    sync.Mutex
	sims  int
}

// NewSimPointOracle runs SimPoint's offline phase (BBV profiling,
// projection, clustering, representative selection) for the application
// and returns an oracle that estimates IPC from the chosen intervals.
func NewSimPointOracle(study *studies.Study, app string, traceLen int, spCfg simpoint.Config) (*SimPointOracle, error) {
	tr := workload.Get(app, traceLen)
	plan, err := simpoint.BuildPlan(tr, spCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: simpoint plan for %s: %w", app, err)
	}
	return &SimPointOracle{Study: study, App: app, TraceLen: traceLen, Plan: plan}, nil
}

// SimulationsRun returns how many design points this oracle has
// evaluated (each costing only the representative intervals).
func (o *SimPointOracle) SimulationsRun() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sims
}

// Estimate returns the SimPoint IPC estimate for one design point.
func (o *SimPointOracle) Estimate(index int) (float64, error) {
	if v, ok := o.cache.Load(index); ok {
		return v.(float64), nil
	}
	cfg := o.Study.Config(index)
	tr := workload.Get(o.App, o.TraceLen)
	ipc, err := o.Plan.EstimateIPC(cfg, tr)
	if err != nil {
		return 0, fmt.Errorf("experiments: simpoint estimate %s/%s point %d: %w", o.Study.Name, o.App, index, err)
	}
	o.cache.Store(index, ipc)
	o.mu.Lock()
	o.sims++
	o.mu.Unlock()
	return ipc, nil
}

// Evaluate implements core.Oracle.
func (o *SimPointOracle) Evaluate(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	errs := make([]error, len(indices))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers())
	for i, idx := range indices {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ipc, err := o.Estimate(idx)
			out[i], errs[i] = []float64{ipc}, err
		}(i, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func workers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}
