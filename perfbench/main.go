// Command perfbench is the repository's end-to-end benchmark. Every
// workload runs the paper's whole pipeline — explore a design space
// with explore.Driver, sweep the space through the trained models
// (locally and through a cluster.Coordinator), and serve one model
// over HTTP under an open-loop schedule — and checks every output.
// Workloads differ in the study, the acquisition, the models and in
// which stage carries the run. See README.md for the workloads, the
// metrics and the layer each metric belongs to.
//
//	go run . --workload explore --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1). A traced run also writes its spans
// under --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadSpec is one workload: the study, application and selection
// its explorations use. Both workloads run the same phases at the same
// sizes.
type workloadSpec struct {
	name    string
	study   string
	app     string
	acquire string // acquisition spec ("" = random batches, pipelined)
}

var workloads = []*workloadSpec{
	{name: "explore", study: "processor", app: "mesa"},
	{name: "explore-hvi", study: "memory", app: "mcf", acquire: "hvi:max=out0:min=out1"},
}

const (
	// setupReps is how many times a run builds its fixture; setup_s is
	// the median.
	setupReps = 3
	// explorations, each to budget simulations, make the exploration
	// phase; held is the size of the held-out set.
	explorations = 4
	budget       = 400
	held         = 500
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload: explore or explore-hvi")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of each of the time-boxed sweep and serve phases")
	traceOn := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for checkpoints and span files")
	flag.Parse()

	var spec *workloadSpec
	for _, w := range workloads {
		if w.name == *name {
			spec = w
		}
	}
	if spec == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", names())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stamp := map[string]any{
		"workload": spec.name, "seed": *seed, "seconds": *seconds, "trace": *traceOn,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(), "connections": runtime.NumCPU(),
	}
	stampJSON, _ := json.Marshal(stamp)
	fmt.Println("env", string(stampJSON))

	tr := newTracer(*traceOn == 1)
	res, err := run(context.Background(), spec, *seed, time.Duration(*seconds)*time.Second, tr, *out)
	if werr := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", *out, spec.name, *seed), stamp); err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// run executes one workload: set-up (setupReps times), the exploration
// phase, then the sweep and serve phases over the explored models.
func run(ctx context.Context, spec *workloadSpec, seed uint64, seconds time.Duration, tr *tracer, out string) (*result, error) {
	res := &result{Metrics: metrics{}}
	var (
		fx         *fixture
		setups     []float64
		traceFirst time.Duration
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		f, traceT, err := buildFixture(spec, seed)
		if err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			traceFirst = traceT
		}
		fx = f
	}

	logPhase("setup", setups[len(setups)-1])
	t0 := time.Now()
	ex, err := runExplorePhase(ctx, fx, spec, seed, tr, out)
	if err != nil {
		return res, err
	}
	logPhase("explore", time.Since(t0).Seconds())
	t0 = time.Now()
	res.Attempted += len(ex.runs)
	sp := fx.study.Space
	sw, err := runSweepPhase(ctx, sp, ex.ensembles(), seconds, tr)
	if err != nil {
		return res, err
	}
	res.Attempted += len(sw.local) + len(sw.cluster)
	logPhase("sweep", time.Since(t0).Seconds())
	t0 = time.Now()
	sv, err := runServePhase(sp, ex.runs[0].ens, seed, seconds, tr)
	if err != nil {
		return res, err
	}
	logPhase("serve", time.Since(t0).Seconds())
	sent, ok, rejected, failed, mismatch := sv.totals()
	if sent != ok+rejected+failed {
		return res, fmt.Errorf("serve accounting: sent %d != ok %d + rejected %d + failed %d", sent, ok, rejected, failed)
	}
	res.Attempted += sent
	res.Failed += rejected + failed

	m := res.Metrics
	if tr == nil {
		m.set("setup_s", "s", median(setups))
		ex.endToEnd(m)
		sw.endToEnd(m)
		sv.endToEnd(m)
	} else {
		m.set("workload.trace_s", "s", traceFirst.Seconds())
		ex.layers(m)
		sw.layers(m)
		sv.layers(m)
		self := tr.selfTimes()
		for _, layer := range tracedLayers {
			m.set(layer+".self_s", "s", self[layer])
		}
	}
	if mismatch > 0 {
		return res, fmt.Errorf("serve: %d responses disagreed with the direct ensemble call", mismatch)
	}
	res.Correct = true
	return res, nil
}

// logPhase reports a phase's wall time on standard error.
func logPhase(name string, s float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s phase %.2fs, peak RSS so far %.1f MiB\n", name, s, peakRSSMiB())
}

// tracedLayers are the span layers whose self time a traced run
// reports.
var tracedLayers = []string{
	"explore", "sim", "core.train", "core.select", "bundle",
	"sweep", "space", "encoding", "core.forward", "sweep.reduce", "sweep.merge",
	"cluster", "serve.shard", "serve",
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
