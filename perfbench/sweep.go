package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	topK       = 10
	chunkSize  = sweep.DefaultChunkSize
	mergeParts = 8 // shards the merge-layer measurement splits the space into
	minPasses  = 3
)

// sweepSummary holds the sweep phase's measurements.
type sweepSummary struct {
	local, cluster []float64 // points/s per pass

	// traced runs only
	w1                                 []float64 // points/s per workers=1 pass
	enumerate, encode, forward, reduce float64   // s per full-space pass, workers=1
	merge                              float64   // s to merge mergeParts partials
	shards, requeues                   int       // per coordinated pass
	shardDurs                          []float64 // node-side s per shard request
	bytes                              float64   // wire bytes per coordinated pass
	size                               int       // points the stage timings covered
}

// modelNames names the workload's models m0, m1, ... in exploration
// order; the sweep ranks output 0 of each, maximized.
func modelNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%d", i)
	}
	return out
}

// sweepDoc renders a result with its two timing fields zeroed: the
// bytes every other sweep of the same models must reproduce.
func sweepDoc(r *sweep.Result) ([]byte, error) {
	c := *r
	c.Elapsed, c.PointsPerSec = 0, 0
	return json.Marshal(&c)
}

// runSweepPhase sweeps the whole space through the workload's models:
// local sweep.Run passes for half the budget, then the same sweep
// through a cluster.Coordinator against two in-process serve nodes for
// the other half. Every pass's document must equal the first, and the
// first must equal sweep.Reference's.
func runSweepPhase(ctx context.Context, sp *space.Space, enss []*core.Ensemble, budget time.Duration, tr *tracer) (*sweepSummary, error) {
	names := modelNames(len(enss))
	ms := make([]core.Metric, len(enss))
	for i, e := range enss {
		ms[i] = core.Metric{Name: names[i], Ens: e}
	}
	set, err := core.NewMetricSet(ms)
	if err != nil {
		return nil, err
	}
	ref, err := sweep.Reference(sp, set, topK)
	if err != nil {
		return nil, err
	}
	want, err := sweepDoc(ref)
	if err != nil {
		return nil, err
	}
	check := func(what string, r *sweep.Result) error {
		got, err := sweepDoc(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s result differs from sweep.Reference", what)
		}
		return nil
	}

	sum := &sweepSummary{}
	cfg := sweep.Config{TopK: topK, ChunkSize: chunkSize, Workers: runtime.GOMAXPROCS(0)}
	t0 := time.Now()
	for len(sum.local) < minPasses || time.Since(t0) < budget/2 {
		s := time.Now()
		r, err := sweep.Run(ctx, sp, set, cfg)
		e := time.Now()
		if err != nil {
			return nil, err
		}
		tr.add("sweep.Run", "sweep", s, e, -1, fmt.Sprintf("pass-%d", len(sum.local)))
		if err := check("sweep.Run", r); err != nil {
			return nil, err
		}
		sum.local = append(sum.local, float64(r.Points)/e.Sub(s).Seconds())
	}
	if tr != nil {
		if err := sum.stages(ctx, sp, set, enss, tr); err != nil {
			return nil, err
		}
	}

	nodes, err := startNodes(sp, enss, names, tr)
	if err != nil {
		return nil, err
	}
	defer nodes.stop()
	var requeues atomic.Int64
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	coord, err := cluster.New(cluster.Config{
		Nodes:    nodes.urls,
		Request:  serve.SweepRequest{Models: names, TopK: topK, Chunk: chunkSize},
		InFlight: 1,
		Client:   client,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "requeue") {
				requeues.Add(1)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for len(sum.cluster) < minPasses || time.Since(t0) < budget/2 {
		s := time.Now()
		nodes.parent.Store(int64(tr.open("cluster.Coordinator.Run", "cluster", s, -1, fmt.Sprintf("pass-%d", len(sum.cluster)))))
		r, err := coord.Run(ctx)
		e := time.Now()
		tr.close(int(nodes.parent.Load()), e)
		if err != nil {
			return nil, err
		}
		if err := check("cluster.Coordinator.Run", r); err != nil {
			return nil, err
		}
		sum.cluster = append(sum.cluster, float64(r.Points)/e.Sub(s).Seconds())
	}
	passes := float64(len(sum.cluster))
	sum.shards = int(nodes.shards.Load()) / len(sum.cluster)
	sum.requeues = int(requeues.Load())
	sum.bytes = float64(nodes.bytes.Load()) / passes
	sum.shardDurs = nodes.durations()
	return sum, nil
}

// stages times the engine's stages one at a time over the whole space,
// each through its public entry point, at workers=1: enumerate
// (space.ChunkAt), encode (encoding.EncodeRange minus the enumeration
// it rides on), forward (core.MetricSet.EvalKernel) and reduce
// (pareto.Frontier, which the engine's reducer offers every point to).
// It also times workers=1 sweep.Run passes, the denominator of the
// stage accounting and of the scaling ratio, and the ordered
// sweep.Partial.Merge of mergeParts shard partials.
func (s *sweepSummary) stages(ctx context.Context, sp *space.Space, set *core.MetricSet, enss []*core.Ensemble, tr *tracer) error {
	for _, e := range enss {
		e.SetWorkers(1)
	}
	defer func() {
		for _, e := range enss {
			e.SetWorkers(0)
		}
	}()
	cfg := sweep.Config{TopK: topK, ChunkSize: chunkSize, Workers: 1}
	for i := 0; i < minPasses; i++ {
		t0 := time.Now()
		r, err := sweep.Run(ctx, sp, set, cfg)
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.add("sweep.Run", "sweep", t0, t1, -1, fmt.Sprintf("workers1-%d", i))
		s.w1 = append(s.w1, float64(r.Points)/t1.Sub(t0).Seconds())
	}

	enc := encoding.NewEncoder(sp)
	size, width, nm := sp.Size(), enc.Width(), set.Len()
	s.size = size
	xs := make([]float64, chunkSize*width)
	cols := make([][]float64, nm)
	for m := range cols {
		cols[m] = make([]float64, chunkSize)
	}
	vals := make([]float64, nm)
	minimize := set.Minimize()
	front := pareto.NewFrontier(minimize)
	var sink int
	for lo := 0; lo < size; lo += chunkSize {
		rows := min(chunkSize, size-lo)
		t0 := time.Now()
		for _, ch := range sp.ChunkAt(lo, rows) {
			sink += ch[0]
		}
		t1 := time.Now()
		enc.EncodeRange(lo, rows, xs[:rows*width])
		t2 := time.Now()
		view := make([][]float64, nm)
		for m := range cols {
			view[m] = cols[m][:rows]
		}
		set.EvalKernel(xs[:rows*width], rows, view, ann.KernelExact)
		t3 := time.Now()
		part := pareto.NewFrontier(minimize)
		for r := 0; r < rows; r++ {
			for m := range vals {
				vals[m] = cols[m][r]
			}
			if err := part.Offer(lo+r, vals); err != nil {
				return err
			}
		}
		if err := front.Merge(part); err != nil {
			return err
		}
		t4 := time.Now()
		id := fmt.Sprintf("chunk-%d", lo/chunkSize)
		tr.add("space.ChunkAt", "space", t0, t1, -1, id)
		tr.add("encoding.EncodeRange", "encoding", t1, t2, -1, id)
		tr.add("core.MetricSet.EvalKernel", "core.forward", t2, t3, -1, id)
		tr.add("pareto.Frontier.Offer", "sweep.reduce", t3, t4, -1, id)
		s.enumerate += t1.Sub(t0).Seconds()
		s.encode += t2.Sub(t1).Seconds() - t1.Sub(t0).Seconds()
		s.forward += t3.Sub(t2).Seconds()
		s.reduce += t4.Sub(t3).Seconds()
	}
	if sink < 0 {
		return fmt.Errorf("unreachable")
	}

	parts := make([]*sweep.Partial, 0, mergeParts)
	step := (size/mergeParts + chunkSize - 1) / chunkSize * chunkSize
	for lo := 0; lo < size; lo += step {
		p, err := sweep.RunPartial(ctx, sp, set, sweep.Config{TopK: topK, ChunkSize: chunkSize, Workers: 1, Start: lo, End: min(lo+step, size)})
		if err != nil {
			return err
		}
		parts = append(parts, p)
	}
	t0 := time.Now()
	acc := parts[0]
	for _, p := range parts[1:] {
		if err := acc.Merge(p); err != nil {
			return err
		}
	}
	t1 := time.Now()
	tr.add("sweep.Partial.Merge", "sweep.merge", t0, t1, -1, "")
	s.merge = t1.Sub(t0).Seconds()
	return nil
}

// endToEnd reports each sweep's best pass. The host's interference
// only ever slows a pass, and on a shared machine it comes in bursts
// that can cover a third of a run, so the fastest pass is the steadier
// estimate of what the code can do.
func (s *sweepSummary) endToEnd(m metrics) {
	m.set("sweep_pts_per_s", "points/s", slices.Max(s.local))
	m.set("cluster_pts_per_s", "points/s", slices.Max(s.cluster))
}

func (s *sweepSummary) layers(m metrics) {
	w1 := median(s.w1)
	m.set("space.enumerate_s", "s", s.enumerate)
	m.set("encoding.encode_s", "s", s.encode)
	m.set("core.forward_s", "s", s.forward)
	m.set("sweep.reduce_s", "s", s.reduce)
	m.set("sweep.merge_s", "s", s.merge)
	// A full-space pass at workers=1 takes size/w1 seconds; the stages
	// measured one by one should account for nearly all of it.
	if w1 > 0 {
		m.set("sweep.stage_sum_frac", "ratio", (s.enumerate+s.encode+s.forward+s.reduce)*w1/float64(s.size))
		m.set("sweep.scale_wN", "ratio", median(s.local)/w1)
	}
	m.set("cluster.shards", "count", float64(s.shards))
	m.set("cluster.requeues", "count", float64(s.requeues))
	m.set("cluster.shard_p50_ms", "ms", 1e3*stats.Percentile(s.shardDurs, 50))
	m.set("cluster.shard_p99_ms", "ms", 1e3*stats.Percentile(s.shardDurs, 99))
	m.set("cluster.bytes", "bytes", s.bytes)
	m.set("cluster.overhead_frac", "ratio", 1-median(s.cluster)/median(s.local))
}

// nodeSet is a group of in-process serve nodes on loopback listeners.
type nodeSet struct {
	urls    []string
	servers []*http.Server
	regs    []*serve.Registry
	tr      *tracer
	parent  atomic.Int64 // span of the coordinated pass in flight
	shards  atomic.Int64
	bytes   atomic.Int64
	mu      sync.Mutex
	durs    []float64
	wg      sync.WaitGroup
}

// startNodes starts two serve nodes, each with every model registered.
// A middleware around each node's ServeHTTP counts shard requests and
// their bytes and times them from the node's side.
func startNodes(sp *space.Space, enss []*core.Ensemble, names []string, tr *tracer) (*nodeSet, error) {
	ns := &nodeSet{tr: tr}
	ns.parent.Store(-1)
	for n := 0; n < 2; n++ {
		reg := serve.NewRegistry()
		ns.regs = append(ns.regs, reg)
		for i, e := range enss {
			b, err := bundle.New(sp, e, bundle.Meta{Note: names[i]})
			if err != nil {
				ns.stop()
				return nil, err
			}
			if _, err := reg.Add(names[i], b, serve.CoalesceOpts{}); err != nil {
				ns.stop()
				return nil, err
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ns.stop()
			return nil, err
		}
		h := ns.middleware(serve.New(reg), fmt.Sprintf("node-%d", n))
		hs := &http.Server{Handler: h}
		ns.servers = append(ns.servers, hs)
		ns.urls = append(ns.urls, "http://"+ln.Addr().String())
		ns.wg.Add(1)
		go func() {
			defer ns.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on stop
		}()
	}
	return ns, nil
}

func (ns *nodeSet) middleware(h http.Handler, node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep/shard" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		t1 := time.Now()
		ns.shards.Add(1)
		ns.bytes.Add(int64(len(body)) + cw.n)
		ns.mu.Lock()
		ns.durs = append(ns.durs, t1.Sub(t0).Seconds())
		ns.mu.Unlock()
		ns.tr.add("serve.Server.ServeHTTP /v1/sweep/shard", "serve.shard", t0, t1, int(ns.parent.Load()), node)
	})
}

func (ns *nodeSet) durations() []float64 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return append([]float64(nil), ns.durs...)
}

func (ns *nodeSet) stop() {
	for _, hs := range ns.servers {
		_ = hs.Close() // in-process loopback servers; nothing to drain
	}
	ns.wg.Wait()
	for _, reg := range ns.regs {
		reg.Close()
	}
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}
