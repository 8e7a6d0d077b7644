package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/stats"
)

// The serve phase runs the README's hardened server configuration
// against an open-loop schedule: exponential inter-arrival times, 90%
// single-point predicts with zipf-distributed points, 10% batches of
// uniform points, spread over 64 client IDs.
const (
	cacheEntries = 8192
	admitRate    = 500 // per client, req/s
	admitBurst   = 200
	admitFlight  = 256
	clientIDs    = 64
	zipfS        = 1.1
	batchShare   = 0.10
	batchRows    = 64

	lowRate = 2000.0 // req/s, well under the knee
	// highRate sits near a quarter of max_rps (25–29k req/s on a 2-core
	// box) rather than half: at 12000 req/s the high rung's p99 spread
	// by 18–30% across seeds, at 6000 by 7–8%.
	highRate   = 6000.0 // req/s
	ladderStep = 1.25
	// ladderMax bounds the ladder near the admission budget (64 clients
	// at 500 req/s each): a 0.5 s rung up to it stays within each
	// client's refill plus burst, so no rung is shed by design.
	ladderMax  = 36000.0
	ladderRung = 500 * time.Millisecond
	p99Limit   = 5.0 // ms
	// A rung's percentiles are medians over windows of about 100ms, so
	// one stall of the host (tens of ms, seen even with the server idle)
	// moves one window, not the rung.
	window    = 100 * time.Millisecond
	missProbe = 200 // sequential never-requested points, traced runs only
	// warmupRequests fills the cache before the measured rungs.
	warmupRequests = 6000
	failedMs       = 1e6 // latency a failed or refused request counts as

	maxTracedRequests = 1 << 19 // handler timings a traced run keeps
)

// request is one scheduled call.
type request struct {
	due    time.Duration // from the rung's start
	batch  bool
	point  int   // single predicts
	points []int // batches
	body   []byte
	client string
}

// outcome is what the generator observed for one request.
type outcome struct {
	lat, lag, rtt time.Duration // from due to done, due to send, send to done
	status        int           // 0 = transport error
	ok            bool          // 200 with a verified body
}

// rung is one fixed-rate stretch of the schedule.
type rung struct {
	rate     float64
	reqs     []request
	out      []outcome
	seqBase  int
	sent     int
	okN      int
	rejected int
	failed   int
	mismatch int // 200s whose body disagreed with the direct ensemble call
}

// latencies returns the outcomes' latencies in ms, with failed and
// refused requests counted as missing any limit.
func latencies(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		xs[i] = float64(o.lat) / 1e6
		if !o.ok {
			xs[i] = failedMs
		}
	}
	return xs
}

// windowed returns the median over the rung's windows of the q-th
// latency percentile in each window; requests fall into windows by due
// time.
func (r *rung) windowed(q float64) float64 {
	var per []float64
	for lo := 0; lo < len(r.reqs); {
		w := r.reqs[lo].due / window
		hi := lo
		for hi < len(r.reqs) && r.reqs[hi].due/window == w {
			hi++
		}
		per = append(per, stats.Percentile(latencies(r.out[lo:hi]), q))
		lo = hi
	}
	return median(per)
}

// serveSummary holds the serve phase's measurements.
type serveSummary struct {
	low, high *rung
	ladder    []*rung
	maxRPS    float64
	conns     int     // connections the generator opened
	peakRSS   float64 // MiB, at the end of the fixed-rate rungs

	// traced runs only
	handler                    map[string][]float64 // route → handler seconds (low and high rungs)
	cacheHitFrac, rowsPerFlush float64
	missHandlerP50             float64 // s
	kernelRows1, kernelRows64  float64 // s per call
	rtt                        []float64
}

func (s *serveSummary) rungs() []*rung {
	return append([]*rung{s.low, s.high}, s.ladder...)
}

// totals sums the accounting over every measured rung.
func (s *serveSummary) totals() (sent, ok, rejected, failed, mismatch int) {
	for _, r := range s.rungs() {
		sent += r.sent
		ok += r.okN
		rejected += r.rejected
		failed += r.failed
		mismatch += r.mismatch
	}
	return
}

// loadServer is an in-process serve.Server on a loopback listener with
// the generator's clients.
type loadServer struct {
	url      string
	hs       *http.Server
	reg      *serve.Registry
	wg       sync.WaitGroup
	clients  []*http.Client
	handler  []atomic.Int64 // per request sequence number: handler ns
	routeMu  sync.Mutex
	byRoute  map[string][]float64
	tr       *tracer
	tracing  atomic.Bool
	conns    atomic.Int64 // connections the server accepted
	wantMean []float64    // direct ensemble calls, per design point
	wantVar  []float64
	wantB    []float64 // batch endpoint means
}

func (ls *loadServer) stop() {
	for _, c := range ls.clients {
		c.CloseIdleConnections()
	}
	_ = ls.hs.Close() // loopback server; the phase has drained its requests
	ls.wg.Wait()
	ls.reg.Close()
}

// runServePhase serves ens (the workload's first model) and drives it:
// a warm-up that fills the cache, then a low and a high fixed-rate rung
// of budget/4 each. Traced runs go on to find max_rps with a ladder.
func runServePhase(sp *space.Space, ens *core.Ensemble, seed uint64, budget time.Duration, tr *tracer) (*serveSummary, error) {
	ls, err := startLoadServer(sp, ens, tr)
	if err != nil {
		return nil, err
	}
	defer ls.stop()

	rng := stats.NewRNG(seed ^ 0x73657276) // "serv"
	size := sp.Size()
	weights := make([]float64, size)
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfS)
	}
	zipf := stats.NewAlias(weights)
	perm := rng.Perm(size) // zipf rank → design point
	gen := func(rate float64, d time.Duration) []request {
		var reqs []request
		t := 0.0
		for {
			t += -math.Log(1-rng.Float64()) / rate
			if t >= d.Seconds() {
				return reqs
			}
			q := request{due: time.Duration(t * 1e9), client: "c" + strconv.Itoa(rng.Intn(clientIDs))}
			if rng.Float64() < batchShare {
				q.batch = true
				q.points = make([]int, batchRows)
				for i := range q.points {
					q.points[i] = rng.Intn(size)
				}
				q.body, _ = json.Marshal(map[string]any{"model": "m0", "points": q.points})
			} else {
				q.point = perm[zipf.Draw(rng)]
				q.body = []byte(`{"model":"m0","point":` + strconv.Itoa(q.point) + `}`)
			}
			reqs = append(reqs, q)
		}
	}

	runtime.GC() // start from the live heap, not the earlier phases' garbage
	sum := &serveSummary{}
	seq := 0
	run := func(reqs []request, rate float64, traced bool) *rung {
		r := &rung{rate: rate, reqs: reqs, seqBase: seq}
		seq += len(r.reqs)
		ls.tracing.Store(traced && tr != nil)
		ls.drive(r)
		r.log()
		return r
	}
	// Warm-up, unmeasured: about warmupRequests requests of the same mix,
	// sent back to back, fill the cache the way the rungs will use it.
	warm := gen(highRate, time.Second*warmupRequests/time.Duration(highRate))
	for i := range warm {
		warm[i].due = 0
	}
	run(warm, 0, false)
	before, err := ls.scrape()
	if err != nil {
		return nil, err
	}
	sum.low = run(gen(lowRate, budget/4), lowRate, true)
	sum.high = run(gen(highRate, budget/4), highRate, true)
	// A traced run's ladder overloads the server on purpose; peak memory
	// is taken before it.
	sum.peakRSS = peakRSSMiB()
	after, err := ls.scrape()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		sum.ladderRun(run, gen)
	}

	sum.conns = int(ls.conns.Load())
	if sum.conns > len(ls.clients) {
		return nil, fmt.Errorf("the load generator opened %d connections, more than its %d", sum.conns, len(ls.clients))
	}
	if tr != nil {
		hits, misses := after["repro_cache_hits_total"]-before["repro_cache_hits_total"], after["repro_cache_misses_total"]-before["repro_cache_misses_total"]
		if hits+misses > 0 {
			sum.cacheHitFrac = hits / (hits + misses)
		}
		flushes := after[`repro_coalesce_batch_size_count{model="m0"}`] - before[`repro_coalesce_batch_size_count{model="m0"}`]
		if flushes > 0 {
			sum.rowsPerFlush = (after[`repro_coalesce_batch_size_sum{model="m0"}`] - before[`repro_coalesce_batch_size_sum{model="m0"}`]) / flushes
		}
		ls.routeMu.Lock()
		sum.handler = ls.byRoute
		ls.byRoute = map[string][]float64{}
		ls.routeMu.Unlock()
		for _, r := range []*rung{sum.low, sum.high} {
			for i, o := range r.out {
				if h := ls.handler[r.seqBase+i].Load(); h > 0 && o.ok {
					sum.rtt = append(sum.rtt, (o.rtt - time.Duration(h)).Seconds())
				}
			}
		}
		if err := sum.probe(ls, sp, ens, perm, seq); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// log reports the rung on standard error.
func (r *rung) log() {
	lat := latencies(r.out)
	var lag float64
	for _, o := range r.out {
		lag = math.Max(lag, float64(o.lag)/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: rung %6.0f req/s: %d sent, %d ok, %d rejected, %d failed; p50 %.3f ms, p99 %.3f ms (windowed %.3f), max lag %.3f ms\n",
		r.rate, r.sent, r.okN, r.rejected, r.failed, stats.Percentile(lat, 50), stats.Percentile(lat, 99), r.windowed(99), lag)
}

// ladderRun climbs a geometric ladder of fixed-length rungs above the
// high rate until two rungs in a row miss the p99 limit, so one rung
// hit by a stall of the host does not end it. maxRPS is the highest
// passing rate, interpolated toward the failing rung above it.
func (s *serveSummary) ladderRun(run func([]request, float64, bool) *rung, gen func(float64, time.Duration) []request) {
	switch {
	case passes(s.high):
		s.maxRPS = highRate
	case passes(s.low):
		s.maxRPS = lowRate
	}
	prev := s.high
	for rate, misses := highRate*ladderStep, 0; misses < 2 && rate <= ladderMax; rate *= ladderStep {
		r := run(gen(rate, ladderRung), rate, false)
		s.ladder = append(s.ladder, r)
		switch {
		case passes(r):
			misses = 0
			s.maxRPS = rate
		case passes(prev):
			misses++
			s.maxRPS = interpolate(prev, r)
		default:
			misses++
		}
		prev = r
	}
}

// passes reports whether a rung met the limit: windowed p99 within
// p99Limit with every request answered. Latency counts from the due
// time, so a growing backlog shows in the p99.
func passes(r *rung) bool {
	return r.okN == r.sent && len(r.out) > 0 && r.windowed(99) <= p99Limit
}

// interpolate places the p99 limit between a passing and a failing rung
// on a log-log line through their p99s.
func interpolate(pass, fail *rung) float64 {
	a, b := pass.windowed(99), fail.windowed(99)
	f := 0.0
	if b > a && a > 0 {
		f = (math.Log(p99Limit) - math.Log(a)) / (math.Log(b) - math.Log(a))
	}
	f = math.Max(0, math.Min(1, f))
	return pass.rate * math.Pow(fail.rate/pass.rate, f)
}

func startLoadServer(sp *space.Space, ens *core.Ensemble, tr *tracer) (*loadServer, error) {
	b, err := bundle.New(sp, ens, bundle.Meta{Note: "m0"})
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	reg.EnableCache(cacheEntries)
	if _, err := reg.Add("m0", b, serve.CoalesceOpts{}); err != nil {
		reg.Close()
		return nil, err
	}
	srv := serve.New(reg)
	srv.SetAdmission(admitRate, admitBurst, admitFlight)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	ls := &loadServer{url: "http://" + ln.Addr().String(), reg: reg, tr: tr, byRoute: map[string][]float64{}}
	var h http.Handler = srv
	if tr != nil {
		h = ls.middleware(srv)
	}
	ls.hs = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			ls.conns.Add(1)
		}
	}}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		ls.clients = append(ls.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	enc := encoding.NewEncoder(sp)
	xs := enc.EncodeRange(0, sp.Size(), nil)
	ls.wantMean, ls.wantVar = ens.PredictOutputVarianceBatchKernel(0, xs, sp.Size(), nil, nil, ann.KernelExact)
	ls.wantB = ens.PredictOutputBatchKernel(0, xs, sp.Size(), nil, ann.KernelExact)
	if tr != nil {
		ls.handler = make([]atomic.Int64, maxTracedRequests)
	}
	return ls, nil
}

// middleware times ServeHTTP per request from the server's side.
func (ls *loadServer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		seq, err := strconv.Atoi(r.Header.Get("X-Bench-Seq"))
		if err != nil || seq < 0 || seq >= len(ls.handler) {
			return
		}
		ls.handler[seq].Store(int64(t1.Sub(t0)))
		if !ls.tracing.Load() {
			return
		}
		route := strings.TrimPrefix(r.URL.Path, "/v1/")
		ls.routeMu.Lock()
		ls.byRoute[route] = append(ls.byRoute[route], t1.Sub(t0).Seconds())
		ls.routeMu.Unlock()
		ls.tr.add("serve.Server.ServeHTTP", "serve", t0, t1, -1, strconv.Itoa(seq))
	})
}

// drive sends the rung's schedule open loop and waits for every
// request. One pacer releases each request at its due time; one sender
// per connection takes released requests in order, so a busy
// connection delays later requests and the delay counts in their
// latency, which runs from the due time.
func (ls *loadServer) drive(r *rung) {
	r.out = make([]outcome, len(r.reqs))
	released := make(chan int, len(r.reqs)) // sized to the schedule: the pacer never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range ls.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				q := &r.reqs[i]
				r.out[i] = ls.send(c, q, start.Add(q.due), r.seqBase+i)
			}
		}()
	}
	for i := range r.reqs {
		sleepUntil(start.Add(r.reqs[i].due))
		released <- i
		runtime.Gosched() // let the woken sender run here before the pacer sleeps again
	}
	close(released)
	wg.Wait()
	r.sent = len(r.out)
	for _, o := range r.out {
		switch {
		case o.ok:
			r.okN++
		case o.status == http.StatusTooManyRequests:
			r.rejected++
		case o.status == http.StatusOK:
			r.mismatch++
			r.failed++
		default:
			r.failed++
		}
	}
}

// sleepUntil waits for t. Runtime timers on Linux wake about a
// millisecond late, which would swamp sub-millisecond latencies, so
// the last stretch is a nanosleep, requested short by the kernel's
// timer slack. Only the pacer calls it, so at most one thread sits in
// the syscall.
func sleepUntil(t time.Time) {
	const slack = 55 * time.Microsecond
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(t)
	}
	if d > slack {
		ts := syscall.NsecToTimespec(int64(d - slack))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by < slack
	}
}

func (ls *loadServer) send(c *http.Client, q *request, due time.Time, seq int) outcome {
	path := "/v1/predict"
	if q.batch {
		path = "/v1/predict/batch"
	}
	req, err := http.NewRequest(http.MethodPost, ls.url+path, bytes.NewReader(q.body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", q.client)
	req.Header.Set("X-Bench-Seq", strconv.Itoa(seq))
	sent := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return outcome{lat: time.Since(due), lag: sent.Sub(due)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	o := outcome{lat: done.Sub(due), lag: sent.Sub(due), rtt: done.Sub(sent), status: resp.StatusCode}
	if err == nil && resp.StatusCode == http.StatusOK {
		o.ok = ls.verify(q, body)
	}
	return o
}

// verify checks a 200 body against the direct ensemble call, bit for
// bit (encoding/json round-trips float64 exactly).
func (ls *loadServer) verify(q *request, body []byte) bool {
	if q.batch {
		var v struct {
			Points      []int     `json:"points"`
			Predictions []float64 `json:"predictions"`
		}
		if json.Unmarshal(body, &v) != nil || len(v.Predictions) != len(q.points) {
			return false
		}
		for i, p := range q.points {
			if v.Points[i] != p || math.Float64bits(v.Predictions[i]) != math.Float64bits(ls.wantB[p]) {
				return false
			}
		}
		return true
	}
	var v struct {
		Point      int     `json:"point"`
		Prediction float64 `json:"prediction"`
		Variance   float64 `json:"variance"`
	}
	return json.Unmarshal(body, &v) == nil && v.Point == q.point &&
		math.Float64bits(v.Prediction) == math.Float64bits(ls.wantMean[q.point]) &&
		math.Float64bits(v.Variance) == math.Float64bits(ls.wantVar[q.point])
}

// scrape reads the server's GET /metrics into sample → value.
func (ls *loadServer) scrape() (map[string]float64, error) {
	resp, err := ls.clients[0].Get(ls.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// probe measures the kernel directly and the miss path through the
// server: sequential single predicts of points the schedule never
// requested, so each one is a cache miss and a coalescer flush of one.
func (s *serveSummary) probe(ls *loadServer, sp *space.Space, ens *core.Ensemble, perm []int, seq int) error {
	enc := encoding.NewEncoder(sp)
	x := enc.EncodeIndex(0, nil)
	xs := enc.EncodeRange(0, batchRows, nil)
	s.kernelRows1 = perCall(func() { ens.PredictOutputVarianceBatchKernel(0, x, 1, nil, nil, ann.KernelExact) })
	s.kernelRows64 = perCall(func() { ens.PredictOutputBatchKernel(0, xs, batchRows, nil, ann.KernelExact) })

	// The zipf schedule draws low ranks; the highest ranks of the
	// permutation are, with overwhelming probability, never requested.
	r := &rung{seqBase: seq}
	for i := 0; i < missProbe; i++ {
		p := perm[len(perm)-1-i]
		r.reqs = append(r.reqs, request{point: p, client: "probe", body: []byte(`{"model":"m0","point":` + strconv.Itoa(p) + `}`)})
	}
	r.out = make([]outcome, len(r.reqs))
	ls.tracing.Store(false)
	var hs []float64
	for i := range r.reqs {
		r.out[i] = ls.send(ls.clients[0], &r.reqs[i], time.Now(), seq+i)
		if !r.out[i].ok {
			return fmt.Errorf("miss probe request %d failed (status %d)", i, r.out[i].status)
		}
		hs = append(hs, float64(ls.handler[seq+i].Load())/1e9)
	}
	s.missHandlerP50 = stats.Percentile(hs, 50)
	return nil
}

// perCall returns the median seconds per call of fn over ~50ms.
func perCall(fn func()) float64 {
	var xs []float64
	end := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(end) || len(xs) < 10 {
		t0 := time.Now()
		fn()
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}

func (s *serveSummary) endToEnd(m metrics) {
	m.set("p99_ms.low", "ms", s.low.windowed(99))
	m.set("peak_rss_mb", "MiB", s.peakRSS)
}

func (s *serveSummary) layers(m metrics) {
	sent, ok, rejected, failed, _ := s.totals()
	m.set("serve.p50_ms.low", "ms", s.low.windowed(50))
	m.set("serve.p50_ms.high", "ms", s.high.windowed(50))
	m.set("serve.p99_ms.high", "ms", s.high.windowed(99))
	m.set("serve.max_rps", "req/s", s.maxRPS)
	m.set("serve.sent", "count", float64(sent))
	m.set("serve.ok", "count", float64(ok))
	m.set("serve.rejected", "count", float64(rejected))
	m.set("serve.failed", "count", float64(failed))
	m.set("serve.connections", "count", float64(s.conns))
	m.set("serve.handler_p50_us.predict", "us", 1e6*stats.Percentile(s.handler["predict"], 50))
	m.set("serve.handler_p99_us.predict", "us", 1e6*stats.Percentile(s.handler["predict"], 99))
	m.set("serve.handler_p50_us.batch", "us", 1e6*stats.Percentile(s.handler["predict/batch"], 50))
	m.set("serve.cache_hit_frac", "ratio", s.cacheHitFrac)
	m.set("serve.coalesce_rows_per_flush", "rows", s.rowsPerFlush)
	m.set("serve.coalesce_wait_us", "us", 1e6*(s.missHandlerP50-s.kernelRows1))
	m.set("core.kernel_us.rows1", "us", 1e6*s.kernelRows1)
	m.set("core.kernel_us.rows64", "us", 1e6*s.kernelRows64)
	var lags []float64
	for _, r := range []*rung{s.low, s.high} {
		for _, o := range r.out {
			lags = append(lags, float64(o.lag)/1e6)
		}
	}
	m.set("serve.gen_lag_p99_ms", "ms", stats.Percentile(lags, 99))
	m.set("serve.client_rtt_us", "us", 1e6*stats.Percentile(s.rtt, 50))
}
