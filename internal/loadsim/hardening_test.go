package loadsim

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// sheddingTarget is a stub node that 429s every Nth prediction request
// with a Retry-After header — the admission-control surface the
// harness must grade as "rejected", not as an error.
func sheddingTarget(t testing.TB, points int, shedEvery int64) (string, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"models":[{"name":"stub","points":` + strconv.Itoa(points) + `}]}`))
	})
	answer := func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if shedEvery > 0 && n%shedEvery == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"rate limit"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"prediction":1}`))
	}
	mux.HandleFunc("POST /v1/predict", answer)
	mux.HandleFunc("POST /v1/predict/batch", answer)
	mux.HandleFunc("POST /v1/variance", answer)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, &served
}

// TestRunner429CountsAsRejected drives a node that sheds every 4th
// request and checks the accounting split: shed load lands in
// Rejected/RejectRate and leaves the error rate at zero, the "rejected"
// SLO term gates on it, and ok+rejected still covers the whole offer.
func TestRunner429CountsAsRejected(t *testing.T) {
	target, served := sheddingTarget(t, 128, 4)
	dur := time.Hour
	res, err := Run(context.Background(), Config{
		Targets:   []string{target},
		Pattern:   mustPattern(t, "constant:rate=1", dur),
		Duration:  dur,
		Interval:  10 * time.Minute,
		Seed:      7,
		SkipStats: true, // the stub has no counters; rejection accounting is client-side
	})
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("stub served nothing")
	}
	s := res.Summary
	if s.Done+s.Errors+s.Rejected != s.Offered {
		t.Fatalf("accounting broken: %+v", s)
	}
	if s.Errors != 0 || s.ErrorRate != 0 {
		t.Fatalf("429s leaked into the error column: %+v", s)
	}
	if s.Rejected == 0 || res.Outcomes[OutcomeRejected] != s.Rejected {
		t.Fatalf("rejected column disagrees with outcomes: %+v vs %v", s, res.Outcomes)
	}
	if s.RejectRate < 0.20 || s.RejectRate > 0.30 {
		t.Fatalf("reject rate %g, want ≈0.25 (every 4th request shed)", s.RejectRate)
	}

	tight, err := ParseSLO("rejected<1%, error_rate<0.5%")
	if err != nil {
		t.Fatal(err)
	}
	if rep := tight.Evaluate(s); rep.Pass || len(rep.Violations) != 1 || rep.Violations[0].Metric != "rejected" {
		t.Fatalf("tight rejected SLO must fail exactly its own clause: %+v", rep)
	}
	loose, err := ParseSLO("rejected<50%, error_rate<0.5%")
	if err != nil {
		t.Fatal(err)
	}
	if rep := loose.Evaluate(s); !rep.Pass {
		t.Fatalf("loose rejected SLO failed: %+v", rep)
	}

	// The per-bucket rejected column carries the same total.
	var bucketRejected int
	for _, b := range res.Timeline.Buckets {
		bucketRejected += b.Rejected
	}
	if bucketRejected != s.Rejected {
		t.Fatalf("timeline rejected %d != summary %d", bucketRejected, s.Rejected)
	}
}

// newHardenedTarget spins up a real serve node with the prediction
// cache enabled, so harness runs exercise GET /metrics end to end.
func newHardenedTarget(t testing.TB, cacheEntries int) string {
	t.Helper()
	b := trainedBundle(t)
	reg := serve.NewRegistry()
	reg.EnableCache(cacheEntries)
	if _, err := reg.Add("synth", b, serve.CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts.URL
}

// TestRunnerScrapesMetricsForCacheHit soaks a real cache-enabled serve
// node under a zipf-skewed predict mix and checks that the summary's
// cache_hit metric — scraped from GET /metrics — sees
// the hot keys landing in the cache, and that the SLO gate the CI soak
// uses can ride on it.
func TestRunnerScrapesMetricsForCacheHit(t *testing.T) {
	target := newHardenedTarget(t, 256)
	mix, err := ParseMix("predict=100,zipf_s=1.2,zipf_n=8")
	if err != nil {
		t.Fatal(err)
	}
	dur := 30 * time.Minute
	res, err := Run(context.Background(), Config{
		Targets:  []string{target},
		Pattern:  mustPattern(t, "constant:rate=1", dur),
		Duration: dur,
		Interval: 5 * time.Minute,
		Mix:      mix,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Errors != 0 || s.Rejected != 0 {
		t.Fatalf("healthy node produced errors: %+v outcomes %v", s, res.Outcomes)
	}
	// 8 hot ranks against a 256-entry cache: after the first touch of
	// each rank everything is a hit, so the run-level rate is high.
	if s.CacheHit < 0.5 {
		t.Fatalf("cache hit rate %g, want >=0.5 under 8 hot keys", s.CacheHit)
	}
	slo, err := ParseSLO("cache_hit>=50%, error_rate<0.5%, rejected<0.5%, dropped<1")
	if err != nil {
		t.Fatal(err)
	}
	if rep := slo.Evaluate(s); !rep.Pass {
		t.Fatalf("hardened SLO failed against a healthy cached node: %+v", rep)
	}
	// The per-bucket cache columns got their deltas from /metrics.
	var lookups int64
	for _, b := range res.Timeline.Buckets {
		lookups += b.CacheLookups
	}
	if lookups == 0 {
		t.Fatal("no bucket saw cache lookups; /metrics scraping never happened")
	}
}

// TestMetricsTotalsFallback checks both sides of the counter-polling
// contract: against a /metrics-speaking node MetricsTotals reports
// every family, and a target without the endpoint yields zero totals,
// exactly as SkipStats does.
func TestMetricsTotalsFallback(t *testing.T) {
	target := newHardenedTarget(t, 64)
	c, err := NewClient([]string{target}, "synth", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical predicts: one miss, one hit.
	for i := 0; i < 2; i++ {
		if o, _ := c.Do(context.Background(), "synth", 0, ReqPredict, []int{3}); o != OutcomeOK {
			t.Fatalf("predict %d: outcome %v", i, o)
		}
	}
	totals := c.MetricsTotals(context.Background())
	if totals.CacheHits != 1 || totals.CacheMisses != 1 {
		t.Fatalf("cache counters %+v, want 1 hit / 1 miss", totals)
	}
	if totals.CoalReqs != 1 {
		t.Fatalf("coalescer answered %d requests, want 1 (the hit skipped it)", totals.CoalReqs)
	}

	stub, _ := stubTarget(t, 32, 0)
	sc, err := NewClient([]string{stub}, "stub", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.MetricsTotals(context.Background()); got != (ServerTotals{}) {
		t.Fatalf("a target without /metrics yielded totals %+v, want zero", got)
	}
}

// TestZipfScheduleShape pins the zipf mix contract: enabling zipf_s
// changes only the point draws — arrival times, kinds, and count are
// identical to the uniform schedule for the same seed — and the drawn
// points are genuinely skewed toward a few hot keys.
func TestZipfScheduleShape(t *testing.T) {
	const dur = 2 * time.Hour
	p := mustPattern(t, "constant:rate=2", dur)
	uniform := Mix{Predict: 1}
	zipf := Mix{Predict: 1, ZipfS: 1.2, ZipfN: 8}

	ua, _, err := CollectSchedule(42, p, nil, uniform, dur)
	if err != nil {
		t.Fatal(err)
	}
	za, _, err := CollectSchedule(42, p, nil, zipf, dur)
	if err != nil {
		t.Fatal(err)
	}
	if len(ua) != len(za) {
		t.Fatalf("zipf changed the arrival count: %d vs %d", len(ua), len(za))
	}
	diffDraws := 0
	for i := range ua {
		if ua[i].At != za[i].At || ua[i].Kind != za[i].Kind || ua[i].Index != za[i].Index {
			t.Fatalf("arrival %d changed shape under zipf: %+v vs %+v", i, ua[i], za[i])
		}
		if ua[i].PointDraw != za[i].PointDraw {
			diffDraws++
		}
	}
	if diffDraws == 0 {
		t.Fatal("zipf mix left every point draw uniform")
	}

	// Popularity: with 8 ranks at s=1.2 the hottest key should own a
	// large share of draws; uniform draws over the same space spread out.
	const space = 997 // prime, so scattering can't alias into few cells
	count := map[int]int{}
	for _, a := range za {
		count[int(a.PointDraw%space)]++
	}
	top := 0
	for _, n := range count {
		if n > top {
			top = n
		}
	}
	if share := float64(top) / float64(len(za)); share < 0.2 {
		t.Fatalf("hottest zipf key owns %.3f of draws, want >=0.2 (s=1.2, 8 ranks)", share)
	}
	if len(count) > zipf.ZipfN {
		t.Fatalf("zipf draws hit %d distinct points, want <= %d ranks", len(count), zipf.ZipfN)
	}

	// Same seed, zipf on: byte-identical schedules run to run.
	za2, _, err := CollectSchedule(42, p, nil, zipf, dur)
	if err != nil {
		t.Fatal(err)
	}
	for i := range za {
		if za[i] != za2[i] {
			t.Fatalf("zipf schedule not deterministic at arrival %d", i)
		}
	}
}

// TestParseMixZipf covers the new mix keys.
func TestParseMixZipf(t *testing.T) {
	m, err := ParseMix("predict=100,zipf_s=1.1,zipf_n=64")
	if err != nil {
		t.Fatal(err)
	}
	if m.ZipfS != 1.1 || m.ZipfN != 64 {
		t.Fatalf("parsed %+v, want zipf_s=1.1 zipf_n=64", m)
	}
	// zipf_s alone defaults the rank count.
	m, err = ParseMix("predict=100,zipf_s=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if m.ZipfN != 1024 {
		t.Fatalf("default zipf_n = %d, want 1024", m.ZipfN)
	}
	// Unset zipf stays off.
	m, err = ParseMix("predict=100")
	if err != nil {
		t.Fatal(err)
	}
	if m.ZipfS != 0 || m.ZipfN != 0 {
		t.Fatalf("uniform mix carries zipf state: %+v", m)
	}
	for _, bad := range []string{
		"predict=100,zipf_n=64",           // ranks without an exponent
		"predict=100,zipf_s=1,zipf_n=1.5", // fractional ranks
		"predict=100,zipf_s=-1",           // negative exponent
		"predict=100,zipf_s=1,zipf_n=0",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted invalid zipf spec", bad)
		}
	}
}
