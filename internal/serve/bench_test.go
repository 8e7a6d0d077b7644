package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServePredict measures single-point predict throughput
// through the full HTTP handler, uncached vs cache-hot. The uncached
// path hands each request to an idle coalescer, which flushes it at
// once with a one-row kernel call; the cached path answers from the
// sharded exact cache without touching either. BENCH_serve.json pins
// the pair as same-run min_ratio_to gates (uncached >= 0.1x cached,
// cached >= 1.3x uncached) — machine-independent contracts, unlike the
// absolute baselines.
func BenchmarkServePredict(b *testing.B) {
	for _, tc := range []struct {
		name    string
		entries int
	}{
		{"path=uncached", 0},
		{"path=cached", 1 << 13},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bb := trainedBundle(b)
			reg := NewRegistry()
			if tc.entries > 0 {
				reg.EnableCache(tc.entries)
			}
			if _, err := reg.Add("synth", bb, CoalesceOpts{}); err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			srv := New(reg)
			body := []byte(`{"model":"synth","point":7}`)
			// One warmup request fills the cache, so the cached run
			// measures the steady-state hit path.
			warm := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			srv.ServeHTTP(httptest.NewRecorder(), warm)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("predict answered %d", rec.Code)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkLimiterReject measures the rejection fast path: a client
// with an exhausted bucket must be turned away in far less time than
// serving would take — overload degrades to cheap 429s, not queueing.
func BenchmarkLimiterReject(b *testing.B) {
	bb := trainedBundle(b)
	reg := NewRegistry()
	if _, err := reg.Add("synth", bb, CoalesceOpts{}); err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	srv := New(reg)
	srv.SetAdmission(1e-9, 1, 0) // one token, effectively never refilled
	body := []byte(`{"model":"synth","point":7}`)
	// Spend the single token.
	first := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	first.Header.Set("X-Client-ID", "bench")
	srv.ServeHTTP(httptest.NewRecorder(), first)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set("X-Client-ID", "bench")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			b.Fatalf("expected 429, got %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
