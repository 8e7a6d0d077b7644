package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and returns the body plus a flat map of
// sample line → value for exact-line assertions.
func scrape(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return string(raw), samples
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newCachedServer(t, 128, CoalesceOpts{})
	// Traffic: two identical predicts (miss then hit) and one bad
	// request for the 4xx class.
	postJSON(t, ts.URL+"/v1/predict", `{"model":"synth","point":5}`)
	postJSON(t, ts.URL+"/v1/predict", `{"model":"synth","point":5}`)
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body, samples := scrape(t, ts.URL)
	for line, want := range map[string]float64{
		`repro_cache_hits_total`:                          1,
		`repro_cache_misses_total`:                        1,
		`repro_cache_entries`:                             1,
		`repro_cache_capacity`:                            128,
		`repro_http_requests_total{class="4xx"}`:          1,
		`repro_model_requests_total{model="synth"}`:       1, // the hit never reached the coalescer
		`repro_ratelimit_rejections_total{reason="rate"}`: 0,
	} {
		if got, ok := samples[line]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", line, got, ok, want)
		}
	}
	// Histograms expose cumulative buckets, sum and count.
	for _, family := range []string{
		`repro_http_request_duration_seconds_bucket{le="+Inf"}`,
		"repro_http_request_duration_seconds_sum",
		"repro_http_request_duration_seconds_count",
		`repro_coalesce_batch_size_bucket{model="synth",le="+Inf"}`,
		`repro_coalesce_batch_size_sum{model="synth"}`,
	} {
		if _, ok := samples[family]; !ok {
			t.Errorf("missing %s in:\n%s", family, body)
		}
	}
	if samples[`repro_http_request_duration_seconds_bucket{le="+Inf"}`] < 3 {
		t.Error("latency histogram missed requests")
	}
}

// TestMetricsCountsTraffic drives a few requests through an uncached
// server and checks the counter deltas a load harness polls from
// /metrics: total requests, error classes and the per-model coalescer
// tallies.
func TestMetricsCountsTraffic(t *testing.T) {
	ts, _, _ := newTestServer(t, CoalesceOpts{})
	total := func(s map[string]float64) float64 {
		return s[`repro_http_requests_total{class="ok"}`] + s[`repro_http_requests_total{class="4xx"}`] +
			s[`repro_http_requests_total{class="5xx"}`]
	}
	_, before := scrape(t, ts.URL)

	// Three predictions and one client error.
	const predictions = 3
	for i := 0; i < predictions; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/predict", fmt.Sprintf(`{"model":"synth","point":%d}`, i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/predict", `{"model":"nope","point":0}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}

	_, after := scrape(t, ts.URL)
	// The second scrape counts itself: 3 predicts + 1 error + 1 scrape.
	if got := total(after) - total(before); got != predictions+2 {
		t.Fatalf("request delta %v, want %d", got, predictions+2)
	}
	if got := after[`repro_http_requests_total{class="4xx"}`] - before[`repro_http_requests_total{class="4xx"}`]; got != 1 {
		t.Fatalf("client error delta %v, want 1", got)
	}
	if after[`repro_http_requests_total{class="5xx"}`] != before[`repro_http_requests_total{class="5xx"}`] {
		t.Fatal("server errors moved")
	}
	reqs := after[`repro_model_requests_total{model="synth"}`]
	flushes := after[`repro_model_flushes_total{model="synth"}`]
	if reqs < predictions || flushes == 0 || flushes > reqs {
		t.Fatalf("coalescer counters implausible: %v requests, %v flushes", reqs, flushes)
	}
}

func TestMetricsDeterministicOrder(t *testing.T) {
	ts, _, _ := newTestServer(t, CoalesceOpts{})
	a, _ := scrape(t, ts.URL)
	b, _ := scrape(t, ts.URL)
	// The only drift between two idle scrapes is the scrape traffic
	// itself (request counters and latency observations); family and
	// label ordering must be byte-stable. Compare structure: the
	// sequence of sample keys.
	keys := func(doc string) string {
		var sb strings.Builder
		for _, line := range strings.Split(doc, "\n") {
			if line == "" {
				continue
			}
			if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
				sb.WriteString(line[:i])
			} else {
				sb.WriteString(line)
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if keys(a) != keys(b) {
		t.Fatalf("scrape structure drifted between identical scrapes:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestLabelEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`back\slash`,
		`qu"ote`,
		"new\nline",
		`all "three" \ at
once`,
		"trailing backslash \\",
	}
	for _, s := range cases {
		esc := escapeLabel(s)
		if strings.ContainsAny(esc, "\n\"") {
			// Escaped values must be safe to embed between quotes.
			if strings.Contains(esc, "\n") || containsUnescapedQuote(esc) {
				t.Errorf("escapeLabel(%q) = %q still contains raw specials", s, esc)
			}
		}
		back, ok := unescapeLabel(esc)
		if !ok || back != s {
			t.Errorf("round trip broke: %q -> %q -> (%q, %v)", s, esc, back, ok)
		}
	}
	// Invalid escapes are rejected, not mangled.
	for _, bad := range []string{`\`, `\x`, "raw\nnewline", `raw"quote`} {
		if out, ok := unescapeLabel(bad); ok {
			t.Errorf("unescapeLabel(%q) accepted invalid input as %q", bad, out)
		}
	}
}

func containsUnescapedQuote(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return true
		}
	}
	return false
}
