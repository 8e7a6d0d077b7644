package loadsim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Timeline aggregates a run into buckets of simulated time. Columns
// come in two flavors, and keeping them apart is what makes the harness
// testable:
//
//   - *Deterministic* columns (bucket start, offered arrivals, event
//     markers) are derived from the schedule alone. Two runs with the
//     same seed/pattern/events emit them byte-identically regardless of
//     clock mode, time scale, or worker count.
//   - *Wall* columns (completions, errors, latency percentiles,
//     achieved throughput, coalescing efficiency) measure the system
//     under test and vary run to run.
//
// DeterministicColumns names the first flavor so tests (and humans) can
// strip the rest and diff.
type Timeline struct {
	Interval time.Duration
	Buckets  []*Bucket
}

// DeterministicColumns are the schedule-derived CSV columns, in order.
var DeterministicColumns = []string{"bucket", "offered", "events"}

// wallColumns are the measured CSV columns, in order.
var wallColumns = []string{
	"done", "errors", "rejected", "error_rate",
	"achieved_rps",
	"p50_ms", "p95_ms", "p99_ms", "max_ms",
	"coalesce_batch", "cache_hit_rate",
}

// Bucket is one timeline interval.
type Bucket struct {
	Start   time.Duration // simulated offset of the bucket's left edge
	Offered int           // arrivals scheduled in [Start, Start+Interval)
	Events  []string      // events fired in the bucket, in firing order

	Done     int       // requests completed successfully
	Errors   int       // transport failures + non-2xx responses (excluding 429s)
	Rejected int       // shed by admission control or never dispatched
	LatMS    []float64 // wall latency of each completed request, ms

	// Server-side counter deltas over the bucket, scraped from
	// GET /metrics: coalescing efficiency and prediction-cache traffic.
	// Zero when stats polling is off.
	CoalReqs     int64
	CoalFlushes  int64
	CacheHits    int64
	CacheLookups int64 // hits + misses
}

// NewTimeline builds an empty timeline with one bucket per interval
// covering [0, dur).
func NewTimeline(dur, interval time.Duration) (*Timeline, error) {
	if interval <= 0 || dur <= 0 {
		return nil, fmt.Errorf("loadsim: timeline needs positive duration and interval, got %v/%v", dur, interval)
	}
	n := int((dur + interval - 1) / interval)
	if n > 1<<20 {
		return nil, fmt.Errorf("loadsim: %v / %v is %d buckets; raise -interval", dur, interval, n)
	}
	tl := &Timeline{Interval: interval, Buckets: make([]*Bucket, n)}
	for i := range tl.Buckets {
		tl.Buckets[i] = &Bucket{Start: time.Duration(i) * interval}
	}
	return tl, nil
}

// bucketFor maps a simulated offset to its bucket.
func (tl *Timeline) bucketFor(t time.Duration) *Bucket {
	i := int(t / tl.Interval)
	if i < 0 {
		i = 0
	}
	if i >= len(tl.Buckets) {
		i = len(tl.Buckets) - 1
	}
	return tl.Buckets[i]
}

// percentile returns the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Row is one rendered timeline bucket, used for the JSON form.
type Row struct {
	Bucket       string  `json:"bucket"`
	Offered      int     `json:"offered"`
	Events       string  `json:"events"`
	Done         int     `json:"done"`
	Errors       int     `json:"errors"`
	Rejected     int     `json:"rejected"`
	ErrorRate    float64 `json:"error_rate"`
	AchievedRPS  float64 `json:"achieved_rps"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxMS        float64 `json:"max_ms"`
	CoalesceBach float64 `json:"coalesce_batch"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// rows renders every bucket. wallRPSDivisor converts per-bucket
// completions into achieved requests/s of simulated time.
func (tl *Timeline) rows() []Row {
	out := make([]Row, len(tl.Buckets))
	secs := tl.Interval.Seconds()
	for i, b := range tl.Buckets {
		lat := append([]float64(nil), b.LatMS...)
		sort.Float64s(lat)
		r := Row{
			Bucket:   b.Start.String(),
			Offered:  b.Offered,
			Events:   strings.Join(b.Events, " "),
			Done:     b.Done,
			Errors:   b.Errors,
			Rejected: b.Rejected,
		}
		if n := b.Done + b.Errors + b.Rejected; n > 0 {
			r.ErrorRate = round6(float64(b.Errors) / float64(n))
		}
		r.AchievedRPS = round6(float64(b.Done) / secs)
		r.P50MS = round6(percentile(lat, 50))
		r.P95MS = round6(percentile(lat, 95))
		r.P99MS = round6(percentile(lat, 99))
		if len(lat) > 0 {
			r.MaxMS = round6(lat[len(lat)-1])
		}
		if b.CoalFlushes > 0 {
			r.CoalesceBach = round6(float64(b.CoalReqs) / float64(b.CoalFlushes))
		}
		if b.CacheLookups > 0 {
			r.CacheHitRate = round6(float64(b.CacheHits) / float64(b.CacheLookups))
		}
		out[i] = r
	}
	return out
}

// WriteCSV writes the timeline, deterministic columns first.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	header := strings.Join(append(append([]string{}, DeterministicColumns...), wallColumns...), ",")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range tl.rows() {
		fields := []string{
			r.Bucket,
			strconv.Itoa(r.Offered),
			r.Events, // event specs contain no commas
			strconv.Itoa(r.Done),
			strconv.Itoa(r.Errors),
			strconv.Itoa(r.Rejected),
			formatG(r.ErrorRate),
			formatG(r.AchievedRPS),
			formatG(r.P50MS),
			formatG(r.P95MS),
			formatG(r.P99MS),
			formatG(r.MaxMS),
			formatG(r.CoalesceBach),
			formatG(r.CacheHitRate),
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the timeline as a JSON array of row objects.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl.rows())
}

// StripWallColumns rewrites a timeline CSV keeping only the columns
// named in DeterministicColumns — the form two same-seed runs must
// agree on byte for byte.
func StripWallColumns(csv string) string {
	keep := map[string]bool{}
	for _, c := range DeterministicColumns {
		keep[c] = true
	}
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) == 0 {
		return ""
	}
	header := strings.Split(lines[0], ",")
	var cols []int
	for i, name := range header {
		if keep[name] {
			cols = append(cols, i)
		}
	}
	var out strings.Builder
	for _, line := range lines {
		fields := strings.Split(line, ",")
		parts := make([]string, 0, len(cols))
		for _, c := range cols {
			if c < len(fields) {
				parts = append(parts, fields[c])
			}
		}
		out.WriteString(strings.Join(parts, ","))
		out.WriteByte('\n')
	}
	return out.String()
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func round6(v float64) float64 {
	s, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	if err != nil {
		return v
	}
	return s
}
