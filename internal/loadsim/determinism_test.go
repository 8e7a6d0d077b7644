package loadsim

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestTimelineDeterminismAgainstRealServer is the determinism
// satellite: two runs with the same seed against a real in-process
// serve server (true ensemble, coalescer and all) emit byte-identical
// timelines once wall-clock measurement columns are stripped — even
// with different worker counts racing the dispatch.
func TestTimelineDeterminismAgainstRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a trained ensemble; skipped with -short")
	}
	target := newServeTarget(t)
	const dur = 20 * time.Minute
	pattern := mustPattern(t, "diurnal:base=1,peak=5,period=20m", dur)
	events := mustEvents(t, "surge@5m+2m:mult=2;sweep@10m:rows=64;maint@15m+2m", dur)

	run := func(workers int) (stripped, full string, res *Result) {
		res, err := Run(context.Background(), Config{
			Targets:  []string{target},
			Pattern:  pattern,
			Events:   events,
			Duration: dur,
			Interval: time.Minute,
			Seed:     1234,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Timeline.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return StripWallColumns(buf.String()), buf.String(), res
	}

	s1, f1, r1 := run(4)
	s2, _, r2 := run(32)
	if s1 != s2 {
		t.Fatalf("same seed, stripped timelines differ:\n--- workers=4\n%s--- workers=32\n%s", s1, s2)
	}
	if r1.Summary.Offered != r2.Summary.Offered {
		t.Fatalf("offered counts differ: %d vs %d", r1.Summary.Offered, r2.Summary.Offered)
	}
	// Sanity on the run itself: everything offered completed against the
	// healthy server, latency was measured, coalescer stats flowed.
	if r1.Summary.Done != r1.Summary.Offered || r1.Summary.Errors != 0 {
		t.Fatalf("healthy server dropped work: %+v outcomes %v", r1.Summary, r1.Outcomes)
	}
	if r1.Summary.P99MS <= 0 || r1.Summary.MaxMS < r1.Summary.P99MS {
		t.Fatalf("latency percentiles look wrong: %+v", r1.Summary)
	}
	if r1.Summary.Coalesce < 1 {
		t.Fatalf("coalesce_batch %g < 1; /metrics deltas not flowing", r1.Summary.Coalesce)
	}
	// The full CSV carries measurements the stripped one must not.
	if f1 == s1 {
		t.Fatal("full CSV identical to stripped CSV; wall columns missing")
	}
	if !strings.Contains(f1, "p99_ms") || strings.Contains(s1, "p99_ms") {
		t.Fatal("p99_ms must be in the full CSV and only there")
	}
	// The event markers land in the right buckets.
	if !strings.Contains(s1, "maint@15m0s+2m0s") || !strings.Contains(s1, "sweep@10m0s:rows=64") {
		t.Fatalf("event markers missing from timeline:\n%s", s1)
	}
}

// TestRunJSONTimeline exercises the JSON timeline writer end to end.
func TestRunJSONTimeline(t *testing.T) {
	target, _ := stubTarget(t, 1024, 0)
	dur := 10 * time.Minute
	res, err := Run(context.Background(), Config{
		Targets:  []string{target},
		Pattern:  mustPattern(t, "constant:rate=0.5", dur),
		Duration: dur,
		Interval: time.Minute,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Timeline.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"bucket"`, `"offered"`, `"p99_ms"`, `"coalesce_batch"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON timeline missing %s:\n%s", want, out)
		}
	}
}
