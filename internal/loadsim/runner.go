package loadsim

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config parameterizes one harness run.
type Config struct {
	Targets []string // serve node base URLs; requests round-robin across them
	Model   string   // model to drive; empty resolves a single loaded model

	Pattern Pattern
	Events  []Event
	Mix     Mix

	Duration time.Duration // simulated length of the run
	Interval time.Duration // timeline bucket width (simulated); default Duration/48
	Seed     uint64
	Workers  int // max in-flight requests; default 16

	Clock      Clock        // default: simulated
	HTTPClient *http.Client // default: 30s-timeout client
	// SkipStats disables server counter polling (GET /metrics).
	SkipStats bool
}

func (cfg *Config) withDefaults() error {
	if cfg.Duration <= 0 {
		return fmt.Errorf("loadsim: config needs a positive duration")
	}
	if cfg.Pattern == nil {
		return fmt.Errorf("loadsim: config needs a pattern")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Duration / 48
		if cfg.Interval <= 0 {
			cfg.Interval = cfg.Duration
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Mix.Predict+cfg.Mix.Batch+cfg.Mix.Variance <= 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Clock == nil {
		cfg.Clock = &simClock{}
	}
	return nil
}

// Result is one finished (or interrupted) run.
type Result struct {
	Model    string          `json:"model"`
	Clock    string          `json:"clock"`
	Seed     uint64          `json:"seed"`
	Pattern  string          `json:"pattern"`
	Summary  Summary         `json:"summary"`
	Outcomes map[Outcome]int `json:"outcomes"`
	SLO      *Report         `json:"slo,omitempty"`
	Timeline *Timeline       `json:"-"`
}

// Run drives the configured targets with the schedule derived from
// (seed, pattern, events, mix) and aggregates the timeline. It returns
// the partial result and ctx.Err() when cancelled mid-run; in-flight
// requests are always waited for, so every dispatched request has a
// recorded outcome.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	client, err := NewClient(cfg.Targets, cfg.Model, cfg.HTTPClient)
	if err != nil {
		return nil, err
	}
	model, size, err := client.SpaceSize(ctx)
	if err != nil {
		return nil, err
	}
	tl, err := NewTimeline(cfg.Duration, cfg.Interval)
	if err != nil {
		return nil, err
	}
	sched, err := NewSchedule(cfg.Seed, cfg.Pattern, cfg.Events, cfg.Mix, cfg.Duration)
	if err != nil {
		return nil, err
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		sem      = make(chan struct{}, cfg.Workers)
		outcomes = map[Outcome]int{}
		offered  int
	)
	record := func(b *Bucket, o Outcome, lat time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		outcomes[o]++
		switch o {
		case OutcomeOK:
			b.Done++
			b.LatMS = append(b.LatMS, float64(lat)/float64(time.Millisecond))
		case OutcomeRejected:
			// Shed load (429 or refused connection) is graded by its own
			// SLO term, not folded into the error rate.
			b.Rejected++
		default:
			b.Errors++
		}
	}
	dispatch := func(b *Bucket, ordinal int, kind ReqKind, points []int) {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			// The run is being torn down; the request was scheduled but
			// never sent, which counts as rejected against completion.
			mu.Lock()
			b.Rejected++
			outcomes[OutcomeRejected]++
			mu.Unlock()
			return
		}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			// Deliberately not ctx: an in-flight request rides to its own
			// completion even during teardown, so drains are observable.
			o, lat := client.Do(context.Background(), model, ordinal, kind, points)
			record(b, o, lat)
		}()
	}
	points := func(draw uint64, rows int) []int {
		base := int(draw % uint64(size))
		ps := make([]int, rows)
		for i := range ps {
			ps[i] = (base + i) % size
		}
		return ps
	}

	// Server counters come from GET /metrics.
	pollStats := func() ServerTotals {
		if cfg.SkipStats {
			return ServerTotals{}
		}
		return client.MetricsTotals(context.Background())
	}
	stats0 := pollStats()
	last := stats0

	wallStart := time.Now()
	events := sched.Events()
	nextEvent := 0
	sweepOrdinal := 0
	curBucket := tl.Buckets[0]

	// crossInto advances the current bucket to the one owning sim time
	// t, attributing the coalesce-counter delta to the bucket left.
	crossInto := func(t time.Duration) {
		b := tl.bucketFor(t)
		if b == curBucket {
			return
		}
		now := pollStats()
		mu.Lock()
		curBucket.CoalReqs = now.CoalReqs - last.CoalReqs
		curBucket.CoalFlushes = now.CoalFlushes - last.CoalFlushes
		curBucket.CacheHits = now.CacheHits - last.CacheHits
		curBucket.CacheLookups = (now.CacheHits + now.CacheMisses) - (last.CacheHits + last.CacheMisses)
		mu.Unlock()
		last = now
		curBucket = b
	}

	// fireEvents releases every scheduled event due at or before sim
	// time t (events fire ahead of arrivals sharing a timestamp). A
	// sweep event's batch request counts as offered load — the event is
	// part of the deterministic schedule — and during teardown its
	// dispatch records a rejection like any other scheduled request.
	fireEvents := func(t time.Duration) {
		for nextEvent < len(events) && events[nextEvent].At <= t {
			ev := events[nextEvent]
			nextEvent++
			_ = cfg.Clock.WaitUntil(ctx, ev.At)
			crossInto(ev.At)
			mu.Lock()
			curBucket.Events = append(curBucket.Events, ev.String())
			if ev.Kind == EventSweep {
				curBucket.Offered++
				offered++
			}
			mu.Unlock()
			if ev.Kind == EventSweep {
				draw := uint64(sweepOrdinal)*2654435761 + cfg.Seed
				dispatch(curBucket, sweepOrdinal, ReqBatch, points(draw, ev.Rows))
				sweepOrdinal++
			}
		}
	}

	cancelled := false
	for {
		a, ok := sched.Next()
		if !ok {
			break
		}
		fireEvents(a.At)
		if err := cfg.Clock.WaitUntil(ctx, a.At); err != nil {
			// Teardown: keep draining the schedule so the deterministic
			// columns stay complete; dispatch records rejections.
			cancelled = true
		}
		crossInto(a.At)
		mu.Lock()
		curBucket.Offered++
		offered++
		mu.Unlock()
		dispatch(curBucket, a.Index, a.Kind, points(a.PointDraw, a.Rows))
	}
	fireEvents(cfg.Duration)
	wg.Wait()
	final := pollStats()
	mu.Lock()
	curBucket.CoalReqs += final.CoalReqs - last.CoalReqs
	curBucket.CoalFlushes += final.CoalFlushes - last.CoalFlushes
	curBucket.CacheHits += final.CacheHits - last.CacheHits
	curBucket.CacheLookups += (final.CacheHits + final.CacheMisses) - (last.CacheHits + last.CacheMisses)
	mu.Unlock()
	wallSecs := time.Since(wallStart).Seconds()

	res := &Result{
		Model:    model,
		Clock:    cfg.Clock.Mode(),
		Seed:     cfg.Seed,
		Pattern:  cfg.Pattern.Spec(),
		Outcomes: outcomes,
		Timeline: tl,
	}
	delta := ServerTotals{
		CoalReqs:    final.CoalReqs - stats0.CoalReqs,
		CoalFlushes: final.CoalFlushes - stats0.CoalFlushes,
		CacheHits:   final.CacheHits - stats0.CacheHits,
		CacheMisses: final.CacheMisses - stats0.CacheMisses,
	}
	res.Summary = summarize(tl, offered, wallSecs, cfg.Duration.Seconds(), delta)
	res.Summary.Dropped = outcomes[OutcomeDropped]
	if cancelled || ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// summarize folds the timeline into whole-run SLO inputs.
func summarize(tl *Timeline, offered int, wallSecs, simSecs float64, srv ServerTotals) Summary {
	var lat []float64
	s := Summary{Offered: offered, WallSecs: round6(wallSecs), SimSecs: simSecs}
	for _, b := range tl.Buckets {
		s.Done += b.Done
		s.Errors += b.Errors
		s.Rejected += b.Rejected
		lat = append(lat, b.LatMS...)
	}
	sort.Float64s(lat)
	if n := s.Done + s.Errors + s.Rejected; n > 0 {
		s.ErrorRate = round6(float64(s.Errors) / float64(n))
		s.RejectRate = round6(float64(s.Rejected) / float64(n))
	}
	if s.Offered > 0 {
		s.Complete = round6(float64(s.Done) / float64(s.Offered))
	}
	s.P50MS = round6(percentile(lat, 50))
	s.P95MS = round6(percentile(lat, 95))
	s.P99MS = round6(percentile(lat, 99))
	if len(lat) > 0 {
		s.MaxMS = round6(lat[len(lat)-1])
		sum := 0.0
		for _, v := range lat {
			sum += v
		}
		s.MeanMS = round6(sum / float64(len(lat)))
	}
	if wallSecs > 0 {
		s.WallRPS = round6(float64(s.Done) / wallSecs)
	}
	if srv.CoalFlushes > 0 {
		s.Coalesce = round6(float64(srv.CoalReqs) / float64(srv.CoalFlushes))
	}
	if lookups := srv.CacheHits + srv.CacheMisses; lookups > 0 {
		s.CacheHit = round6(float64(srv.CacheHits) / float64(lookups))
	}
	return s
}

// CollectSchedule materializes the full deterministic schedule — every
// arrival and the event firing order — without touching a network or a
// clock. It is the reference the clock-parity tests compare runs
// against, and a debugging aid ("what would this seed do?").
func CollectSchedule(seed uint64, p Pattern, events []Event, mix Mix, dur time.Duration) ([]Arrival, []Event, error) {
	sched, err := NewSchedule(seed, p, events, mix, dur)
	if err != nil {
		return nil, nil, err
	}
	var arrivals []Arrival
	for {
		a, ok := sched.Next()
		if !ok {
			break
		}
		arrivals = append(arrivals, a)
		if len(arrivals) > 20_000_000 {
			return nil, nil, fmt.Errorf("loadsim: schedule exceeds 20M arrivals; not materializing")
		}
	}
	return arrivals, sched.Events(), nil
}
