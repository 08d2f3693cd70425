package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("an empty sample must give NaN")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p90 of 0..99 is 89.1: ten samples (90..99) lie beyond it.
	if got := beyond(xs, 0.9); got != 10 {
		t.Errorf("beyond(p90) = %d, want 10", got)
	}
}

func TestMaxRate(t *testing.T) {
	const limit = 250.0
	ok := func(rate float64) rung {
		return rung{RateSPS: rate, AchievedSPS: rate, Requests: 100, P99ms: 20}
	}
	slow := func(rate, p99 float64) rung {
		return rung{RateSPS: rate, AchievedSPS: rate, Requests: 100, P99ms: p99}
	}
	sat := func(r rung, windows ...float64) rung {
		r.Saturate, r.WindowSPS = true, windows
		if windows == nil {
			r.WindowSPS = []float64{r.AchievedSPS}
		}
		return r
	}
	over := func(rate, achieved float64) rung {
		return rung{RateSPS: rate, AchievedSPS: achieved, Requests: 100, P99ms: 400, EndLagMS: 400}
	}
	for _, c := range []struct {
		name    string
		rungs   []rung
		want    float64
		topPass bool
	}{
		{"empty", nil, 0, false},
		{"climb tops out", []rung{ok(300), ok(400), ok(100), ok(200)}, 400, true},
		{"saturated: median burst", []rung{ok(300), over(400, 300), ok(100), sat(over(800, 260)), ok(100), sat(over(800, 150)), ok(100), sat(over(800, 270))}, 260, false},
		{"one slow burst does not move it", []rung{over(400, 300), sat(over(800, 90)), sat(over(800, 250)), sat(over(800, 255))}, 250, false},
		{"median over every window", []rung{over(400, 300), sat(over(800, 200), 90, 300, 210), sat(over(800, 240), 240, 240)}, 240, false},
		{"bursts keep up and pass", []rung{ok(100), over(200, 150), sat(ok(400)), sat(ok(400))}, 400, false},
		{"latency without backlog", []rung{slow(200, 300), ok(100), sat(slow(400, 300))}, 100, false},
		{"refused", []rung{{RateSPS: 200, AchievedSPS: 200, Requests: 100, P99ms: 20, Refused: 1}, ok(100), sat(slow(400, 300))}, 100, false},
		{"lowest rung too slow", []rung{slow(200, 500), slow(100, 500), sat(slow(400, 500))}, 50, false},
		{"lowest rung overloaded", []rung{over(200, 60), over(100, 60), sat(over(400, 60))}, 60, false},
	} {
		got, top := maxRate(c.rungs, limit)
		if !near(got, c.want) || top != c.topPass {
			t.Errorf("%s: maxRate = %v (top passed %v), want %v (%v)", c.name, got, top, c.want, c.topPass)
		}
	}
}

func TestRungPasses(t *testing.T) {
	r := rung{RateSPS: 1000, AchievedSPS: 800, Requests: 10, P99ms: 100, EndLagMS: 10}
	if !r.passes(250) {
		t.Error("a short rung is not judged on its completed rate")
	}
	r.Saturate = true
	if r.passes(250) || !r.overloaded() {
		t.Error("a saturating rung completing under 95% of the offered rate has a growing backlog")
	}
	r.AchievedSPS = 960
	if !r.passes(250) {
		t.Error("a saturating rung keeping up within the limit must pass")
	}
	if (rung{}).passes(250) {
		t.Error("a rung without requests cannot pass")
	}
}

func TestCompletionRates(t *testing.T) {
	// 100 samples every 10 ms, a round stalling 250 ms of each second:
	// the rate over the two whole 1 s windows holds both stalls, and the
	// replies after them do not count.
	var done []completion
	for at := 10 * time.Millisecond; at <= 2300*time.Millisecond; at += 10 * time.Millisecond {
		if at%time.Second < 250*time.Millisecond || (at > time.Second && at < 1500*time.Millisecond) {
			continue
		}
		done = append(done, completion{at - time.Millisecond, 100})
	}
	// The second window also stalls from 1.25 s to 1.5 s.
	windows, all := completionRates(done, 2300*time.Millisecond, time.Second)
	if len(windows) != 2 || !near(windows[0], 7500) || !near(windows[1], 5000) || !near(all, 6250) {
		t.Errorf("completionRates = %v, %v; want [7500 5000], 6250", windows, all)
	}
	// Shorter than one window: the plain average.
	short := []completion{{100 * time.Millisecond, 50}, {400 * time.Millisecond, 50}}
	if windows, all := completionRates(short, 500*time.Millisecond, time.Second); len(windows) != 1 || !near(windows[0], 200) || !near(all, 200) {
		t.Errorf("short-rung completionRates = %v, %v; want [200], 200", windows, all)
	}
	if windows, all := completionRates(nil, 0, time.Second); windows != nil || all != 0 {
		t.Errorf("empty rung rates = %v, %v; want none, 0", windows, all)
	}
}

const promSample = `# HELP score_op_wait_seconds Time an op spent queued.
# TYPE score_op_wait_seconds histogram
score_op_wait_seconds_bucket{le="0.001"} 50
score_op_wait_seconds_bucket{le="0.01"} 90
score_op_wait_seconds_bucket{le="+Inf"} 100
score_op_wait_seconds_sum 0.5
score_op_wait_seconds_count 100
score_http_request_seconds_bucket{route="/v1/observe",le="0.001"} 10
score_http_request_seconds_bucket{route="/v1/observe",le="+Inf"} 10
score_http_request_seconds_sum{route="/v1/observe"} 0.002
score_http_request_seconds_count{route="/v1/observe"} 10
score_ingest_samples_total 4096
`

func TestParseProm(t *testing.T) {
	pt, err := parseProm(strings.NewReader(promSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := pt.Scalars["score_ingest_samples_total"]; got != 4096 {
		t.Errorf("counter = %v, want 4096", got)
	}
	h := pt.Hists["score_op_wait_seconds"]
	if h == nil || h.Count != 100 || h.Sum != 0.5 || len(h.Bounds) != 3 || !math.IsInf(h.Bounds[2], 1) {
		t.Fatalf("histogram parsed as %+v", h)
	}
	// p50 sits at the top of the first bucket; p70 halfway up the second.
	if got := h.quantile(0.5); !near(got, 0.001) {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := h.quantile(0.7); !near(got, 0.0055) {
		t.Errorf("p70 = %v, want 0.0055", got)
	}
	// p99 falls in the +Inf bucket: the largest finite bound.
	if got := h.quantile(0.99); !near(got, 0.01) {
		t.Errorf("p99 = %v, want 0.01", got)
	}
	if pt.Hists[`score_http_request_seconds{route="/v1/observe"}`] == nil {
		t.Error("labelled histogram missing")
	}

	prev := &promHist{Bounds: h.Bounds, Cum: []float64{40, 80, 90}, Sum: 0.4, Count: 90}
	d := h.minus(prev)
	if d.Count != 10 || !near(d.Sum, 0.1) || d.Cum[0] != 10 || d.Cum[2] != 10 {
		t.Errorf("minus = %+v", d)
	}
	var missing *promHist
	if missing.minus(prev) != nil || missing.quantile(0.5) != 0 || missing.sum() != 0 {
		t.Error("a missing histogram must read as empty")
	}
}

func TestSubSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 8; i++ {
			s := subSeed(seed, i)
			if s != subSeed(seed, i) {
				t.Fatal("subSeed is not a function of its inputs")
			}
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d repeats or is negative", seed, i, s)
			}
			seen[s] = true
		}
	}
}
