package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is
// not modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile — the number
// that backs a reported percentile.
func beyond(xs []float64, q float64) int {
	t := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

// ratio divides, mapping an empty denominator to 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rung is one step of the open-loop ingest ladder: the offered sample
// rate, the observe latencies (ms, timed from each request's scheduled
// send time) it produced, and the sample rate the daemon completed (see
// completionRates). Saturate marks a burst that measures the daemon's
// capacity after the climb.
type rung struct {
	RateSPS     float64 `json:"rate_sps"`
	AchievedSPS float64 `json:"achieved_sps"`
	Requests    int     `json:"requests"`
	P50ms       float64 `json:"p50_ms"`
	P99ms       float64 `json:"p99_ms"`
	Refused     int     `json:"refused"`
	EndLagMS    float64 `json:"end_lag_ms"`
	Saturate    bool    `json:"saturate,omitempty"`
	// WindowSPS is a saturating burst's completed rate in each of its
	// whole round intervals.
	WindowSPS []float64 `json:"window_sps,omitempty"`
	MeetLimit bool      `json:"meets_limit"`
}

// backlogShare is how far a saturating burst's completed rate may fall
// short of the offered rate before it counts as overloaded (a growing
// backlog). A short rung's rate is not judged: one round holding the
// state lock at its end already costs it that much.
const backlogShare = 0.95

// passes reports whether a rung meets the latency limit without a
// growing backlog: p99 at or under the limit, no refused request, the
// generator no further than the limit behind schedule at the end, and,
// for a saturating burst, the offered rate completed.
func (r rung) passes(limitMS float64) bool {
	ok := r.Requests > 0 && r.Refused == 0 && r.P99ms <= limitMS && r.EndLagMS <= limitMS
	return ok && !(r.Saturate && r.overloaded())
}

// overloaded reports whether the daemon completed less than the offered
// rate: its backlog grew over the rung.
func (r rung) overloaded() bool { return r.AchievedSPS < backlogShare*r.RateSPS }

// maxRate returns the highest sample rate the daemon sustains within
// limitMS without a growing backlog, and whether the climb's top rung
// still passed (the true figure then lies above the ladder). rungs is
// the ladder as run: the climb up to its first failing rung, the
// reference rungs and the saturating bursts, offered more than the
// failing rate. The bursts' completed rate is the median over every
// whole round interval of every burst:
//   - below the offered rate (the backlog grew): the daemon's capacity,
//     that completed rate;
//   - keeping up and every burst passing: the offered rate;
//   - keeping up but failing on latency or refusals: the highest rate
//     that passed, or, when none did, the lowest rate scaled down by
//     how far its p99 overshot the limit.
func maxRate(rungs []rung, limitMS float64) (float64, bool) {
	var bursts []float64
	var offered, best float64
	var lowest *rung
	allPass, burstsPass := true, true
	for i := range rungs {
		r := &rungs[i]
		ok := r.passes(limitMS)
		allPass = allPass && ok
		switch {
		case r.Saturate:
			bursts = append(bursts, r.WindowSPS...)
			offered = r.RateSPS
			burstsPass = burstsPass && ok
		case ok:
			best = max(best, r.RateSPS)
		}
		if !r.Saturate && (lowest == nil || r.RateSPS < lowest.RateSPS) {
			lowest = r
		}
	}
	if len(bursts) == 0 {
		return best, len(rungs) > 0 && allPass
	}
	if capacity := median(bursts); capacity < backlogShare*offered {
		return capacity, false
	}
	switch {
	case burstsPass:
		return offered, false
	case best > 0:
		return best, false
	case lowest != nil && lowest.P99ms > limitMS:
		return lowest.RateSPS * limitMS / lowest.P99ms, false
	case lowest != nil:
		return lowest.RateSPS / 2, false
	}
	return 0, false
}

// completion is one acknowledged observe: when its reply arrived (from
// the rung start) and how many samples it applied.
type completion struct {
	at      time.Duration
	samples int
}

// completionRates is the sample rate the daemon completed over a rung
// whose last reply came at finish, in each whole window that fits
// before finish (in order) and over all of them together: the samples
// acknowledged within the windows, over their length. When not one
// window fits, both are the rate over finish. The window is the
// background round interval, so each whole window holds exactly one
// round.
func completionRates(done []completion, finish, window time.Duration) ([]float64, float64) {
	if finish <= 0 {
		return nil, 0
	}
	n := int(finish / window)
	if n == 0 {
		total := 0
		for _, c := range done {
			total += c.samples
		}
		r := float64(total) / finish.Seconds()
		return []float64{r}, r
	}
	counts := make([]int, n)
	total := 0
	for _, c := range done {
		if w := int(c.at / window); w < n {
			counts[w] += c.samples
			total += c.samples
		}
	}
	rates := make([]float64, n)
	for w, k := range counts {
		rates[w] = float64(k) / window.Seconds()
	}
	return rates, float64(total) / (time.Duration(n) * window).Seconds()
}

// promHist is one histogram series parsed from Prometheus text:
// cumulative bucket counts by upper bound, plus sum and count.
type promHist struct {
	Bounds []float64 // ascending upper bounds, +Inf last
	Cum    []float64 // cumulative counts aligned with Bounds
	Sum    float64
	Count  float64
}

// promText holds the samples of one /metrics scrape: scalar series by
// their full name (labels included, as exposed) and histograms by name
// plus label set.
type promText struct {
	Scalars map[string]float64
	Hists   map[string]*promHist
}

// parseProm parses the Prometheus text exposition format as written by
// the repository's obs registry: one sample per line, at most one
// label besides le.
func parseProm(r io.Reader) (*promText, error) {
	pt := &promText{Scalars: map[string]float64{}, Hists: map[string]*promHist{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, err
		}
		key := line[:sp]
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], strings.TrimSuffix(key[i+1:], "}")
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, rest := splitLE(labels)
			h := pt.hist(histKey(strings.TrimSuffix(name, "_bucket"), rest))
			b := math.Inf(1)
			if le != "+Inf" {
				if b, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, err
				}
			}
			h.Bounds = append(h.Bounds, b)
			h.Cum = append(h.Cum, v)
		case strings.HasSuffix(name, "_sum") && pt.Hists[histKey(strings.TrimSuffix(name, "_sum"), labels)] != nil:
			pt.Hists[histKey(strings.TrimSuffix(name, "_sum"), labels)].Sum = v
		case strings.HasSuffix(name, "_count") && pt.Hists[histKey(strings.TrimSuffix(name, "_count"), labels)] != nil:
			pt.Hists[histKey(strings.TrimSuffix(name, "_count"), labels)].Count = v
		default:
			pt.Scalars[key] = v
		}
	}
	return pt, sc.Err()
}

func (pt *promText) hist(key string) *promHist {
	h := pt.Hists[key]
	if h == nil {
		h = &promHist{}
		pt.Hists[key] = h
	}
	return h
}

func histKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// splitLE separates the le label from the other labels of a bucket
// sample.
func splitLE(labels string) (le, rest string) {
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if strings.HasPrefix(part, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`)
			continue
		}
		if part != "" {
			kept = append(kept, part)
		}
	}
	return le, strings.Join(kept, ",")
}

// minus returns the histogram of the observations made between an
// earlier scrape (prev, may be nil) and this one.
func (h *promHist) minus(prev *promHist) *promHist {
	if h == nil {
		return nil
	}
	out := &promHist{Bounds: h.Bounds, Cum: append([]float64(nil), h.Cum...), Sum: h.Sum, Count: h.Count}
	if prev == nil || len(prev.Cum) != len(h.Cum) {
		return out
	}
	for i := range out.Cum {
		out.Cum[i] -= prev.Cum[i]
	}
	out.Sum -= prev.Sum
	out.Count -= prev.Count
	return out
}

// plus returns the sum of two histograms with the same buckets (either
// may be nil).
func (h *promHist) plus(o *promHist) *promHist {
	switch {
	case o == nil:
		return h
	case h == nil:
		return o
	}
	out := &promHist{Bounds: h.Bounds, Cum: append([]float64(nil), h.Cum...), Sum: h.Sum + o.Sum, Count: h.Count + o.Count}
	for i := range out.Cum {
		if i < len(o.Cum) {
			out.Cum[i] += o.Cum[i]
		}
	}
	return out
}

func (h *promHist) sum() float64 {
	if h == nil {
		return 0
	}
	return h.Sum
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it (the first bucket interpolates from zero; a
// quantile in the +Inf bucket reports the largest finite bound).
func (h *promHist) quantile(q float64) float64 {
	if h == nil || len(h.Cum) == 0 || h.Cum[len(h.Cum)-1] == 0 {
		return 0
	}
	total := h.Cum[len(h.Cum)-1]
	target := q * total
	lowerB, lowerC := 0.0, 0.0
	for i, c := range h.Cum {
		if c >= target {
			if math.IsInf(h.Bounds[i], 1) {
				return lowerB
			}
			if c == lowerC {
				return h.Bounds[i]
			}
			return lowerB + (h.Bounds[i]-lowerB)*(target-lowerC)/(c-lowerC)
		}
		lowerB, lowerC = h.Bounds[i], c
	}
	return lowerB
}
