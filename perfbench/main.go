// Command perfbench is the repository benchmark: it generates one
// workload's inputs from a seed, runs them through the scheduling
// planes, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON object on the
// last line of standard output. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/score-dc/score/internal/cluster"
)

// workload is one named set of generated inputs, converged by the
// in-process coordinator. timed is how many instances the timing
// medians are taken over: a fixed set, so a faster or slower change is
// summarised over the same instances (their two passes take about half
// of a 50 s run on a 2-CPU host). roundEvery paces the serve phase's
// background rounds so that they hold the state lock about a tenth of
// the time on either plant; the ladder's measured rungs last whole
// intervals of it, so each holds the same number of rounds.
type workload struct {
	name       string
	plant      func(seed int64) (*plant, error)
	timed      int
	roundEvery time.Duration
}

var workloads = []workload{
	{"converge-hotspot", hotspotPlant, 12, time.Second},
	{"converge-podlocal", podLocalPlant, 48, 500 * time.Millisecond},
}

const (
	// minInstances is how many instances cost_ratio and migrations are
	// medians over, so they repeat bit for bit across runs of one seed.
	minInstances = 3
	// serveShare is the part of --seconds the serve cycles take; the
	// timed instances' two passes take about the rest.
	serveShare = 0.5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s": "s", "peak_rss_mb": "MB", "converge_s": "s",
	"round_ms_p50": "ms", "round_ms_p90": "ms", "cost_ratio": "ratio", "migrations": "count",
	"observe_ms_p50": "ms", "observe_ms_p99": "ms", "admit_ms_p50": "ms", "admit_ms_p99": "ms",
	"ingest_max_sps": "samples/s",

	"core.view_best_us": "us", "core.delta_ns": "ns", "core.found_ratio": "ratio",
	"shard.useful_hop_ratio": "ratio", "shard.shards": "count", "shard.ring_pass_ms": "ms",
	"shard.merge_us_per_move": "us", "shard.stale_rejected": "count",
	"shard.cross_proposed": "count", "shard.cross_applied": "count", "shard.cross_rejected": "count",
	"shard.cross_accept_ratio": "ratio",
	"control.plan_ms":          "ms", "control.shards_chosen": "count",
	"serve.op_wait_ms_p50": "ms", "serve.op_wait_ms_p99": "ms", "serve.fold_ms_p50": "ms", "serve.fold_ms_p99": "ms",
	"serve.round_ms_p50": "ms", "serve.lock_busy_share": "ratio", "serve.route_observe_ms_p50": "ms",
	"serve.route_admit_ms_p50": "ms", "serve.backpressure": "count", "serve.generator_lag_ms_p99": "ms",
	"hypervisor.ring_latency_ms": "ms", "hypervisor.merge_ms": "ms", "hypervisor.regenerated": "count",
	"hypervisor.cross_accept_ratio": "ratio", "token.codec_us": "us",
	"obs.trace_overhead_share": "ratio",
}

var endToEnd = []string{
	"setup_s", "peak_rss_mb", "converge_s", "round_ms_p50", "round_ms_p90", "cost_ratio", "migrations",
	"observe_ms_p50", "observe_ms_p99", "admit_ms_p50", "admit_ms_p99", "ingest_max_sps",
}

// provenance is printed before the result and stored with the spans.
type provenance struct {
	Workload        string       `json:"workload"`
	Seed            int64        `json:"seed"`
	Seconds         float64      `json:"seconds"`
	Traced          bool         `json:"traced"`
	NumCPU          int          `json:"nproc"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	GoVersion       string       `json:"go_version"`
	Commit          string       `json:"commit"`
	LimitMS         float64      `json:"observe_limit_ms"`
	Instances       int          `json:"instances"`
	Rounds          int          `json:"rounds"`
	RoundsBeyondP90 int          `json:"rounds_beyond_p90"`
	ConvergeS       []float64    `json:"converge_s"`       // per instance, faster pass
	Round1MS        []float64    `json:"round1_ms"`        // per instance, faster pass
	ShardsPerRound  [][]int      `json:"shards_per_round"` // per instance
	Ladder          ladderConfig `json:"ladder"`
	Serve           *serveResult `json:"serve,omitempty"`
	Error           string       `json:"error,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		limit   = flag.Float64("observe-limit-ms", 0, "observe p99 latency limit for ingest_max_sps (required)")
		outDir  = flag.String("out-dir", ".bench_build/perfbench-out", "directory for spans and snapshots")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *limit <= 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1 --observe-limit-ms L\n", names())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	prov := &provenance{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), LimitMS: *limit,
	}
	runID := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	var tr *tracer
	if prov.Traced {
		tr = newTracer(runID)
	}
	res, err := measure(w, *seed, *seconds, *limit, *outDir, tr, prov)
	if err == nil {
		want := endToEnd
		if prov.Traced {
			want = perLayer()
		}
		err = res.complete(want)
	}
	if err != nil {
		res.Correct = false
		prov.Error = err.Error()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	pj, perr := json.Marshal(map[string]*provenance{"provenance": prov})
	if perr != nil {
		pj, _ = json.Marshal(map[string]string{"provenance_error": perr.Error()})
	}
	fmt.Println(string(pj))
	if werr := tr.write(filepath.Join(*outDir, runID+"-spans.json")); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
	}
	if err := os.WriteFile(filepath.Join(*outDir, runID+"-provenance.json"), pj, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing provenance:", err)
	}
	out, oerr := json.Marshal(res)
	if oerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", oerr)
		return 1
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// complete drops every metric that is not a finite number (a figure
// with nothing measured behind it) and reports those, and any of want
// that is missing.
func (r *result) complete(want []string) error {
	var bad []string
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, name)
			delete(r.Metrics, name)
		}
	}
	for _, name := range want {
		if _, ok := r.Metrics[name]; !ok && !slices.Contains(bad, name) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("no measurement behind %s", strings.Join(bad, ", "))
	}
	return nil
}

// perLayer lists the traced run's metrics: every metric with a unit
// that is not end to end.
func perLayer() []string {
	var out []string
	for name := range units {
		if !slices.Contains(endToEnd, name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func names() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, "|")
}

// measure runs one workload. The run alternates converge chunks and
// serve cycles, so a slow period of the host falls on a part of each,
// not on all of one: converge chunk 0 (the first half of the timed
// instances), serve cycle 0 (with the ladder's climb), chunk 1 (the
// second half), cycle 1, then chunks 2 and 3, which converge every
// timed instance a second time, generated again from its seed, with
// cycles 2 and 3 after them. Serve cycle c serves instance c. When
// traced, the layer probes follow.
func measure(w *workload, seed int64, seconds, limitMS float64, outDir string, tr *tracer, prov *provenance) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	traced := tr != nil
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }

	lc := defaultLadder
	lc.LimitMS, lc.Interval = limitMS, w.roundEvery
	prov.Ladder = lc
	type timedRun struct {
		setup float64
		cv    *convergence
	}
	var (
		passes [2][]timedRun
		p0     *plant
		allocs = make([]map[cluster.VMID]cluster.HostID, lc.Cycles) // converged placements of instances 0..Cycles-1
	)
	half := lc.Cycles / 2
	per := (w.timed + half - 1) / half
	chunk := func(c int) error {
		pass, from := c/half, c%half*per
		for i := from; i < min(from+per, w.timed); i++ {
			t0 := time.Now()
			p, err := w.plant(subSeed(seed, i))
			if err != nil {
				return err
			}
			pl, err := newInproc(p, false)
			if err != nil {
				return err
			}
			setup := time.Since(t0).Seconds()
			sp := tr.begin("converge", 0)
			cv, err := pl.converge(tr, sp)
			tr.end(sp)
			if err != nil {
				pl.close()
				return fmt.Errorf("instance %d: %w", i, err)
			}
			if pass == 0 && i < lc.Cycles {
				allocs[i] = pl.eng.Cluster().Snapshot()
			}
			if pass == 0 && i == 0 {
				p0 = p
			}
			pl.close()
			// Collect each instance's garbage before the next one is
			// built, so the peak RSS reflects one live instance, not GC
			// timing.
			runtime.GC()
			res.Attempted += len(cv.Rounds)
			// Determinism: the instance generated again from its seed
			// and converged on a fresh plane must land on the same cost
			// bits with the same moves.
			if pass == 1 {
				if err := sameConvergence(passes[0][i].cv, cv); err != nil {
					return fmt.Errorf("instance %d, second pass: %w", i, err)
				}
			}
			passes[pass] = append(passes[pass], timedRun{setup, cv})
		}
		return nil
	}

	// Serve cycle c serves instance c's converged placement, so the
	// serve metrics rest on as many plants as cycles; its plant is
	// generated again rather than kept.
	serving := func(c int) (*plant, map[cluster.VMID]cluster.HostID, error) {
		if err := chunk(c); err != nil {
			return nil, nil, err
		}
		if allocs[c] == nil {
			return nil, nil, fmt.Errorf("instance %d was not converged before serve cycle %d", c, c)
		}
		if c == 0 {
			return p0, allocs[0], nil
		}
		p, err := w.plant(subSeed(seed, c))
		return p, allocs[c], err
	}
	sr, err := serveLadder(lc, seconds*serveShare, seed, outDir, tr, serving)
	if err != nil {
		return res, fmt.Errorf("serve phase: %w", err)
	}
	if len(passes[1]) != w.timed {
		return res, fmt.Errorf("%d ladder cycles converged %d of %d instances twice", lc.Cycles, len(passes[1]), w.timed)
	}

	// Each timing is the faster of an instance's two passes, which lie
	// about half a run apart.
	var setups, times, rounds []float64
	for i, a := range passes[0] {
		b := passes[1][i]
		setups = append(setups, min(a.setup, b.setup))
		times = append(times, min(a.cv.Seconds, b.cv.Seconds))
		var shards []int
		for r, ra := range a.cv.Rounds {
			rounds = append(rounds, min(ra.MS, b.cv.Rounds[r].MS))
			shards = append(shards, ra.Shards)
		}
		prov.ShardsPerRound = append(prov.ShardsPerRound, shards)
		prov.ConvergeS = append(prov.ConvergeS, times[i])
		prov.Round1MS = append(prov.Round1MS, min(a.cv.Rounds[0].MS, b.cv.Rounds[0].MS))
	}
	prov.Instances, prov.Rounds, prov.RoundsBeyondP90 = w.timed, len(rounds), beyond(rounds, 0.9)
	var ratios, moves []float64
	for _, a := range passes[0][:minInstances] {
		ratios = append(ratios, a.cv.ratio())
		moves = append(moves, float64(a.cv.Moves))
	}
	put("setup_s", median(setups))
	put("converge_s", median(times))
	put("round_ms_p50", quantile(rounds, 0.5))
	put("round_ms_p90", quantile(rounds, 0.9))
	put("cost_ratio", median(ratios))
	put("migrations", median(moves))

	prov.Serve = sr
	res.Attempted += sr.Requests
	res.Failed += sr.Failed
	put("observe_ms_p50", sr.ObserveP50)
	put("observe_ms_p99", sr.ObserveP99)
	put("admit_ms_p50", sr.AdmitP50)
	put("admit_ms_p99", sr.AdmitP99)
	put("ingest_max_sps", sr.MaxSPS)

	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	put("peak_rss_mb", rss)
	if !traced {
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced run: the per-layer metrics replace the end-to-end ones.
	layer, err := measureLayers(p0, seed, sr, passes[0][0].cv, tr)
	if err != nil {
		return res, err
	}
	res.Metrics = map[string]metric{}
	for name, v := range layer {
		put(name, v)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// sameConvergence compares two convergences of one instance bit for bit.
func sameConvergence(a, b *convergence) error {
	if math.Float64bits(a.C0) != math.Float64bits(b.C0) || math.Float64bits(a.C1) != math.Float64bits(b.C1) ||
		a.Moves != b.Moves || len(a.Rounds) != len(b.Rounds) {
		return fmt.Errorf("not reproducible: cost %.17g → %.17g vs %.17g → %.17g, %d vs %d moves, %d vs %d rounds",
			a.C0, a.C1, b.C0, b.C1, a.Moves, b.Moves, len(a.Rounds), len(b.Rounds))
	}
	return nil
}

// measureLayers runs the traced run's layer section on instance 0.
func measureLayers(p0 *plant, seed int64, sr *serveResult, cv0 *convergence, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range sr.layer {
		out[k] = v
	}

	// Tracing overhead: instance 0 on the in-process coordinator, twice
	// bare and twice with the obs hooks attached (tracer and audit ring
	// at scored's defaults, metrics registries) and a span per call,
	// alternating so drift falls on both sides.
	var took [2]float64 // bare, hooked
	for i := 0; i < 4; i++ {
		hooked := i % 2
		var t *tracer
		if hooked == 1 {
			t = tr
		}
		pl, err := newInproc(p0, hooked == 1)
		if err != nil {
			return nil, err
		}
		sp := t.begin("converge.traced", 0)
		cv, err := pl.converge(t, sp)
		t.end(sp)
		pl.close()
		if err == nil {
			err = sameConvergence(cv0, cv)
		}
		if err != nil {
			return nil, fmt.Errorf("overhead re-run: %w", err)
		}
		took[hooked] += cv.Seconds
	}
	out["obs.trace_overhead_share"] = took[1] / took[0]

	// Shard and control layers: the in-process coordinator with its
	// metrics attached, on this plant.
	ring, err := newInproc(p0, true)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("converge.inproc", 0)
	cvT, err := ring.converge(tr, sp)
	tr.end(sp)
	if err != nil {
		ring.close()
		return nil, fmt.Errorf("in-process probe: %w", err)
	}
	var applied, hops, stale, proposed, crossA, crossR, shards float64
	var plan []float64
	for _, r := range cvT.Rounds {
		applied += float64(r.Applied)
		hops += float64(r.Hops)
		stale += float64(r.Stale)
		proposed += float64(r.Proposed)
		crossA += float64(r.CrossApplied)
		crossR += float64(r.CrossRejected)
		shards += float64(r.Shards)
		plan = append(plan, r.PlanMS)
	}
	n := float64(len(cvT.Rounds))
	out["shard.useful_hop_ratio"] = ratio(applied, hops)
	out["shard.shards"] = shards / n
	out["shard.ring_pass_ms"] = ratio(ring.metrics.RingPass.Sum()*1e3, float64(ring.metrics.RingPass.Count()))
	out["shard.stale_rejected"] = stale
	out["shard.cross_proposed"] = proposed
	out["shard.cross_applied"] = crossA
	out["shard.cross_rejected"] = crossR
	out["shard.cross_accept_ratio"] = ratio(crossA, proposed)
	out["control.plan_ms"] = median(plan)
	out["control.shards_chosen"] = float64(cvT.Rounds[len(cvT.Rounds)-1].Shards)
	ringVMs := int(math.Ceil(float64(p0.cl.NumVMs()) / float64(cvT.Rounds[len(cvT.Rounds)-1].Shards)))
	ring.close()

	// Agent plane: the agents converge the paper-scale dense plant of
	// this seed (one agent round over a 30,720-VM plant already takes
	// about half a minute).
	dp, err := densePlant(subSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	ag, err := newDist(dp, false)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("hypervisor.probe", 0)
	dist, err := ag.converge(tr, sp)
	tr.end(sp)
	ag.close()
	if err != nil {
		return nil, fmt.Errorf("agent probe: %w", err)
	}
	var ringMS, mergeMS []float64
	var regen, dProp, dCross float64
	for _, r := range dist.Rounds {
		ringMS = append(ringMS, r.RingMaxMS)
		mergeMS = append(mergeMS, r.MS-r.RingMaxMS)
		regen += float64(r.Regenerated)
		dProp += float64(r.Proposed)
		dCross += float64(r.CrossApplied)
	}
	out["hypervisor.ring_latency_ms"] = median(ringMS)
	out["hypervisor.merge_ms"] = median(mergeMS)
	out["hypervisor.regenerated"] = regen
	out["hypervisor.cross_accept_ratio"] = ratio(dCross, dProp)

	for _, probe := range []func() (map[string]float64, error){
		func() (map[string]float64, error) { return probeKernel(p0, seed, tr) },
		func() (map[string]float64, error) { return probeMerge(p0, tr) },
		func() (map[string]float64, error) { return probeToken(p0, ringVMs, tr) },
	} {
		m, err := probe()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
