package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/serve"
)

// ladderConfig shapes the serve phase's open-loop load.
type ladderConfig struct {
	LimitMS float64 `json:"limit_ms"` // observe p99 limit
	// Interval is the background round interval, and the window of a
	// saturating burst's completed rate.
	Interval time.Duration `json:"interval_ns"`
	// Rates are the ladder's offered sample rates (samples/s),
	// ascending. Rungs 0..RefRung are the reference load, well below
	// every plant's knee: the headline observe and admit latencies are
	// the median over the cycles of each cycle's latencies over them.
	// The serve phase runs Cycles cycles, each on a daemon restored
	// from the same snapshot. The first cycle climbs the rates above
	// the reference load, RungShare of the serve phase each, and ends
	// the climb at the first rung that misses the limit. Every cycle
	// then runs the reference rungs, sharing RefShare of the serve
	// phase over all cycles, and one saturating burst offered SatFactor
	// times the failing rate, sharing SatShare. The bursts measure the
	// daemon's capacity; spread over the run, a slow period of the host
	// falls on a few of their windows, not on all.
	Rates     []float64 `json:"rates_sps"`
	RefRung   int       `json:"ref_rung"`
	RefShare  float64   `json:"ref_share"`
	RungShare float64   `json:"rung_share"`
	SatShare  float64   `json:"sat_share"`
	SatFactor float64   `json:"sat_factor"`
	Cycles    int       `json:"cycles"`
	// Jitter: each re-announced rate is drawn uniformly within ±Jitter
	// of the traffic matrix's rate.
	Jitter float64 `json:"jitter"`
	// AdmitHz is the admit rate; each admitted VM is removed
	// RemoveAfter later, within the same rung.
	AdmitHz     float64       `json:"admit_hz"`
	RemoveAfter time.Duration `json:"remove_after_ns"`
	// Warmup runs the first rate, unmeasured, at the start of each
	// cycle.
	Warmup time.Duration `json:"warmup_ns"`
}

// defaultLadder is the serve phase's load. The batch is not a setting:
// each observe request is one host's report (see hostReports). The
// jitter and the churn are assumptions, not measurements: ±10% stands
// for the error of a sampled rate estimate, and 250 admits/s, each VM
// removed 200 ms later, gives the admit p99 over a thousand samples at
// the reference load while the churn never holds more than about fifty
// extra VMs (under 0.2% of a k=16 plant).
var defaultLadder = ladderConfig{
	Rates:       []float64{12800, 25600, 51200, 76800, 102400, 153600, 204800, 307200, 409600, 614400, 819200, 1228800},
	RefRung:     1,
	RefShare:    0.5,
	RungShare:   0.04,
	SatShare:    0.3,
	SatFactor:   2,
	Cycles:      4,
	Jitter:      0.1,
	AdmitHz:     250,
	RemoveAfter: 200 * time.Millisecond,
	Warmup:      300 * time.Millisecond,
}

type opKind uint8

const (
	opObserve opKind = iota
	opAdmit
	opRemove
)

// loadOp is one scheduled request of the open loop.
type loadOp struct {
	kind opKind
	at   time.Duration // scheduled send time from the rung start
	vm   cluster.VMID  // admit/remove
	body []byte

	sent, done time.Duration
	// from is when the op's latency starts: its scheduled time if the
	// connection was still waiting on an earlier reply then (the
	// daemon held it up), else its send time (a late wake-up of the
	// generator's own timer is not the daemon's latency).
	from     time.Duration
	skipped  bool // not sent: the rung ended first (saturating rung)
	code     int
	applied  int
	rejected int
	err      error
}

func (op *loadOp) ok() bool { return op.err == nil && op.code/100 == 2 }

func (op *loadOp) latencyMS() float64 { return float64((op.done - op.from).Nanoseconds()) / 1e6 }

func (op *loadOp) lagMS() float64 { return float64((op.sent - op.at).Nanoseconds()) / 1e6 }

// hostReports pre-encodes one observe batch per host, as the host's
// dom0 monitor would report it: every traffic pair with a VM on the
// host under alloc, at a rate drawn within ±Jitter of the matrix's.
// Hosts come in a seeded order; hosts without traffic send nothing.
// It returns the batches and their mean sample count.
func (lc ladderConfig) hostReports(p *plant, alloc map[cluster.VMID]cluster.HostID, rng *rand.Rand) ([][]byte, float64) {
	type sample struct {
		A    uint32  `json:"a"`
		B    uint32  `json:"b"`
		Rate float64 `json:"rate_mbps"`
	}
	pairs, rates := p.tm.Pairs()
	byHost := make([][]int, p.cl.NumHosts())
	for j, pr := range pairs {
		ha, hb := alloc[pr.A], alloc[pr.B]
		byHost[ha] = append(byHost[ha], j)
		if hb != ha {
			byHost[hb] = append(byHost[hb], j)
		}
	}
	var out [][]byte
	total := 0
	for _, h := range rng.Perm(len(byHost)) {
		if len(byHost[h]) == 0 {
			continue
		}
		ss := make([]sample, len(byHost[h]))
		for k, j := range byHost[h] {
			ss[k] = sample{uint32(pairs[j].A), uint32(pairs[j].B), rates[j] * (1 + lc.Jitter*(2*rng.Float64()-1))}
		}
		body, _ := json.Marshal(struct {
			Source  string   `json:"source"`
			Samples []sample `json:"samples"`
		}{"dom0-" + strconv.Itoa(h), ss})
		out = append(out, body)
		total += len(ss)
	}
	return out, float64(total) / float64(max(len(out), 1))
}

// generator hands out the ladder's inputs in order.
type generator struct {
	lc     ladderConfig
	bodies [][]byte
	batch  float64      // mean samples per body
	next   int          // next body
	nextVM cluster.VMID // next churn VM id
}

// rung builds one rung's op lists for the two connections: observes
// offering sps samples/s over dur, alternating connections, plus (when
// churn) admits at AdmitHz with each VM removed RemoveAfter later on
// the same connection, so a remove never overtakes its admit.
func (g *generator) rung(sps float64, dur time.Duration, churn bool) [2][]*loadOp {
	var lists [2][]*loadOp
	step := float64(time.Second) * g.batch / sps
	for k := 0; float64(k)*step < float64(dur); k++ {
		c := g.next % 2
		lists[c] = append(lists[c], &loadOp{kind: opObserve, at: time.Duration(float64(k) * step), body: g.bodies[g.next%len(g.bodies)]})
		g.next++
	}
	if churn {
		step = float64(time.Second) / g.lc.AdmitHz
		for k := 0; time.Duration(float64(k)*step)+g.lc.RemoveAfter < dur; k++ {
			at := time.Duration(float64(k) * step)
			vm := g.nextVM
			g.nextVM++
			body := []byte(`{"id":` + strconv.FormatUint(uint64(vm), 10) + `,"ram_mb":1024}`)
			c := k % 2
			lists[c] = append(lists[c], &loadOp{kind: opAdmit, at: at, vm: vm, body: body},
				&loadOp{kind: opRemove, at: at + g.lc.RemoveAfter, vm: vm})
		}
	}
	for c := range lists {
		ops := lists[c]
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].at < ops[b].at })
	}
	return lists
}

// runOps drives one connection's ops on schedule. The loop is open: an
// op that falls behind a slow reply is sent at once, and its latency
// still counts from its scheduled time. An op sent on an idle
// connection counts from its send, so the generator's timer slack (up
// to a millisecond when the process is idle) is not charged to the
// daemon. When stop is set, ops still unsent at stop after start are
// skipped.
func runOps(c *http.Client, base string, ops []*loadOp, start time.Time, stop time.Duration, tr *tracer, parent int) {
	var free time.Duration // when the previous reply arrived
	for _, op := range ops {
		if d := time.Until(start.Add(op.at)); d > 0 {
			time.Sleep(d)
		}
		op.sent = time.Since(start)
		if stop > 0 && op.sent >= stop {
			op.skipped = true
			continue
		}
		op.from = op.sent
		if free > op.at {
			op.from = op.at
		}
		var id int
		switch op.kind {
		case opObserve:
			id = tr.begin("serve.POST /v1/observe", parent)
			var rep struct {
				Applied  int `json:"applied"`
				Rejected int `json:"rejected"`
			}
			op.code, op.err = call(c, http.MethodPost, base+"/v1/observe", op.body, &rep)
			op.applied, op.rejected = rep.Applied, rep.Rejected
		case opAdmit:
			id = tr.begin("serve.POST /v1/vms", parent)
			op.code, op.err = call(c, http.MethodPost, base+"/v1/vms", op.body, nil)
		case opRemove:
			id = tr.begin("serve.DELETE /v1/vms/{id}", parent)
			op.code, op.err = call(c, http.MethodDelete, base+"/v1/vms/"+strconv.FormatUint(uint64(op.vm), 10), nil, nil)
		}
		op.done = time.Since(start)
		free = op.done
		tr.end(id)
	}
}

// serveResult is what the serve phase measured.
type serveResult struct {
	Batch         float64      `json:"mean_batch_samples"`
	Rungs         []rung       `json:"rungs"`
	Cycles        []cycleStats `json:"cycles"`
	MaxSPS        float64      `json:"max_sps"`
	LadderTopPass bool         `json:"ladder_top_passed"`
	ObserveP50    float64      `json:"observe_ms_p50"`
	ObserveP99    float64      `json:"observe_ms_p99"`
	ObserveRef    int          `json:"observe_ref_requests"`
	AdmitP50      float64      `json:"admit_ms_p50"`
	AdmitP99      float64      `json:"admit_ms_p99"`
	AdmitRef      int          `json:"admit_ref_requests"`
	Requests      int          `json:"requests"`
	Failed        int          `json:"failed"`
	LagP99        float64      `json:"generator_lag_ms_p99"`
	WallS         float64      `json:"wall_s"`
	layer         map[string]float64
}

// cycleStats are one cycle's mean observe batch, daemon set-up time
// and reference-load latencies (ms) with their sample counts.
type cycleStats struct {
	Batch      float64 `json:"mean_batch_samples"`
	SetupS     float64 `json:"setup_s"`
	ObserveP50 float64 `json:"observe_ms_p50"`
	ObserveP99 float64 `json:"observe_ms_p99"`
	Observes   int     `json:"observes"`
	AdmitP50   float64 `json:"admit_ms_p50"`
	AdmitP99   float64 `json:"admit_ms_p99"`
	Admits     int     `json:"admits"`
}

// serveLadder runs the serve phase in lc.Cycles cycles. Before each
// cycle, while no daemon is up, serving(cycle) returns the plant and
// the placement the cycle serves. The cycle loads a daemon with them in
// manual mode, snapshots it and restores the snapshot with the round
// timer on (so no background round sees a half-loaded plant), serves
// it behind its real handler on loopback with background rounds every
// lc.Interval, and feeds it the open-loop load over two keep-alive
// connections: in the first cycle the climb until a rung misses the
// limit, then in every cycle the reference rungs and one saturating
// burst. A traced run (tr set) also attaches the obs hooks to the
// daemon.
func serveLadder(lc ladderConfig, seconds float64, seed int64, dir string, tr *tracer, serving func(cycle int) (*plant, map[cluster.VMID]cluster.HostID, error)) (*serveResult, error) {
	res := &serveResult{layer: map[string]float64{}}

	// Reference rungs and bursts last whole round intervals, so each
	// holds the same number of rounds.
	whole := func(share float64) time.Duration {
		d := time.Duration(seconds * share * float64(time.Second))
		if d >= lc.Interval {
			d = max(lc.Interval, (d+lc.Interval/2)/lc.Interval*lc.Interval)
		}
		return d
	}
	refDur := whole(lc.RefShare / float64((lc.RefRung+1)*lc.Cycles))
	rungDur := time.Duration(seconds * lc.RungShare * float64(time.Second))
	satDur := whole(lc.SatShare / float64(lc.Cycles))

	var lags []float64
	var hists map[string]*promHist // the daemons' histograms over the ladder
	var wall time.Duration
	var backpressure uint64
	satSPS := 0.0
	cycle := func(c int, p *plant, alloc map[cluster.VMID]cluster.HostID) error {
		t0 := time.Now()
		manual, err := loadDaemon(p, alloc)
		if err != nil {
			return err
		}
		snap := filepath.Join(dir, "serve-snapshot.json")
		_, err = manual.Snapshot(snap)
		manual.Close()
		defer os.Remove(snap)
		if err != nil {
			return err
		}
		var maxID cluster.VMID
		for _, vm := range p.cl.VMs() {
			maxID = max(maxID, vm)
		}
		g := &generator{lc: lc, nextVM: maxID + 1024}
		g.bodies, g.batch = lc.hostReports(p, alloc, rand.New(rand.NewSource(seed^int64(c)^0x5e7e)))
		cfg := serve.Config{RoundInterval: lc.Interval}
		if tr != nil {
			cfg.Trace = obs.NewTracer(obsRing)
			cfg.Audit = obs.NewAuditRing(obsRing)
		}
		runtime.GC()
		d, err := serve.Restore(snap, cfg)
		if err != nil {
			return err
		}
		defer d.Close()
		srv, err := d.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		base := "http://" + srv.Addr()
		ctl := httpClient()
		conns := [2]*http.Client{httpClient(), httpClient()}
		for _, hc := range append(conns[:], ctl) {
			defer hc.CloseIdleConnections()
		}
		before, err := getStatus(ctl, base)
		if err != nil {
			return err
		}
		m0, err := scrape(ctl, base)
		if err != nil {
			return err
		}
		setup := time.Since(t0).Seconds()

		// runRung drives both connections through one rung and returns
		// its ops once every reply is in; with stop set, ops unsent at
		// stop are skipped.
		runRung := func(lists [2][]*loadOp, stop time.Duration, name string) [2][]*loadOp {
			sp := tr.begin(name, 0)
			start := time.Now()
			var wg sync.WaitGroup
			for c := range lists {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					runOps(conns[c], base, lists[c], start, stop, tr, sp)
				}(c)
			}
			wg.Wait()
			tr.end(sp)
			return lists
		}

		var applied, admits, removes int
		var obsRef, admitRef []float64
		tally := func(lists [2][]*loadOp, ref bool) (lat []float64, refused int, endLag float64, windows []float64, achievedSPS float64, err error) {
			var last, finish time.Duration
			var done []completion
			for _, ops := range lists {
				for _, op := range ops {
					if !op.skipped {
						last = max(last, op.at)
						finish = max(finish, op.done)
					}
				}
			}
			for _, ops := range lists {
				for _, op := range ops {
					if op.skipped {
						continue
					}
					res.Requests++
					if ref {
						lags = append(lags, op.lagMS())
					}
					if !op.ok() {
						res.Failed++
					}
					switch op.kind {
					case opObserve:
						lat = append(lat, op.latencyMS())
						if !op.ok() {
							refused++
							continue
						}
						if op.rejected != 0 {
							return nil, 0, 0, nil, 0, fmt.Errorf("an observe batch of valid samples had %d rejected", op.rejected)
						}
						applied += op.applied
						done = append(done, completion{op.done, op.applied})
						// Backlog: how late the rung's last tenth was sent.
						if op.at >= last-last/10 {
							endLag = max(endLag, op.lagMS())
						}
					case opAdmit:
						if ref {
							admitRef = append(admitRef, op.latencyMS())
						}
						if op.ok() {
							admits++
						}
					case opRemove:
						if op.ok() {
							removes++
						}
					}
				}
			}
			windows, achievedSPS = completionRates(done, finish, lc.Interval)
			return lat, refused, endLag, windows, achievedSPS, nil
		}

		ladderStart := time.Now()
		if _, _, _, _, _, err := tally(runRung(g.rung(lc.Rates[0], lc.Warmup, false), 0, "serve.warmup"), false); err != nil {
			return err
		}
		// run measures one rung at sps samples/s; a saturating burst
		// stops sending when its time is up.
		run := func(sps float64, dur time.Duration, ref, saturate bool) (rung, error) {
			name, stop := "serve.rung", time.Duration(0)
			if saturate {
				name, stop = "serve.saturate", dur
			}
			lat, refused, endLag, windows, achieved, err := tally(runRung(g.rung(sps, dur, true), stop, name), ref)
			if ref {
				obsRef = append(obsRef, lat...)
			}
			rg := rung{RateSPS: sps, AchievedSPS: achieved, Requests: len(lat),
				P50ms: median(lat), P99ms: quantile(lat, 0.99), Refused: refused, EndLagMS: endLag, Saturate: saturate}
			if saturate {
				rg.WindowSPS = windows
			}
			rg.MeetLimit = rg.passes(lc.LimitMS)
			res.Rungs = append(res.Rungs, rg)
			return rg, err
		}
		// The climb. A short rung cannot show a small overload and can
		// fail on one round landing at its end, so its failure only
		// sets the bursts' offered rate, well past it.
		if c == 0 {
			for _, sps := range lc.Rates[lc.RefRung+1:] {
				rg, err := run(sps, rungDur, false, false)
				if err != nil {
					return err
				}
				if !rg.MeetLimit {
					satSPS = sps * lc.SatFactor
					break
				}
			}
		}
		for _, sps := range lc.Rates[:lc.RefRung+1] {
			if _, err := run(sps, refDur, true, false); err != nil {
				return err
			}
		}
		if satSPS > 0 {
			if _, err := run(satSPS, satDur, false, true); err != nil {
				return err
			}
		}
		took := time.Since(ladderStart)
		wall += took
		res.Cycles = append(res.Cycles, cycleStats{
			Batch: g.batch, SetupS: setup,
			ObserveP50: median(obsRef), ObserveP99: quantile(obsRef, 0.99), Observes: len(obsRef),
			AdmitP50: median(admitRef), AdmitP99: quantile(admitRef, 0.99), Admits: len(admitRef),
		})

		after, err := getStatus(ctl, base)
		if err != nil {
			return err
		}
		m1, err := scrape(ctl, base)
		if err != nil {
			return err
		}
		// Output checks: every applied sample is counted by the
		// daemon, and the VM count moved by exactly the acknowledged
		// admits and removes.
		if got := after.Ingest.Samples - before.Ingest.Samples; got != uint64(applied) {
			return fmt.Errorf("2xx observe replies applied %d samples, score_ingest_samples_total moved by %d", applied, got)
		}
		if want := before.VMs + admits - removes; after.VMs != want {
			return fmt.Errorf("/v1/status reports %d VMs, want %d (%d admitted, %d removed)", after.VMs, want, admits, removes)
		}
		backpressure += after.Ingest.Backpressure - before.Ingest.Backpressure
		if hists == nil {
			hists = map[string]*promHist{}
		}
		for name, h := range m1.Hists {
			hists[name] = hists[name].plus(h.minus(m0.Hists[name]))
		}
		return nil
	}
	for c := 0; c < lc.Cycles; c++ {
		p, alloc, err := serving(c)
		if err != nil {
			return nil, err
		}
		if err := cycle(c, p, alloc); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
	}

	// The headline latencies are the median over the cycles, so a slow
	// period of the host that falls on one cycle does not move them.
	var op50, op99, ap50, ap99 []float64
	for _, cs := range res.Cycles {
		res.Batch += cs.Batch / float64(len(res.Cycles))
		op50, op99 = append(op50, cs.ObserveP50), append(op99, cs.ObserveP99)
		ap50, ap99 = append(ap50, cs.AdmitP50), append(ap99, cs.AdmitP99)
		res.ObserveRef += cs.Observes
		res.AdmitRef += cs.Admits
	}
	res.ObserveP50, res.ObserveP99 = median(op50), median(op99)
	res.AdmitP50, res.AdmitP99 = median(ap50), median(ap99)
	res.WallS = wall.Seconds()
	res.MaxSPS, res.LadderTopPass = maxRate(res.Rungs, lc.LimitMS)
	res.LagP99 = quantile(lags, 0.99)

	// Layer figures from the daemons' /metrics, over the ladder only.
	wait, fold, rnd := hists["score_op_wait_seconds"], hists["score_ingest_fold_seconds"], hists["score_round_latency_seconds"]
	res.layer["serve.op_wait_ms_p50"] = wait.quantile(0.5) * 1e3
	res.layer["serve.op_wait_ms_p99"] = wait.quantile(0.99) * 1e3
	res.layer["serve.fold_ms_p50"] = fold.quantile(0.5) * 1e3
	res.layer["serve.fold_ms_p99"] = fold.quantile(0.99) * 1e3
	res.layer["serve.round_ms_p50"] = rnd.quantile(0.5) * 1e3
	res.layer["serve.lock_busy_share"] = rnd.sum() / wall.Seconds()
	res.layer["serve.route_observe_ms_p50"] = hists[`score_http_request_seconds{route="/v1/observe"}`].quantile(0.5) * 1e3
	res.layer["serve.route_admit_ms_p50"] = hists[`score_http_request_seconds{route="/v1/vms"}`].quantile(0.5) * 1e3
	res.layer["serve.backpressure"] = float64(backpressure)
	res.layer["serve.generator_lag_ms_p99"] = res.LagP99
	return res, nil
}
