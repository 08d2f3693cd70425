package main

import (
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/experiments"
)

// The metric and workload lists in BENCHMARK.json must be exactly what
// the program emits, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit, Better string }
	var spec struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var prog []string
	for _, w := range workloads {
		prog = append(prog, w.name)
	}
	if !equalSets(wl, prog) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wl, prog)
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
	if !equalSets(names, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", names, endToEnd)
	}
	var layer []string
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
	if !equalSets(layer, perLayer()) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", layer, perLayer())
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResultEncoding(t *testing.T) {
	r := &result{Correct: true, Attempted: 3, Metrics: map[string]metric{
		"converge_s": {1.5, "s"}, "cost_ratio": {math.NaN(), "ratio"},
	}}
	if err := r.complete([]string{"converge_s"}); err == nil {
		t.Fatal("a NaN metric must be reported")
	}
	if _, ok := r.Metrics["cost_ratio"]; ok {
		t.Fatal("the NaN metric must be dropped")
	}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	if !equalSets(got, []string{"correct", "attempted", "failed", "metrics"}) {
		t.Errorf("result keys %v", got)
	}
	var m struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(buf, &m); err != nil || m.Metrics["converge_s"].Unit != "s" || m.Metrics["converge_s"].Value != 1.5 {
		t.Errorf("metrics encoded as %s", buf)
	}
}

func TestGeneratorRung(t *testing.T) {
	lc := defaultLadder
	g := &generator{lc: lc, bodies: [][]byte{[]byte("a"), []byte("b"), []byte("c")}, batch: 2, nextVM: 1000}
	lists := g.rung(800, time.Second, true)
	obs, admits := 0, 0
	for c, ops := range lists {
		seen := map[cluster.VMID]bool{}
		for i, op := range ops {
			if i > 0 && op.at < ops[i-1].at {
				t.Fatalf("connection %d: ops out of schedule order", c)
			}
			switch op.kind {
			case opObserve:
				obs++
			case opAdmit:
				admits++
				seen[op.vm] = true
			case opRemove:
				if !seen[op.vm] {
					t.Fatalf("connection %d removes VM %d before admitting it", c, op.vm)
				}
				if op.at >= time.Second {
					t.Fatalf("remove scheduled past the rung")
				}
			}
		}
	}
	if obs != 400 {
		t.Errorf("%d observes of 2 samples at 800 samples/s over 1s", obs)
	}
	if want := int(math.Ceil((1 - lc.RemoveAfter.Seconds()) * lc.AdmitHz)); admits != want {
		t.Errorf("%d admits, want %d", admits, want)
	}
	if g.next != 400 || g.nextVM != 1000+cluster.VMID(admits) {
		t.Errorf("generator did not advance: next %d, nextVM %d", g.next, g.nextVM)
	}
}

// An op that waits for an earlier reply on its connection counts from
// its scheduled time; one sent on an idle connection counts from its
// send.
func TestRunOpsLatencyStart(t *testing.T) {
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(60 * time.Millisecond)
		}
		w.Write([]byte(`{"applied":1}`))
	}))
	defer srv.Close()
	ops := []*loadOp{
		{kind: opObserve, at: 0, body: []byte("{}")},
		{kind: opObserve, at: 10 * time.Millisecond, body: []byte("{}")},
		{kind: opObserve, at: 200 * time.Millisecond, body: []byte("{}")},
	}
	runOps(httpClient(), srv.URL, ops, time.Now(), 0, nil, 0)
	for i, op := range ops {
		if !op.ok() {
			t.Fatalf("op %d: code %d, err %v", i, op.code, op.err)
		}
	}
	if busy := ops[1]; busy.from != busy.at || busy.sent < 60*time.Millisecond {
		t.Errorf("op queued behind a slow reply counts from %v (scheduled %v, sent %v)", busy.from, busy.at, busy.sent)
	}
	if idle := ops[2]; idle.from != idle.sent || idle.sent < idle.at {
		t.Errorf("op on an idle connection counts from %v (scheduled %v, sent %v)", idle.from, idle.at, idle.sent)
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0); id != 0 || off.write("unused") != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	off.end(0)
	tr := newTracer("run")
	outer := tr.begin("outer", 0)
	inner := tr.begin("inner", outer)
	tr.end(inner)
	tr.end(outer)
	if s := tr.spans[inner-1]; s.Parent != outer || s.End < s.Start || s.Name != "inner" {
		t.Fatalf("spans %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Run   string
		Spans []span
	}
	buf, _ := os.ReadFile(path)
	if err := json.Unmarshal(buf, &got); err != nil || got.Run != "run" || len(got.Spans) != 2 {
		t.Fatalf("wrote %s", buf)
	}
}

// smallPlant is a k=4 fat-tree with 4 VMs per host: every plane runs on
// it in well under a second.
func smallPlant(t *testing.T, seed int64) *plant {
	t.Helper()
	sc, err := experiments.NewFatTreeScenario(4, 4, experiments.Sparse, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fromScenario(4, sc)
}

type plane interface {
	converge(tr *tracer, parent int) (*convergence, error)
	close()
}

// Every plane converges the same small plant, passes its own output
// checks, and repeats itself exactly.
func TestPlanesConverge(t *testing.T) {
	p := smallPlant(t, 7)
	for name, mk := range map[string]func(*plant, bool) (plane, error){
		"inproc": func(p *plant, traced bool) (plane, error) { return newInproc(p, traced) },
		"agents": func(p *plant, traced bool) (plane, error) { return newDist(p, traced) },
	} {
		var first *convergence
		for run := 0; run < 2; run++ {
			pl, err := mk(p, run == 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cv, err := pl.converge(newTracer(name), 0)
			pl.close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cv.Moves == 0 || !(cv.ratio() < 1) {
				t.Fatalf("%s: %d moves, cost ratio %v", name, cv.Moves, cv.ratio())
			}
			if first == nil {
				first = cv
			} else if err := sameConvergence(first, cv); err != nil {
				t.Fatalf("%s traced vs untraced: %v", name, err)
			}
		}
	}
}

func TestServeLadderSmall(t *testing.T) {
	p := smallPlant(t, 3)
	lc := defaultLadder
	lc.LimitMS, lc.Interval = 250, 50*time.Millisecond
	lc.Rates = []float64{400, 800, 1600}
	lc.Warmup = 50 * time.Millisecond
	lc.AdmitHz, lc.RemoveAfter = 50, 50*time.Millisecond // the small plant has 48 free slots
	var asked []int
	serving := func(c int) (*plant, map[cluster.VMID]cluster.HostID, error) {
		asked = append(asked, c)
		return p, p.cl.Snapshot(), nil
	}
	sr, err := serveLadder(lc, 4, 3, t.TempDir(), newTracer("serve"), serving)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != lc.Cycles || asked[lc.Cycles-1] != lc.Cycles-1 || len(sr.Cycles) != lc.Cycles {
		t.Errorf("asked for the plants of cycles %v, %d cycles measured; want 0..%d", asked, len(sr.Cycles), lc.Cycles-1)
	}
	if sr.Failed != 0 || sr.ObserveRef == 0 || sr.AdmitRef == 0 || len(sr.Rungs) == 0 || !(sr.MaxSPS > 0) || !(sr.Batch > 0) {
		t.Fatalf("serve result %+v", sr)
	}
	for _, k := range []string{"serve.op_wait_ms_p50", "serve.route_observe_ms_p50", "serve.lock_busy_share"} {
		if _, ok := sr.layer[k]; !ok {
			t.Errorf("layer metric %s missing", k)
		}
	}

	// A limit no rung meets: the climb stops at its first rung, and each
	// cycle's saturating burst, offered far more than the daemon
	// completes, stops sending when its time is up.
	lc.LimitMS, lc.SatFactor = 1e-6, 1000
	start := time.Now()
	sr, err = serveLadder(lc, 4, 3, t.TempDir(), nil, serving)
	if err != nil {
		t.Fatal(err)
	}
	var bursts int
	var windows []float64
	for _, r := range sr.Rungs {
		if r.Saturate {
			if !r.overloaded() {
				t.Errorf("burst %+v kept up with 1000 times the failing rate", r)
			}
			bursts++
			windows = append(windows, r.WindowSPS...)
		}
	}
	if len(sr.Rungs) != 1+lc.Cycles*(lc.RefRung+2) || bursts != lc.Cycles || sr.MaxSPS != median(windows) {
		t.Fatalf("rungs %+v, max %v", sr.Rungs, sr.MaxSPS)
	}
	if took := time.Since(start); took > 12*time.Second {
		t.Errorf("the serve phase took %v, bursts must stop at their time", took)
	}
}

// Each pair is reported by the host of each of its VMs, once when they
// share a host.
func TestHostReports(t *testing.T) {
	p := smallPlant(t, 4)
	alloc := p.cl.Snapshot()
	bodies, batch := defaultLadder.hostReports(p, alloc, rand.New(rand.NewSource(1)))
	seen := map[[2]uint32]int{}
	total := 0
	for _, b := range bodies {
		var rep struct {
			Samples []struct {
				A, B uint32
				Rate float64 `json:"rate_mbps"`
			}
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		total += len(rep.Samples)
		for _, s := range rep.Samples {
			seen[[2]uint32{s.A, s.B}]++
		}
	}
	pairs, rates := p.tm.Pairs()
	for j, pr := range pairs {
		want := 2
		if alloc[pr.A] == alloc[pr.B] {
			want = 1
		}
		if got := seen[[2]uint32{uint32(pr.A), uint32(pr.B)}]; got != want {
			t.Errorf("pair %v (rate %v) reported %d times, want %d", pr, rates[j], got, want)
		}
	}
	if !near(batch, float64(total)/float64(len(bodies))) {
		t.Errorf("mean batch %v, want %v", batch, float64(total)/float64(len(bodies)))
	}
}

func TestProbes(t *testing.T) {
	p := smallPlant(t, 5)
	tr := newTracer("probe")
	k, err := probeKernel(p, 5, tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := probeMerge(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := probeToken(p, 16, tr)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"core.view_best_us": k["core.view_best_us"], "core.delta_ns": k["core.delta_ns"],
		"shard.merge_us_per_move": m["shard.merge_us_per_move"], "token.codec_us": c["token.codec_us"],
	} {
		if !(v > 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
	if f := k["core.found_ratio"]; f < 0 || f > 1 {
		t.Errorf("found ratio %v", f)
	}
}

// The capacity check sums each host's load from the placement itself.
func TestCheckCapacity(t *testing.T) {
	p := smallPlant(t, 6)
	alloc := p.cl.Snapshot()
	if err := checkCapacity(p, alloc); err != nil {
		t.Fatalf("initial placement: %v", err)
	}
	crowded := maps.Clone(alloc)
	for vm := range crowded {
		crowded[vm] = 0
	}
	if checkCapacity(p, crowded) == nil {
		t.Error("every VM on host 0 must be over capacity")
	}
	missing := maps.Clone(alloc)
	for vm := range missing {
		delete(missing, vm)
		break
	}
	if checkCapacity(p, missing) == nil {
		t.Error("a VM missing from the placement must be reported")
	}
	unplaced := maps.Clone(alloc)
	for vm := range unplaced {
		unplaced[vm] = cluster.NoHost
		break
	}
	if checkCapacity(p, unplaced) == nil {
		t.Error("an unplaced VM must be reported")
	}
}
