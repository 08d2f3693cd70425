package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// refState is what the reference scan reads: an Engine or an AllocView.
type refState interface {
	HostOf(vm cluster.VMID) cluster.HostID
	Admissible(u cluster.VMID, target cluster.HostID) bool
	Delta(u cluster.VMID, target cluster.HostID) float64
}

// refBestMigration is the brute-force Section V-B scan the candidate
// scan must reproduce bit for bit: rank the neighbors by level then
// rate, probe each neighbor's server and the rest of its rack, and run
// Admissible then Delta on every probed host.
func refBestMigration(e *Engine, st refState, u cluster.VMID) (Decision, bool) {
	cur := st.HostOf(u)
	if cur == cluster.NoHost {
		return Decision{}, false
	}
	topo, cfg := e.Topology(), e.Config()
	type entry struct {
		host  cluster.HostID
		level int
		rate  float64
	}
	var rank []entry
	for _, ed := range e.Traffic().NeighborEdges(u) {
		hz := st.HostOf(ed.Peer)
		lvl := topo.Depth()
		if hz != cluster.NoHost {
			lvl = topo.Level(cur, hz)
		}
		rank = append(rank, entry{hz, lvl, ed.Rate})
	}
	slices.SortStableFunc(rank, func(a, b entry) int {
		if a.level != b.level {
			return b.level - a.level
		}
		switch {
		case a.rate > b.rate:
			return -1
		case a.rate < b.rate:
			return 1
		}
		return 0
	})
	span := max(topo.Hosts(), e.Cluster().NumHosts())
	probed := map[cluster.HostID]bool{}
	best := Decision{VM: u, From: cur, Target: cluster.NoHost}
	probes, limit := 0, cfg.MaxCandidates
	consider := func(h cluster.HostID) {
		if h == cur || h < 0 || int(h) >= span || probed[h] {
			return
		}
		probed[h] = true
		probes++
		if !st.Admissible(u, h) {
			return
		}
		if d := st.Delta(u, h); best.Target == cluster.NoHost || d > best.Delta {
			best.Target, best.Delta = h, d
		}
	}
	for _, ent := range rank {
		if limit > 0 && probes >= limit {
			break
		}
		if ent.host == cluster.NoHost {
			continue
		}
		consider(ent.host)
		if r := topo.RackOf(ent.host); r >= 0 && r < topo.Racks() {
			for _, alt := range topo.HostsInRack(r) {
				if limit > 0 && probes >= limit {
					break
				}
				consider(alt)
			}
		}
	}
	if best.Target == cluster.NoHost || best.Delta <= cfg.MigrationCost {
		return Decision{}, false
	}
	return best, true
}

// scanPlant builds a plant for the differential test: random placement
// with capacity pressure (5 slots for a mean of 4 placed VMs per host),
// generated traffic, and a few registered but unplaced VMs that carry
// traffic to placed ones.
func scanPlant(t *testing.T, topo topology.Topology, hosts int, seed int64) (*cluster.Cluster, *traffic.Matrix) {
	t.Helper()
	cl, err := cluster.New(cluster.UniformHosts(hosts, 5, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pm := cluster.NewPlacementManager(cl, 1)
	for i := 0; i < hosts*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	placed := cl.VMs()
	var tm *traffic.Matrix
	if hosts > topo.Hosts() {
		// The generator needs every VM inside the topology; pair VMs at
		// random instead, mixing mice and elephants.
		tm = traffic.NewMatrix()
		for _, u := range placed {
			for j := 0; j < 3; j++ {
				rate := 1 + rng.Float64()*10
				if rng.Intn(4) == 0 {
					rate = 100 + rng.Float64()*400
				}
				if w := placed[rng.Intn(len(placed))]; w != u {
					tm.Set(u, w, rate)
				}
			}
		}
	} else if tm, err = traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		id := cluster.VMID(100000 + i)
		if err := cl.AddVM(cluster.VM{ID: id, RAMMB: 512}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			tm.Set(id, placed[rng.Intn(len(placed))], 1+rng.Float64()*200)
		}
	}
	return cl, tm
}

// TestScanMatchesReference compares the candidate scan against the
// brute-force reference for every VM, on the Engine and on an AllocView
// that stages the reference's own decisions as it goes, across
// topologies, candidate bounds, bandwidth thresholds, an admission hook,
// a positive migration cost and unplaced peers.
func TestScanMatchesReference(t *testing.T) {
	canon, err := topology.NewCanonicalTree(topology.ScaledCanonicalConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	fat, err := topology.NewFatTree(6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster-larger-than-topology shape: hosts past the topology's
	// range have no rack table entry and no same-rack fallback.
	small, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 2, HostsPerRack: 2, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 1000, AggUplinkMbps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	plants := []struct {
		name  string
		topo  topology.Topology
		hosts int
	}{
		{"canonical", canon, canon.Hosts()},
		{"fattree", fat, fat.Hosts()},
		{"larger-than-topology", small, small.Hosts() + 4},
	}
	cm, err := NewCostModel(PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	hook := func(vm cluster.VMID, target cluster.HostID) bool { return (int(vm)+int(target))%5 != 0 }
	for pi, p := range plants {
		for _, maxCand := range []int{0, 1, 3, 7} {
			for _, bw := range []string{"off", "0.9", "saturating"} {
				for _, variant := range []string{"plain", "hook+cost"} {
					name := fmt.Sprintf("%s/cand=%d/bw=%s/%s", p.name, maxCand, bw, variant)
					t.Run(name, func(t *testing.T) {
						// Two engines over identical plants: one applies its
						// decisions, the other stages them in a view.
						var engs [2]*Engine
						for i := range engs {
							cl, tm := scanPlant(t, p.topo, p.hosts, int64(7+pi))
							cfg := Config{MaxCandidates: maxCand}
							if variant != "plain" {
								cfg.Admission, cfg.MigrationCost = hook, 3
							}
							switch bw {
							case "0.9":
								cfg.BandwidthThreshold = 0.9
							case "saturating":
								cfg.BandwidthThreshold = saturatingThreshold(t, p.topo, cm, cl, tm)
							}
							if engs[i], err = NewEngine(p.topo, cm, cl, tm, cfg); err != nil {
								t.Fatal(err)
							}
						}
						compareScans(t, engs[0], engs[1])
					})
				}
			}
		}
	}
}

// saturatingThreshold picks the bandwidth threshold at the median host
// NIC load, so about half the hosts sit above their limit and the NIC
// check decides many probes.
func saturatingThreshold(t *testing.T, topo topology.Topology, cm CostModel, cl *cluster.Cluster, tm *traffic.Matrix) float64 {
	t.Helper()
	probe, err := NewEngine(topo, cm, cl, tm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Detach()
	loads := make([]float64, cl.NumHosts())
	for h := range loads {
		loads[h] = probe.HostNetLoad(cluster.HostID(h))
	}
	slices.Sort(loads)
	return math.Min(1, math.Max(0.01, loads[len(loads)/2]/1000))
}

// compareScans checks every VM's decision on eng, which applies its
// moves, and on a view over viewEng, which stages them.
func compareScans(t *testing.T, eng, viewEng *Engine) {
	t.Helper()
	vms := eng.Cluster().VMs()
	check := func(plane string, e *Engine, st refState, got Decision, gotOK bool, u cluster.VMID) {
		t.Helper()
		want, wantOK := refBestMigration(e, st, u)
		if gotOK != wantOK || got.VM != want.VM || got.From != want.From || got.Target != want.Target ||
			math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
			t.Fatalf("%s VM %d: scan = %+v, %v; reference = %+v, %v", plane, u, got, gotOK, want, wantOK)
		}
	}
	// The engine applies its decisions as it goes, so later decisions
	// read moved peers and incrementally folded NIC loads.
	applied := 0
	for _, u := range vms {
		d, ok := eng.BestMigration(u)
		check("engine", eng, eng, d, ok, u)
		if ok {
			if _, err := eng.Apply(d); err != nil {
				t.Fatalf("Apply(%+v): %v", d, err)
			}
			applied++
		}
	}
	// A view staging moves as it goes: later decisions read the overlay.
	// Starting the view's epoch just short of the wrap exercises the
	// scratch reset on overflow.
	v := viewEng.NewView()
	v.sc.epoch = math.MaxUint32 - 3
	staged := 0
	for _, u := range vms {
		d, ok := v.BestMigration(u)
		check("view", viewEng, v, d, ok, u)
		if ok {
			if _, err := v.Commit(d); err != nil {
				t.Fatalf("Commit(%+v): %v", d, err)
			}
			staged++
		}
	}
	if applied == 0 || staged == 0 {
		t.Fatalf("%d engine moves applied, %d view moves staged; the comparison needs both", applied, staged)
	}
}
