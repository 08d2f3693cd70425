package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// plant is one generated instance: a fat-tree, an initial placement and
// a traffic matrix. The cluster is a template — every plane that runs
// on the plant works on its own clone, so one plant can be converged
// again from the same start.
type plant struct {
	k    int // fat-tree arity (the daemon rebuilds the topology from it)
	topo topology.Topology
	cl   *cluster.Cluster
	tm   *traffic.Matrix
	cost core.CostModel
	cfg  core.Config
}

// subSeed derives the seed of instance i of a run from the run's seed
// (splitmix64 finalizer), so instances are independent but fixed by
// the run seed.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func fromScenario(k int, sc *experiments.Scenario) *plant {
	// The scenario's engine observes the cluster; the plant only keeps
	// the inputs, so detach it.
	sc.Eng.Detach()
	return &plant{k: k, topo: sc.Topo, cl: sc.Cl, tm: sc.TM, cost: sc.Eng.CostModel(), cfg: sc.Eng.Config()}
}

// hotspotPlant is the scale scenario: fat-tree k=16, 30 VMs per host
// (30,720 VMs) in topology order, with the paper's hotspot traffic
// generator at the sparse density.
func hotspotPlant(seed int64) (*plant, error) {
	const k = 16
	sc, err := experiments.NewFatTreeScenario(k, 30, experiments.Sparse, seed)
	if err != nil {
		return nil, err
	}
	return fromScenario(k, sc), nil
}

// podLocalPlant is the hotspot plant's topology and placement with
// pod-local elephant traffic instead of the hotspot matrix.
func podLocalPlant(seed int64) (*plant, error) {
	p, err := hotspotPlant(seed)
	if err != nil {
		return nil, err
	}
	p.tm = podLocalTraffic(p.topo, p.cl, rand.New(rand.NewSource(seed^0x70d10ca1)))
	return p, nil
}

// podLocalTraffic gives about half the VMs one elephant flow to a VM in
// another rack of the same pod (log-normal rate, median ≈45 Mb/s,
// capped at 400). Every flow can be made rack-local by a move inside
// its pod, so the controller's locality summary favours many shards.
func podLocalTraffic(topo topology.Topology, cl *cluster.Cluster, rng *rand.Rand) *traffic.Matrix {
	vms := cl.VMs()
	byPod := map[int][]cluster.VMID{}
	for _, vm := range vms {
		p := topo.PodOf(cl.HostOf(vm))
		byPod[p] = append(byPod[p], vm)
	}
	b := traffic.NewBuilder(len(vms) / 2)
	for _, u := range vms {
		if rng.Float64() >= 0.5 {
			continue
		}
		hu := cl.HostOf(u)
		set := byPod[topo.PodOf(hu)]
		v := u
		for tries := 0; tries < 16 && (v == u || topo.RackOf(cl.HostOf(v)) == topo.RackOf(hu)); tries++ {
			v = set[rng.Intn(len(set))]
		}
		if v == u || topo.RackOf(cl.HostOf(v)) == topo.RackOf(hu) {
			continue
		}
		b.Add(u, v, math.Min(400, math.Exp(3.8+0.6*rng.NormFloat64())))
	}
	return b.Build()
}

// densePlant is the paper-scale fat-tree instance: k=16, 4 VMs per host
// (4,096 VMs) placed at random on 16-slot servers, hotspot traffic
// scaled ×50 (the paper's dense TM).
func densePlant(seed int64) (*plant, error) {
	sc, err := experiments.NewScenario(experiments.FatTree, experiments.ScalePaper, experiments.Dense, seed)
	if err != nil {
		return nil, err
	}
	if _, ok := sc.Topo.(*topology.FatTree); !ok {
		return nil, fmt.Errorf("dense plant: expected a fat-tree, got %T", sc.Topo)
	}
	return fromScenario(16, sc), nil
}

// engine builds a decision engine over a private clone of the plant's
// initial placement.
func (p *plant) engine() (*core.Engine, error) {
	return core.NewEngine(p.topo, p.cost, p.cl.Clone(), p.tm, p.cfg)
}

// checkCapacity recomputes every host's load from a placement alone —
// one slot, the VM's memory and its CPU per placed VM, with the VM and
// host sizes read from the plant's untouched template — and reports the
// first host over its slots, memory or CPU (when it declares CPU), or a
// VM that is missing, unplaced or unknown to the plant.
func checkCapacity(p *plant, alloc map[cluster.VMID]cluster.HostID) error {
	if len(alloc) != p.cl.NumVMs() {
		return fmt.Errorf("placement holds %d VMs, the plant %d", len(alloc), p.cl.NumVMs())
	}
	type load struct{ slots, ramMB, cpuMilli int }
	used := make([]load, p.cl.NumHosts())
	for vm, h := range alloc {
		v, err := p.cl.VM(vm)
		if err != nil {
			return err
		}
		if h < 0 || int(h) >= len(used) {
			return fmt.Errorf("VM %d placed on host %d, outside 0..%d", vm, h, len(used)-1)
		}
		used[h].slots++
		used[h].ramMB += v.RAMMB
		used[h].cpuMilli += v.CPUMilli
	}
	for h, u := range used {
		host, err := p.cl.Host(cluster.HostID(h))
		if err != nil {
			return err
		}
		if u.slots > host.Slots || u.ramMB > host.RAMMB || (host.CPUMilli > 0 && u.cpuMilli > host.CPUMilli) {
			return fmt.Errorf("host %d over capacity: %d/%d slots, %d/%d MB, %d/%d millicores",
				h, u.slots, host.Slots, u.ramMB, host.RAMMB, u.cpuMilli, host.CPUMilli)
		}
	}
	return nil
}

// checkAccounting verifies that the summed realized ΔC of the applied
// moves equals the drop in total cost, to 1e-9 relative to the
// initial cost.
func checkAccounting(c0, c1, realized float64) error {
	if diff := math.Abs((c0 - c1) - realized); diff > 1e-9*math.Abs(c0) {
		return fmt.Errorf("summed ΔC %.17g != initial-final cost %.17g (|diff| %.3g)", realized, c0-c1, diff)
	}
	return nil
}
