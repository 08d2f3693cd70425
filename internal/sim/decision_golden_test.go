package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// moveHash folds applied moves into an FNV-64a digest of their
// (VM, From, Target, ΔC bits) stream, in application order.
type moveHash struct {
	n   int
	buf [32]byte
	sum uint64
}

func (h *moveHash) add(vm cluster.VMID, from, to cluster.HostID, delta float64) {
	f := fnv.New64a()
	binary.LittleEndian.PutUint64(h.buf[0:], h.sum)
	binary.LittleEndian.PutUint64(h.buf[8:], uint64(vm))
	binary.LittleEndian.PutUint32(h.buf[16:], uint32(from))
	binary.LittleEndian.PutUint32(h.buf[20:], uint32(to))
	binary.LittleEndian.PutUint64(h.buf[24:], math.Float64bits(delta))
	f.Write(h.buf[:])
	h.sum = f.Sum64()
	h.n++
}

// goldenEngine builds a small plant with capacity pressure (6 slots for
// a mean of 4 VMs per host) so the same-rack fallback and the admission
// checks take part in the decisions.
func goldenEngine(t *testing.T, fatTree bool, seed int64, cfg core.Config) *core.Engine {
	t.Helper()
	var topo topology.Topology
	var err error
	if fatTree {
		topo, err = topology.NewFatTree(8, 1000)
	} else {
		topo, err = topology.NewCanonicalTree(topology.ScaledCanonicalConfig(8, 4))
	}
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 6, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pm := cluster.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*4; i++ {
		if _, err := pm.CreateVM(1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDecisionStreamGolden converges small fat-tree and canonical-tree
// plants through the sharded coordinator and the single-token
// discrete-event runner and pins the digest of every applied
// (VM, From, Target, ΔC bits). Any change to the decision kernel that
// alters a decision, its order, or a ΔC in the last bit shows here. The
// digests were recorded from the per-candidate scan that ran Admissible
// then Delta on every probed host.
func TestDecisionStreamGolden(t *testing.T) {
	tight := core.Config{MigrationCost: 5, BandwidthThreshold: 0.9, MaxCandidates: 3}
	cases := []struct {
		name    string
		fatTree bool
		seed    int64
		cfg     core.Config
		sharded bool
		moves   int
		want    uint64
	}{
		{"canonical/default/coordinator", false, 3, core.DefaultConfig(), true, 89, 0xf727b2c97a36461a},
		{"canonical/default/runner", false, 3, core.DefaultConfig(), false, 114, 0xa4bae08892b9ad79},
		{"canonical/tight/coordinator", false, 4, tight, true, 56, 0x62c8479bb660b6e2},
		{"canonical/tight/runner", false, 4, tight, false, 59, 0xa6d6ab3ffeb40d51},
		{"fattree/default/coordinator", true, 5, core.DefaultConfig(), true, 455, 0xdeed569b142e986d},
		{"fattree/default/runner", true, 5, core.DefaultConfig(), false, 406, 0x3f77e3002738568c},
		{"fattree/tight/coordinator", true, 6, tight, true, 249, 0x03cc1f19c49fafeb},
		{"fattree/tight/runner", true, 6, tight, false, 227, 0x5a30c235f70ea75b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := goldenEngine(t, tc.fatTree, tc.seed, tc.cfg)
			var h moveHash
			if tc.sharded {
				co, err := shard.NewCoordinator(eng, shard.Config{Shards: 2, Granularity: shard.ByPod, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				res, err := co.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res.Rounds {
					for _, d := range r.Applied {
						h.add(d.VM, d.From, d.Target, d.Delta)
					}
				}
			} else {
				// The runner applies each decision at once, so ΔC is
				// recomputed at the observer over the pre-move levels:
				// only the mover changed host, so its peers' hosts are
				// the ones the decision saw.
				cl, tm, cm, topo := eng.Cluster(), eng.Traffic(), eng.CostModel(), eng.Topology()
				detach := cl.Observe(func(vm cluster.VMID, from, to cluster.HostID) {
					var delta float64
					for _, ed := range tm.NeighborEdges(vm) {
						hz := cl.HostOf(ed.Peer)
						if hz == cluster.NoHost {
							continue
						}
						delta += 2 * ed.Rate * (cm.Prefix(topo.Level(hz, from)) - cm.Prefix(topo.Level(hz, to)))
					}
					h.add(vm, from, to, delta)
				}, func() {})
				defer detach()
				cfg := smallConfig()
				cfg.MaxIterations = 6
				r, err := NewRunner(eng, token.HighestLevelFirst{}, cfg, rand.New(rand.NewSource(tc.seed)))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if h.n == 0 {
				t.Fatal("no migrations applied; the golden stream would be empty")
			}
			if h.n != tc.moves || h.sum != tc.want {
				t.Errorf("decision stream: %d moves, digest %#016x; want %d moves, digest %#016x", h.n, h.sum, tc.moves, tc.want)
			}
		})
	}
}
