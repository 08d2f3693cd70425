package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
)

// Layer probes: each times one public entry point of a layer on frozen
// state of instance 0, from outside the program.

// kernelSample bounds the VMs and candidate pairs a kernel probe visits.
const kernelSample = 4096

// probeKernel times AllocView.BestMigration on a fresh view over the
// initial placement and Engine.Delta on (VM, peer's host) candidates.
func probeKernel(p *plant, seed int64, tr *tracer) (map[string]float64, error) {
	eng, err := p.engine()
	if err != nil {
		return nil, err
	}
	defer eng.Detach()
	rng := rand.New(rand.NewSource(seed ^ 0x6b65726e))
	vms := eng.Cluster().VMs()
	sample := make([]cluster.VMID, min(kernelSample, len(vms)))
	for i := range sample {
		sample[i] = vms[rng.Intn(len(vms))]
	}
	eng.TotalCost() // fold lazy accounting outside the timed loops

	view := eng.NewView()
	id := tr.begin("core.AllocView.BestMigration", 0)
	found := 0
	t0 := time.Now()
	for _, vm := range sample {
		if _, ok := view.BestMigration(vm); ok {
			found++
		}
	}
	best := time.Since(t0)
	tr.end(id)

	type cand struct {
		vm cluster.VMID
		h  cluster.HostID
	}
	var cands []cand
	for _, vm := range sample {
		for _, ed := range p.tm.NeighborEdges(vm) {
			cands = append(cands, cand{vm, eng.Cluster().HostOf(ed.Peer)})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("kernel probe: sampled VMs have no traffic")
	}
	reps := max(1, 200000/len(cands))
	var sink float64
	id = tr.begin("core.Engine.Delta", 0)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, c := range cands {
			sink += eng.Delta(c.vm, c.h)
		}
	}
	delta := time.Since(t0)
	tr.end(id)
	_ = sink
	return map[string]float64{
		"core.view_best_us": float64(best.Nanoseconds()) / 1e3 / float64(len(sample)),
		"core.delta_ns":     float64(delta.Nanoseconds()) / float64(reps*len(cands)),
		"core.found_ratio":  float64(found) / float64(len(sample)),
	}, nil
}

// probeMerge stages one full view pass over the initial placement (every
// VM's best move committed to the view, as a 1-shard ring pass would),
// times shard.MergeStaged on those commits, then restores the cluster.
func probeMerge(p *plant, tr *tracer) (map[string]float64, error) {
	eng, err := p.engine()
	if err != nil {
		return nil, err
	}
	defer eng.Detach()
	view := eng.NewView()
	for _, vm := range eng.Cluster().VMs() {
		if d, ok := view.BestMigration(vm); ok {
			if _, err := view.Commit(d); err != nil {
				return nil, err
			}
		}
	}
	commits := view.Commits()
	if len(commits) == 0 {
		return nil, fmt.Errorf("merge probe: the view pass staged nothing")
	}
	snap := eng.Cluster().Snapshot()
	id := tr.begin("shard.MergeStaged", 0)
	t0 := time.Now()
	applied, stale, err := shard.MergeStaged(shard.EngineEnv(eng), eng.Config().MigrationCost, commits, nil)
	el := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if len(applied)+stale != len(commits) {
		return nil, fmt.Errorf("merge probe: %d applied + %d stale != %d staged", len(applied), stale, len(commits))
	}
	if err := eng.Cluster().Restore(snap); err != nil {
		return nil, err
	}
	return map[string]float64{
		"shard.merge_us_per_move": float64(el.Nanoseconds()) / 1e3 / float64(len(commits)),
	}, nil
}

// probeToken times Token.Encode plus token.Decode for a ring of size
// ringVMs, the per-hop wire cost of the agent plane's token.
func probeToken(p *plant, ringVMs int, tr *tracer) (map[string]float64, error) {
	vms := p.cl.VMs()
	ringVMs = max(1, min(ringVMs, len(vms)))
	tok := token.New(vms[:ringVMs])
	reps := max(8, 4_000_000/ringVMs)
	id := tr.begin("token.Encode+Decode", 0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		got, err := token.Decode(tok.Encode())
		if err != nil {
			return nil, err
		}
		if got.Len() != ringVMs {
			return nil, fmt.Errorf("token probe: decoded %d entries, encoded %d", got.Len(), ringVMs)
		}
	}
	el := time.Since(t0)
	tr.end(id)
	return map[string]float64{"token.codec_us": float64(el.Nanoseconds()) / 1e3 / float64(reps)}, nil
}
