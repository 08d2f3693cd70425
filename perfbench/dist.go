package main

import (
	"fmt"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
)

// distShards is the agent plane's ring count: one ring per four pods of
// the k=16 fat-tree.
const distShards = 4

// distPlane is the dom0 agent plane: one hypervisor.Agent per host over
// an in-memory hub and a Reconciler driving sharded rounds. A mirror
// engine replays every committed move, so the benchmark can check
// capacity and cost accounting against the in-process cost function.
type distPlane struct {
	p      *plant
	agents []*hypervisor.Agent
	rec    *hypervisor.Reconciler
	mirror *core.Engine
}

func newDist(p *plant, traced bool) (*distPlane, error) {
	mirror, err := p.engine()
	if err != nil {
		return nil, err
	}
	x := &distPlane{p: p, mirror: mirror}
	hub := hypervisor.NewMemHub()
	reg := hypervisor.NewRegistry()
	cl := mirror.Cluster()
	for h := 0; h < cl.NumHosts(); h++ {
		host, err := cl.Host(cluster.HostID(h))
		if err != nil {
			x.close()
			return nil, err
		}
		ag, err := hypervisor.NewAgent(hypervisor.AgentConfig{
			HostID: host.ID, Slots: host.Slots, RAMMB: host.RAMMB,
			Topo: p.topo, Cost: p.cost, MigrationCost: p.cfg.MigrationCost,
			Policy: token.HighestLevelFirst{},
		}, reg)
		if err != nil {
			x.close()
			return nil, err
		}
		addr := fmt.Sprintf("dom0-%d", h)
		if err := ag.Start(func(hd hypervisor.Handler) (hypervisor.Transport, error) { return hub.NewEndpoint(addr, hd) }); err != nil {
			x.close()
			return nil, err
		}
		x.agents = append(x.agents, ag)
	}
	for _, vm := range cl.VMs() {
		v, err := cl.VM(vm)
		if err != nil {
			x.close()
			return nil, err
		}
		rates := make(map[cluster.VMID]float64)
		for _, ed := range p.tm.NeighborEdges(vm) {
			rates[ed.Peer] = ed.Rate
		}
		if err := x.agents[cl.HostOf(vm)].AddVM(vm, v.RAMMB, rates); err != nil {
			x.close()
			return nil, err
		}
	}
	rcfg := hypervisor.ReconcilerConfig{
		Topo: p.topo, Cost: p.cost, MigrationCost: p.cfg.MigrationCost,
		Shards: distShards, Granularity: shard.ByPod,
	}
	if traced {
		rcfg.Metrics = hypervisor.NewPlaneMetrics(obs.NewRegistry())
		rcfg.Trace = obs.NewTracer(obsRing)
		rcfg.Audit = obs.NewAuditRing(obsRing)
	}
	if x.rec, err = hypervisor.NewReconciler(rcfg, reg); err != nil {
		x.close()
		return nil, err
	}
	if err := x.rec.Start(func(hd hypervisor.Handler) (hypervisor.Transport, error) { return hub.NewEndpoint("reconciler", hd) }); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

// converge runs reconciler rounds until one applies nothing. Every
// committed move is replayed onto the mirror, from the host the mirror
// has the VM on, so the shared checks see the agents' placement.
func (x *distPlane) converge(tr *tracer, parent int) (*convergence, error) {
	cl := x.mirror.Cluster()
	return convergeRounds(x.p, x.mirror, "hypervisor.Reconciler.RunRound", func(*tracer, int) (roundRec, []core.Decision, error) {
		t0 := time.Now()
		rep, err := x.rec.RunRound()
		if err != nil {
			return roundRec{}, nil, err
		}
		rec := roundRec{
			MS: msSince(t0), Shards: rep.Shards, Hops: rep.TotalHops,
			CrossApplied: rep.CrossApplied, CrossRejected: rep.CrossRejected, Stale: rep.StaleRejected,
			Regenerated: rep.Regenerated,
		}
		for _, r := range rep.Rings {
			rec.Proposed += r.Proposed
			rec.RingMaxMS = max(rec.RingMaxMS, float64(r.Latency.Nanoseconds())/1e6)
		}
		for _, d := range rep.Applied {
			if got := cl.HostOf(d.VM); got != d.From {
				return rec, nil, fmt.Errorf("moved VM %d from host %d, but the mirror has it on %d", d.VM, d.From, got)
			}
			if err := cl.Move(d.VM, d.Target); err != nil {
				return rec, nil, fmt.Errorf("replaying VM %d → host %d: %w", d.VM, d.Target, err)
			}
		}
		return rec, rep.Applied, nil
	}, tr, parent)
}

func (x *distPlane) close() {
	if x.rec != nil {
		_ = x.rec.Close()
	}
	for _, a := range x.agents {
		_ = a.Close()
	}
	x.mirror.Detach()
}
