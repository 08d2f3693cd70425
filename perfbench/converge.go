package main

import (
	"fmt"
	"time"

	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
)

// roundCap bounds a convergence: S-CORE converges (every applied move
// strictly lowers a bounded cost), so hitting it is reported as an
// error, not a result.
const roundCap = 512

// obsRing is the size of the tracer and audit rings attached in the
// traced run — cmd/scored's production defaults.
const obsRing = 1 << 14

// roundRec is one scheduling round as the benchmark saw it from
// outside the plane.
type roundRec struct {
	MS            float64 `json:"ms"`
	Shards        int     `json:"shards"`
	Applied       int     `json:"applied"`
	Hops          int     `json:"hops"`
	Proposed      int     `json:"proposed"`
	CrossApplied  int     `json:"cross_applied"`
	CrossRejected int     `json:"cross_rejected"`
	Stale         int     `json:"stale"`
	// PlanMS is the time the round spent in the controller's
	// Recommendation (in-process plane only).
	PlanMS float64 `json:"plan_ms,omitempty"`
	// RingMaxMS is the slowest ring's latency and Regenerated the token
	// re-injections (agent plane only).
	RingMaxMS   float64 `json:"ring_max_ms,omitempty"`
	Regenerated int     `json:"regenerated,omitempty"`
}

// convergence is one run of a plane from the initial placement until a
// round applies no migration.
type convergence struct {
	Seconds float64    // summed round time
	Rounds  []roundRec // in order; the last applied nothing
	C0, C1  float64    // total cost C^A before and after
	Moves   int
}

func (c *convergence) ratio() float64 { return c.C1 / c.C0 }

// roundStep runs one round of a plane, inside the caller's span id,
// and returns its record and the migrations it applied.
type roundStep func(tr *tracer, id int) (roundRec, []core.Decision, error)

// convergeRounds runs step until a round applies no migration. It
// checks that every applied move has ΔC > c_m, that the summed ΔC
// equals the drop in total cost (recomputed by eng from the final
// placement), and that the final placement fits every host of p.
func convergeRounds(p *plant, eng *core.Engine, span string, step roundStep, tr *tracer, parent int) (*convergence, error) {
	cv := &convergence{C0: eng.TotalCost()}
	cm := p.cfg.MigrationCost
	var realized float64
	for len(cv.Rounds) < roundCap {
		id := tr.begin(span, parent)
		rec, applied, err := step(tr, id)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(cv.Rounds)+1, err)
		}
		for _, d := range applied {
			if !(d.Delta > cm) {
				return nil, fmt.Errorf("round %d applied VM %d → host %d with ΔC %g ≤ c_m %g", len(cv.Rounds)+1, d.VM, d.Target, d.Delta, cm)
			}
			realized += d.Delta
		}
		rec.Applied = len(applied)
		cv.Seconds += rec.MS / 1e3
		cv.Moves += rec.Applied
		cv.Rounds = append(cv.Rounds, rec)
		if rec.Applied == 0 {
			break
		}
	}
	if last := cv.Rounds[len(cv.Rounds)-1]; last.Applied != 0 {
		return nil, fmt.Errorf("no quiescent round within %d rounds", roundCap)
	}
	alloc := eng.Cluster().Snapshot()
	cv.C1 = eng.TotalCostOf(alloc)
	if err := checkAccounting(cv.C0, cv.C1, realized); err != nil {
		return nil, err
	}
	return cv, checkCapacity(p, alloc)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// timedTuner is the controller as the coordinator's shard.Tuner, timed
// from outside: Plan is exactly Controller.Plan (one Recommendation),
// so the round runs the same plan sequence as with the bare controller.
type timedTuner struct {
	ctrl   *control.Controller
	tr     *tracer
	parent int
	lastMS float64
}

func (t *timedTuner) Plan() (int, shard.Granularity) {
	id := t.tr.begin("control.Controller.Recommendation", t.parent)
	t0 := time.Now()
	rec := t.ctrl.Recommendation()
	t.lastMS = msSince(t0)
	t.tr.end(id)
	return rec.Shards, rec.Granularity
}

// inprocPlane is the auto-tuned in-process sharded coordinator, wired as
// BenchmarkRound100k wires it (controller as tuner, round-robin token
// policy per shard).
type inprocPlane struct {
	p       *plant
	eng     *core.Engine
	detach  func()
	coord   *shard.Coordinator
	tuner   *timedTuner
	metrics *shard.Metrics // traced run only
}

func newInproc(p *plant, traced bool) (*inprocPlane, error) {
	eng, err := p.engine()
	if err != nil {
		return nil, err
	}
	ccfg := control.Config{}
	cfg := shard.Config{NewPolicy: func(int) token.Policy { return token.RoundRobin{} }}
	if traced {
		reg := obs.NewRegistry()
		ccfg.Metrics = control.NewMetrics(reg)
		cfg.Metrics = shard.NewMetrics(reg)
		cfg.Trace = obs.NewTracer(obsRing)
		cfg.Audit = obs.NewAuditRing(obsRing)
	}
	ctrl := control.New(p.topo, ccfg)
	x := &inprocPlane{p: p, eng: eng, detach: ctrl.Bind(p.tm, eng.Cluster()), tuner: &timedTuner{ctrl: ctrl}, metrics: cfg.Metrics}
	cfg.Tuner = x.tuner
	if x.coord, err = shard.NewCoordinator(eng, cfg); err != nil {
		x.detach()
		eng.Detach()
		return nil, err
	}
	return x, nil
}

func (x *inprocPlane) converge(tr *tracer, parent int) (*convergence, error) {
	return convergeRounds(x.p, x.eng, "shard.Coordinator.RunRound", func(tr *tracer, id int) (roundRec, []core.Decision, error) {
		x.tuner.tr, x.tuner.parent = tr, id
		t0 := time.Now()
		rd, err := x.coord.RunRound()
		if err != nil {
			return roundRec{}, nil, err
		}
		rec := roundRec{
			MS: msSince(t0), Shards: len(rd.Shards), Hops: rd.TotalHops,
			CrossApplied: rd.CrossApplied, CrossRejected: rd.CrossRejected, Stale: rd.StaleRejected,
			PlanMS: x.tuner.lastMS,
		}
		for _, s := range rd.Shards {
			rec.Proposed += s.Proposed
		}
		return rec, rd.Applied, nil
	}, tr, parent)
}

func (x *inprocPlane) close() {
	x.coord.Close()
	x.detach()
	x.eng.Detach()
}
