package core

import (
	"fmt"

	"github.com/score-dc/score/internal/cluster"
)

// AllocView is a shard-scoped decision view over an Engine: it shares
// the engine's immutable inputs (topology, cost model, flattened level
// tables, traffic matrix, frozen per-host net loads) but owns its
// scratch buffers and overlays a private set of uncommitted moves. Many
// views can therefore evaluate and stage migration decisions
// concurrently against a frozen cluster — the building block of the
// sharded token scheduler (internal/shard), where each shard's ring
// commits intra-shard moves into its own view lock-free.
//
// Contract: between NewView and the last use of any view, the cluster,
// the traffic matrix and the engine itself must not be mutated (no
// Move/Place/Restore, no Set/Add, no engine reads that trigger
// accounting rebuilds). The coordinator enforces this by splitting
// rounds into a concurrent decision phase (views only) and a sequential
// merge phase (engine only).
//
// With an empty overlay a view reproduces the engine's decisions
// exactly: BestMigration and Admissible run the engine's own candidate
// scan and admission check against the view's allocation, and Delta
// sums the same terms as Engine.Delta (see TestViewMatchesEngine).
type AllocView struct {
	eng *Engine

	// Overlay: placements staged by Commit, and the capacity / NIC-load
	// deltas they imply, all private to this view. When the cluster's
	// dense VMID mirror exists, dense is a private copy of it with the
	// staged moves written in — HostOf is then a bounds check and a
	// slice load, matching the engine's hot path. moved tracks staged
	// placements for the sparse fallback.
	denseBase cluster.VMID
	dense     []cluster.HostID
	moved     map[cluster.VMID]cluster.HostID
	slotD     []int32
	ramD      []int32
	cpuD      []int32
	netD      []float64
	commits   []Decision

	// sc is the view's own candidate-scan scratch (the engine's is
	// reserved for its single-threaded paths).
	sc scan
}

// NewView creates a decision view over the engine's current state. It
// primes the engine's incremental accounting so concurrent views can
// read the frozen per-host net loads without synchronization; create
// views sequentially, then use them concurrently.
func (e *Engine) NewView() *AllocView {
	e.ensureAccounting()
	n := e.cl.NumHosts()
	v := &AllocView{
		eng:   e,
		slotD: make([]int32, n),
		ramD:  make([]int32, n),
		cpuD:  make([]int32, n),
		netD:  make([]float64, n),
	}
	v.sc.size(len(e.sc.probed), len(e.sc.racks), e.maxDegree)
	var ok bool
	if v.denseBase, v.dense, ok = e.cl.DenseAllocSnapshot(); !ok {
		v.moved = make(map[cluster.VMID]cluster.HostID)
	}
	return v
}

// ResetView re-primes an existing view for a fresh decision phase,
// reusing its buffers: the overlay deltas are zeroed, staged commits
// dropped, and the dense allocation mirror re-snapshotted in place. A
// reset view is indistinguishable from a NewView one — round loops keep
// per-shard views alive across rounds and pay O(hosts + |V|) stores
// instead of O(hosts + |V|) fresh allocations each round. A nil or
// foreign view falls back to NewView.
func (e *Engine) ResetView(v *AllocView) *AllocView {
	if v == nil || v.eng != e {
		return e.NewView()
	}
	e.ensureAccounting()
	n := e.cl.NumHosts()
	if len(v.slotD) != n {
		v.slotD = make([]int32, n)
		v.ramD = make([]int32, n)
		v.cpuD = make([]int32, n)
		v.netD = make([]float64, n)
	} else {
		clear(v.slotD)
		clear(v.ramD)
		clear(v.cpuD)
		clear(v.netD)
	}
	// Scan marks are epoch-scoped: stale entries from prior rounds can
	// never equal a yet-unused epoch, so the scratch carries over as-is.
	v.sc.size(len(e.sc.probed), len(e.sc.racks), e.maxDegree)
	v.commits = v.commits[:0]
	var ok bool
	if v.denseBase, v.dense, ok = e.cl.DenseAllocSnapshotInto(v.dense); ok {
		v.moved = nil
		return v
	}
	v.dense = nil
	if v.moved == nil {
		v.moved = make(map[cluster.VMID]cluster.HostID)
	} else {
		clear(v.moved)
	}
	return v
}

// HostOf returns where the view places vm: its staged position if this
// view moved it, otherwise the frozen cluster allocation.
func (v *AllocView) HostOf(vm cluster.VMID) cluster.HostID {
	if d := v.dense; d != nil {
		// A live mirror covers every registered VM (the cluster's own
		// invariant), so out-of-range IDs are unknown.
		if i := int64(vm) - int64(v.denseBase); uint64(i) < uint64(len(d)) {
			return d[i]
		}
		return cluster.NoHost
	}
	if h, ok := v.moved[vm]; ok {
		return h
	}
	return v.eng.cl.HostOf(vm)
}

// setHost stages vm at h in the overlay.
func (v *AllocView) setHost(vm cluster.VMID, h cluster.HostID) {
	if d := v.dense; d != nil {
		if i := int64(vm) - int64(v.denseBase); uint64(i) < uint64(len(d)) {
			d[i] = h
		}
		return
	}
	v.moved[vm] = h
}

// Commits returns the decisions staged so far, in commit order. The
// slice is owned by the view.
func (v *AllocView) Commits() []Decision { return v.commits }

// PairLevel returns ℓ(u, w) under the view's allocation.
func (v *AllocView) PairLevel(u, w cluster.VMID) int {
	return v.eng.levelOrDepth(v.HostOf(u), v.HostOf(w))
}

// VMLevel returns ℓ(u) = max over u's peers under the view's allocation.
func (v *AllocView) VMLevel(u cluster.VMID) int { return v.eng.vmLevel(v, u) }

// Delta returns ΔC (Eq. 5) for migrating u to target under the view's
// allocation, mirroring Engine.Delta.
func (v *AllocView) Delta(u cluster.VMID, target cluster.HostID) float64 {
	e := v.eng
	cur := v.HostOf(u)
	if cur == target || cur == cluster.NoHost || !e.validLevelHost(target) {
		return 0
	}
	var delta float64
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := v.HostOf(ed.Peer)
		if hz == cluster.NoHost {
			continue
		}
		before := e.cost.Prefix(e.level(hz, cur))
		after := e.cost.Prefix(e.level(hz, target))
		delta += 2 * ed.Rate * (before - after)
	}
	return delta
}

// fits checks slot/RAM/CPU capacity on target under the view's staged
// occupancy, mirroring cluster.Fits plus the overlay deltas.
func (v *AllocView) fits(u cluster.VMID, target cluster.HostID) bool {
	e := v.eng
	vm, err := e.cl.VM(u)
	if err != nil || target < 0 || int(target) >= e.cl.NumHosts() {
		return false
	}
	if v.HostOf(u) == target {
		return true
	}
	if e.cl.FreeSlots(target)-int(v.slotD[target]) < 1 {
		return false
	}
	if e.cl.FreeRAMMB(target)-int(v.ramD[target]) < vm.RAMMB {
		return false
	}
	host, err := e.cl.Host(target)
	if err != nil {
		return false
	}
	if host.CPUMilli > 0 && e.cl.FreeCPUMilli(target)-int(v.cpuD[target]) < vm.CPUMilli {
		return false
	}
	return true
}

// hostNetLoad is the view's external traffic on h: the engine's frozen
// per-host load plus this view's staged deltas.
func (v *AllocView) hostNetLoad(h cluster.HostID) float64 {
	if h < 0 || int(h) >= len(v.eng.hostNet) {
		return 0
	}
	return v.eng.hostNet[h] + v.netD[h]
}

// Admissible is Engine.Admissible under the view's allocation.
func (v *AllocView) Admissible(u cluster.VMID, target cluster.HostID) bool {
	return v.eng.admissible(v, u, target, nil)
}

// BestMigration evaluates the S-CORE migration policy for token-holder u
// under the view's allocation with the engine's candidate scan (see
// Engine.BestMigration).
func (v *AllocView) BestMigration(u cluster.VMID) (Decision, bool) {
	return v.eng.bestMigration(v, &v.sc, u)
}

// Commit stages a decision in the view: the VM is recorded at its new
// host and the capacity and NIC-load deltas are folded, so subsequent
// decisions in this view see the move. The underlying cluster is not
// touched; the caller replays Commits against the engine in a
// sequential merge phase. Returns the ΔC realized under the view.
func (v *AllocView) Commit(d Decision) (float64, error) {
	if d.Target == cluster.NoHost {
		return 0, fmt.Errorf("core: view commit has no target")
	}
	cur := v.HostOf(d.VM)
	if cur == cluster.NoHost {
		return 0, fmt.Errorf("core: view commit of unplaced VM %d", d.VM)
	}
	if cur == d.Target {
		return 0, nil
	}
	if !v.fits(d.VM, d.Target) {
		return 0, fmt.Errorf("core: view commit of VM %d: %w", d.VM, cluster.ErrNoCapacity)
	}
	e := v.eng
	realized := v.Delta(d.VM, d.Target)
	vm, err := e.cl.VM(d.VM)
	if err != nil {
		return 0, err
	}
	v.slotD[cur]--
	v.slotD[d.Target]++
	v.ramD[cur] -= int32(vm.RAMMB)
	v.ramD[d.Target] += int32(vm.RAMMB)
	v.cpuD[cur] -= int32(vm.CPUMilli)
	v.cpuD[d.Target] += int32(vm.CPUMilli)
	// NIC-load deltas mirror Engine.onAllocChange, evaluated before the
	// overlay records the move so peers' positions are read consistently.
	for _, ed := range e.tm.NeighborEdges(d.VM) {
		hz := v.HostOf(ed.Peer)
		if hz != cur {
			v.netD[cur] -= ed.Rate
		}
		if hz != d.Target {
			v.netD[d.Target] += ed.Rate
		}
		if hz != cluster.NoHost {
			if cur != hz {
				v.netD[hz] -= ed.Rate
			}
			if d.Target != hz {
				v.netD[hz] += ed.Rate
			}
		}
	}
	v.setHost(d.VM, d.Target)
	v.commits = append(v.commits, Decision{VM: d.VM, From: cur, Target: d.Target, Delta: realized})
	return realized, nil
}
