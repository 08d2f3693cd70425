package core

import (
	"slices"

	"github.com/score-dc/score/internal/cluster"
)

// allocState is the allocation a decision reads: the live cluster for
// an Engine, the frozen cluster plus the staged overlay for an AllocView.
type allocState interface {
	HostOf(vm cluster.VMID) cluster.HostID
	fits(u cluster.VMID, target cluster.HostID) bool
	hostNetLoad(h cluster.HostID) float64
}

// rankEntry is one neighbor in probe order, with its host and level
// resolved once per decision.
type rankEntry struct {
	host  cluster.HostID
	level int
	rate  float64
}

// peerTerm is one placed peer of the token holder: its host, its rate
// and before = Prefix(ℓ(peer host, current host)) of its Eq. 5 term.
type peerTerm struct {
	host   cluster.HostID
	rate   float64
	before float64
}

// rackScore memoizes one decision's ΔC for the peer-free hosts of a
// rack: racks nest in pods, so each such host sees every peer at the
// same level and its ΔC has the same bits.
type rackScore struct {
	epoch uint32
	delta float64
}

// scan is the candidate scan's scratch, owned by one Engine or AllocView.
// Marks carry the decision's epoch, so nothing is cleared between decisions.
type scan struct {
	rank   []rankEntry
	terms  []peerTerm
	load   float64     // the holder's summed peer rate, in CSR order
	probed []uint32    // probed[h] == epoch ⇒ h was probed this decision
	peerAt []uint32    // peerAt[h] == epoch ⇒ h holds a placed peer
	racks  []rackScore // per-rack ΔC of peer-free hosts
	epoch  uint32
}

// size allocates the scratch for a host span, a rack count and the
// largest adjacency row, keeping buffers that already fit.
func (s *scan) size(hosts, racks, degree int) {
	if len(s.probed) != hosts || len(s.racks) != racks {
		s.probed = make([]uint32, hosts)
		s.peerAt = make([]uint32, hosts)
		s.racks = make([]rackScore, racks)
		s.epoch = 0
	}
	if cap(s.terms) < degree {
		s.rank = make([]rankEntry, 0, degree)
		s.terms = make([]peerTerm, 0, degree)
	}
}

// begin opens a decision: a fresh epoch invalidates every mark.
func (s *scan) begin() {
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: stale marks would collide
		clear(s.probed)
		clear(s.peerAt)
		clear(s.racks)
		s.epoch = 1
	}
}

// sortRank orders neighbors from highest to lowest communication level,
// then by descending rate — the probe order of Section V-B5.
func sortRank(rank []rankEntry) {
	slices.SortStableFunc(rank, func(a, b rankEntry) int {
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
}

// resolve walks u's adjacency once, in CSR order, filling the probe
// order, the placed peers' terms, the summed rate and the peer-host
// marks for this decision.
func (e *Engine) resolve(st allocState, s *scan, u cluster.VMID, cur cluster.HostID) {
	s.rank, s.terms, s.load = s.rank[:0], s.terms[:0], 0
	for _, ed := range e.tm.NeighborEdges(u) {
		hz := st.HostOf(ed.Peer)
		s.load += ed.Rate
		s.rank = append(s.rank, rankEntry{host: hz, level: e.levelOrDepth(cur, hz), rate: ed.Rate})
		if hz == cluster.NoHost {
			continue
		}
		s.terms = append(s.terms, peerTerm{host: hz, rate: ed.Rate, before: e.cost.Prefix(e.level(hz, cur))})
		s.peerAt[hz] = s.epoch
	}
	sortRank(s.rank)
}

// score returns ΔC (Eq. 5) for moving the holder to h: the same terms,
// in the same order and with the same float operations as Delta, read
// from the resolved peers. Peer-free hosts share one sum per rack.
func (e *Engine) score(s *scan, h cluster.HostID) float64 {
	var memo *rackScore
	if e.rackOf != nil && s.peerAt[h] != s.epoch {
		if r := uint(e.rackOf[h]); r < uint(len(s.racks)) {
			memo = &s.racks[r]
			if memo.epoch == s.epoch {
				return memo.delta
			}
		}
	}
	var delta float64
	for _, p := range s.terms {
		delta += 2 * p.rate * (p.before - e.cost.Prefix(e.level(p.host, h)))
	}
	if memo != nil {
		*memo = rackScore{epoch: s.epoch, delta: delta}
	}
	return delta
}

// probe counts one new candidate host and makes it the running best if
// its ΔC would win and it passes admission.
func (e *Engine) probe(st allocState, s *scan, u cluster.VMID, cur, h cluster.HostID, best *Decision, probes *int) {
	if h == cur || h < 0 || int(h) >= len(s.probed) || s.probed[h] == s.epoch {
		return
	}
	s.probed[h] = s.epoch
	*probes++
	if d := e.score(s, h); (best.Target == cluster.NoHost || d > best.Delta) && e.admissible(st, u, h, s) {
		best.Target, best.Delta = h, d
	}
}

// bestMigration is the Section V-B policy for holder u under st: probe
// the servers of u's neighbors in rank order, each followed by the rest
// of its rack, and return the admissible move with the largest ΔC (the
// first in probe order on ties) if it clears c_m (Theorem 1).
func (e *Engine) bestMigration(st allocState, s *scan, u cluster.VMID) (Decision, bool) {
	cur := st.HostOf(u)
	if cur == cluster.NoHost {
		return Decision{}, false
	}
	s.begin()
	e.resolve(st, s, u, cur)
	best := Decision{VM: u, From: cur, Target: cluster.NoHost}
	probes, limit := 0, e.cfg.MaxCandidates
	for _, ent := range s.rank {
		if limit > 0 && probes >= limit {
			break
		}
		hz := ent.host
		if hz == cluster.NoHost {
			continue
		}
		e.probe(st, s, u, cur, hz, &best, &probes)
		// Hosts outside the topology's rack table (cluster larger than
		// topology) have no rack to fall back to.
		if r := e.topo.RackOf(hz); r >= 0 && r < len(e.rackHosts) {
			for _, alt := range e.rackHosts[r] {
				if limit > 0 && probes >= limit {
					break
				}
				e.probe(st, s, u, cur, alt, &best, &probes)
			}
		}
	}
	if best.Target == cluster.NoHost || best.Delta <= e.cfg.MigrationCost {
		return Decision{}, false
	}
	return best, true
}

// admissible reports whether target can accept u under st: capacity
// (Section V-B5), the Admission hook and, with a bandwidth threshold,
// NIC headroom after the traffic that becomes host-internal (Section
// V-C). A scan's s supplies u's summed rate and peer hosts; nil walks
// the adjacency row.
func (e *Engine) admissible(st allocState, u cluster.VMID, target cluster.HostID, s *scan) bool {
	if !st.fits(u, target) {
		return false
	}
	if e.cfg.Admission != nil && !e.cfg.Admission(u, target) {
		return false
	}
	if e.cfg.BandwidthThreshold <= 0 {
		return true
	}
	host, err := e.cl.Host(target)
	if err != nil || host.NICMbps <= 0 {
		return false
	}
	// Traffic between u and VMs already on target leaves the NIC; the
	// rest of u's load joins it.
	var internal, load float64
	if s != nil {
		load = s.load
		if s.peerAt[target] == s.epoch {
			for _, p := range s.terms {
				if p.host == target {
					internal += p.rate
				}
			}
		}
	} else {
		for _, ed := range e.tm.NeighborEdges(u) {
			load += ed.Rate
			if st.HostOf(ed.Peer) == target {
				internal += ed.Rate
			}
		}
	}
	current := st.hostNetLoad(target)
	projected := current + load - 2*internal
	// Admit when the projection stays under the policy threshold, or
	// when the move does not worsen an already-hot NIC (co-locating a
	// heavy pair *reduces* both NICs' load; refusing such moves would
	// freeze an overloaded cluster in exactly the state that needs
	// fixing).
	limit := e.cfg.BandwidthThreshold * host.NICMbps
	if current > limit {
		return projected <= current
	}
	return projected <= limit
}
