package serve

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

func writeFile(path, contents string) error {
	return os.WriteFile(path, []byte(contents), 0o644)
}

// TestSnapshotRestoreRoundTrip snapshots a daemon mid-run, restores it,
// and requires (a) state equality — placement, traffic, counters — and
// (b) that the restored daemon's subsequent rounds decide exactly as
// the uninterrupted original's: same per-round migration counts, same
// costs, same final placement, continuous round numbering.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rec := recordStream(23, 40, 16, 4)
	path := filepath.Join(t.TempDir(), "scored.snapshot")

	d := newTestDaemon(t, nil)
	for _, vm := range rec.vms {
		if _, _, err := d.Admit(AdmitRequest{
			ID: cluster.VMID(vm.ID), HasID: true, RAMMB: vm.RAMMB,
			Host: cluster.HostID(vm.Host), HasHost: true,
		}); err != nil {
			t.Fatalf("admit %d: %v", vm.ID, err)
		}
	}
	if _, rejected, err := d.Observe("replay", rec.rates); err != nil || rejected != 0 {
		t.Fatalf("observe: err=%v rejected=%d", err, rejected)
	}
	// Run partway — snapshot mid-convergence, not at a fixpoint.
	if _, err := d.Step(2); err != nil {
		t.Fatalf("step: %v", err)
	}
	got, err := d.Snapshot(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got != path {
		t.Fatalf("snapshot path %q, want %q", got, path)
	}

	r, err := Restore(path, Config{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	// State equality at the restore point.
	if want, gotR := d.Rounds(), r.Rounds(); want != gotR {
		t.Fatalf("round counter: restored %d, original %d", gotR, want)
	}
	origAlloc, restAlloc := d.PlacementSnapshot(), r.PlacementSnapshot()
	if len(origAlloc) != len(restAlloc) {
		t.Fatalf("allocation sizes differ: %d vs %d", len(origAlloc), len(restAlloc))
	}
	for vm, host := range origAlloc {
		if restAlloc[vm] != host {
			t.Fatalf("VM %d restored on host %d, want %d", vm, restAlloc[vm], host)
		}
	}
	origPairs, origRates := d.tm.Pairs()
	if restPairs := r.tm.NumPairs(); restPairs != len(origPairs) {
		t.Fatalf("restored %d pairs, want %d", restPairs, len(origPairs))
	}
	for i, p := range origPairs {
		if rr := r.tm.Rate(p.A, p.B); rr != origRates[i] {
			t.Fatalf("pair (%d,%d): restored rate %v, want %v (must be bit-identical)", p.A, p.B, rr, origRates[i])
		}
	}
	if d.ctrl.PersistedState() != r.ctrl.PersistedState() {
		t.Fatalf("controller hysteresis differs:\n  original %+v\n  restored %+v",
			d.ctrl.PersistedState(), r.ctrl.PersistedState())
	}
	for _, vm := range rec.vms {
		ov, err1 := d.cl.VM(cluster.VMID(vm.ID))
		rv, err2 := r.cl.VM(cluster.VMID(vm.ID))
		if err1 != nil || err2 != nil || ov != rv {
			t.Fatalf("VM %d spec differs: %+v vs %+v (%v, %v)", vm.ID, ov, rv, err1, err2)
		}
	}

	// Identical subsequent decisions, round by round, to quiescence.
	for round := 0; ; round++ {
		so, err := d.Step(1)
		if err != nil {
			t.Fatalf("original step: %v", err)
		}
		sr, err := r.Step(1)
		if err != nil {
			t.Fatalf("restored step: %v", err)
		}
		if so.Applied != sr.Applied || so.Quiesced != sr.Quiesced {
			t.Fatalf("round %d diverged: original %+v, restored %+v", round, so, sr)
		}
		// The decisions are identical; the cost accumulators may differ
		// in the last ulps because the restored engine sums the same
		// pair contributions in snapshot order rather than the
		// original's insertion order.
		if diff := so.Cost - sr.Cost; diff > 1e-9*so.Cost || -diff > 1e-9*so.Cost {
			t.Fatalf("round %d cost diverged: original %.17g, restored %.17g", round, so.Cost, sr.Cost)
		}
		if so.Quiesced {
			break
		}
		if round > 64 {
			t.Fatal("no quiescence after 64 rounds")
		}
	}
	finalO, finalR := d.PlacementSnapshot(), r.PlacementSnapshot()
	for vm, host := range finalO {
		if finalR[vm] != host {
			t.Fatalf("final placement diverged at VM %d: %d vs %d", vm, finalR[vm], host)
		}
	}
	// The restored run continued the original's round numbering.
	if d.Rounds() != r.Rounds() {
		t.Fatalf("round counters diverged: %d vs %d", d.Rounds(), r.Rounds())
	}
	// Auto-issued IDs continue where the original's left off.
	idO, _, err := d.Admit(AdmitRequest{RAMMB: 64})
	if err != nil {
		t.Fatalf("original post-restore admit: %v", err)
	}
	idR, _, err := r.Admit(AdmitRequest{RAMMB: 64})
	if err != nil {
		t.Fatalf("restored post-restore admit: %v", err)
	}
	if idO != idR {
		t.Fatalf("next auto ID diverged: original %d, restored %d", idO, idR)
	}
}

// TestRestoreRejectsBadSnapshots covers the failure modes Restore must
// refuse rather than half-load.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	dir := t.TempDir()
	if _, err := Restore(filepath.Join(dir, "missing"), Config{}); err == nil {
		t.Fatal("Restore of a missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `{"version":99}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bad, Config{}); err == nil {
		t.Fatal("Restore of an unknown version succeeded")
	}
	garbage := filepath.Join(dir, "garbage")
	if err := writeFile(garbage, "not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(garbage, Config{}); err == nil {
		t.Fatal("Restore of garbage succeeded")
	}
}

// pairSnapshot is a minimal valid snapshot — a k=4 fat-tree, three
// placed VMs, one unplaced — with the given traffic pairs.
func pairSnapshot(t testing.TB, pairs ...snapPair) []byte {
	t.Helper()
	snap := snapshotFile{
		Version:  snapshotVersion,
		Topology: TopologySpec{Kind: "fattree", K: 4, HostLinkMbps: 1000},
		Hosts:    cluster.UniformHosts(16, 4, 4096, 1000),
		NextID:   5,
		VMs: []snapVM{
			{ID: 1, RAMMB: 64, Host: 0},
			{ID: 2, RAMMB: 64, Host: 5},
			{ID: 3, RAMMB: 64, Host: 9},
			{ID: 4, RAMMB: 64, Host: -1},
		},
		Pairs: pairs,
	}
	buf, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func ratePair(a, b uint32, rate float64) snapPair {
	return snapPair{A: a, B: b, RateBits: math.Float64bits(rate)}
}

// TestRestoreRejectsBadPairs: a snapshot pair that /v1/observe would
// refuse is refused by Restore too, with a typed error naming the pair.
func TestRestoreRejectsBadPairs(t *testing.T) {
	good := ratePair(1, 2, 40)
	cases := []struct {
		name string
		bad  snapPair
		want error
	}{
		{"nan", ratePair(1, 3, math.NaN()), ErrBadRate},
		{"+inf", ratePair(1, 3, math.Inf(1)), ErrBadRate},
		{"negative", ratePair(1, 3, -5), ErrBadRate},
		{"self", ratePair(2, 2, 10), ErrSelfPair},
		{"unknown", ratePair(1, 77, 10), ErrUnplacedVM},
		{"unplaced", ratePair(4, 3, 10), ErrUnplacedVM},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".snapshot")
			if err := os.WriteFile(path, pairSnapshot(t, good, tc.bad), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := Restore(path, Config{})
			if err == nil {
				d.Close()
				t.Fatal("Restore accepted the pair")
			}
			var pe *SnapshotPairError
			if !errors.As(err, &pe) || !errors.Is(err, tc.want) || pe.Index != 1 {
				t.Fatalf("Restore error %v; want a SnapshotPairError for pair 1 wrapping %v", err, tc.want)
			}
		})
	}
	path := filepath.Join(dir, "good.snapshot")
	if err := os.WriteFile(path, pairSnapshot(t, good, ratePair(2, 3, 7.5)), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Restore(path, Config{})
	if err != nil {
		t.Fatalf("Restore of valid pairs: %v", err)
	}
	d.Close()
}

// FuzzRestore feeds arbitrary bytes to Restore: it must return an error
// or a daemon, never panic, and a restored daemon's traffic must be
// what ingest would have accepted.
func FuzzRestore(f *testing.F) {
	f.Add(pairSnapshot(f, ratePair(1, 2, 40), ratePair(2, 3, 7.5)))
	f.Add(pairSnapshot(f, ratePair(1, 3, math.NaN())))
	f.Add(pairSnapshot(f, ratePair(1, 3, math.Inf(1))))
	f.Add(pairSnapshot(f, ratePair(2, 2, 10)))
	f.Add(pairSnapshot(f, ratePair(1, 77, 10)))
	f.Add(pairSnapshot(f, ratePair(4, 3, 10)))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte("not json"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Restore builds the topology before it can compare it with the
		// host list, so keep fuzzed plants small enough to build.
		var probe snapshotFile
		if json.Unmarshal(data, &probe) == nil {
			if c := probe.Topology.Canonical; probe.Topology.K > 16 ||
				c != nil && (c.Racks > 64 || c.HostsPerRack > 64 || c.CoreSwitches > 64) {
				t.Skip("plant too large to build")
			}
		}
		path := filepath.Join(dir, "fuzz.snapshot")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Restore(path, Config{})
		if err != nil {
			return
		}
		defer d.Close()
		pairs, rates := d.tm.Pairs()
		for i, p := range pairs {
			if checkPair(d.cl, p.A, p.B, rates[i]) != nil || rates[i] == 0 {
				t.Fatalf("restored pair (%d, %d) at rate %v", p.A, p.B, rates[i])
			}
		}
	})
}
