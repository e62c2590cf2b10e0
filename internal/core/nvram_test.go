package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
)

// pendingWrites fills the delayed-write table and returns once every
// submitted write has completed (propagations still pending).
func pendingWrites(t testing.TB, sim *des.Sim, a *Array, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	wrote := 0
	for i := 0; i < n; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		wrote++
		if err := a.Submit(Write, off, 8, false, func(Result) { wrote-- }); err != nil {
			t.Fatal(err)
		}
	}
	for wrote > 0 {
		if !sim.Step() {
			t.Fatal("stalled")
		}
	}
}

// TestNVRAMSmallCapStaysBounded is the regression test for the
// pressure-eviction clamp: with a table smaller than ten entries the
// original eviction batch (cap/10) rounded to zero, so the table filled
// without ever evicting. The clamp moves at least one entry per pressure
// event, keeping the table pinned near its capacity.
func TestNVRAMSmallCapStaysBounded(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 3), "rsatf", func(o *Options) {
		o.NVRAMEntries = 4
	})
	rng := rand.New(rand.NewSource(17))
	maxUsed := 0
	// One write at a time: with eviction keeping pace, the table tracks
	// the cap. (A burst can still overshoot transiently — promoted copies
	// take time to land — so the steady-state loop is what pins the bug:
	// without the clamp, used never decreases and ends at the write count.)
	for i := 0; i < 120; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		done := false
		if err := a.Submit(Write, off, 8, false, func(Result) { done = true }); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatal("stalled")
			}
			if u := a.NVRAMUsed(); u > maxUsed {
				maxUsed = u
			}
		}
	}
	// The direct regression signal: with the old cap/10 batch size this
	// stayed zero forever at caps below ten.
	if a.ForcedDelayed == 0 {
		t.Fatal("pressure eviction never fired at cap 4")
	}
	// Entries resolve only when every owed copy lands, so the table runs
	// a few entries over cap under steady pressure — but far below the
	// 120 writes it would reach with eviction broken.
	if maxUsed > 20 {
		t.Fatalf("NVRAM table reached %d entries with cap 4", maxUsed)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("table holds %d entries after drain", a.NVRAMUsed())
	}
}

// encodeEntries builds a snapshot from hand-crafted table entries.
func encodeEntries(t testing.TB, entries []nvramEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdoptNVRAMErrorPaths: corrupt bytes, entries that resolve outside
// the volume, and entries that contradict the adopting layout are all
// rejected with the partial reissue count.
func TestAdoptNVRAMErrorPaths(t *testing.T) {
	_, a := newArray(t, layout.RAID10(4), "satf", nil)

	// Truncated/corrupt gob stream.
	if _, err := a.AdoptNVRAM([]byte{0x42, 0x00, 0x13}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}

	// An entry beyond the volume fails Resolve.
	snap := encodeEntries(t, []nvramEntry{{Off: a.DataSectors() + 512, Count: 8, Disk: 0, Replica: 0}})
	if _, err := a.AdoptNVRAM(snap); err == nil || !strings.Contains(err.Error(), "corrupt NVRAM entry") {
		t.Fatalf("out-of-volume entry: err = %v", err)
	}

	// A drive that does not mirror the range (layout mismatch — snapshot
	// from a different configuration).
	snap = encodeEntries(t, []nvramEntry{{Off: 0, Count: 8, Disk: 3, Replica: 0}})
	if _, err := a.AdoptNVRAM(snap); err == nil || !strings.Contains(err.Error(), "does not match this layout") {
		t.Fatalf("wrong-drive entry: err = %v", err)
	}

	// A replica index beyond the configuration's Dr.
	snap = encodeEntries(t, []nvramEntry{{Off: 0, Count: 8, Disk: 0, Replica: 7}})
	if _, err := a.AdoptNVRAM(snap); err == nil || !strings.Contains(err.Error(), "does not match this layout") {
		t.Fatalf("out-of-range replica: err = %v", err)
	}

	// Partial progress: one good entry before the bad one is reissued and
	// reported even though the adopt errors.
	good := nvramEntry{Off: 0, Count: 8, Disk: 0, Replica: 0}
	bad := nvramEntry{Off: 0, Count: 8, Disk: 3, Replica: 0}
	n, err := a.AdoptNVRAM(encodeEntries(t, []nvramEntry{good, bad}))
	if err == nil {
		t.Fatal("bad entry accepted")
	}
	if n != 1 {
		t.Fatalf("partial adopt reissued %d, want 1", n)
	}
}

// TestAdoptNVRAMSkipsFailedDrives: entries owed to a drive that is already
// fail-stopped in the adopting array are dropped (their data is
// unreachable anyway), and the rest replay.
func TestAdoptNVRAMSkipsFailedDrives(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	pendingWrites(t, sim, a, 15, 13)
	if a.NVRAMUsed() == 0 {
		t.Skip("propagation outran the crash point")
	}
	snap, err := a.SnapshotNVRAM()
	if err != nil {
		t.Fatal(err)
	}
	var entries []nvramEntry
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&entries); err != nil {
		t.Fatal(err)
	}

	_, b := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	if err := b.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	onFailed := 0
	for _, e := range entries {
		if e.Disk == 0 {
			onFailed++
		}
	}
	n, err := b.AdoptNVRAM(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(entries)-onFailed {
		t.Fatalf("adopted %d of %d entries with %d on the failed drive", n, len(entries), onFailed)
	}
	if !b.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
}

// TestNVRAMRoundTripUnderFaults: the full crash story with fault injection
// active on both sides — fill the table under transient faults and
// timeouts, snapshot, adopt into a reboot of the same configuration (same
// fault model), replay, and drain clean. RecoverDelayed on the crashed
// array reissues exactly the copies the snapshot recorded.
func TestNVRAMRoundTripUnderFaults(t *testing.T) {
	faults := disk.FaultModel{TransientRate: 0.2, TimeoutRate: 0.05, TimeoutDelay: des.Millisecond}
	mkArray := func() (*des.Sim, *Array) {
		return newArray(t, layout.SRArray(1, 3), "rsatf", func(o *Options) {
			o.Faults = faults
		})
	}
	sim, a := mkArray()
	pendingWrites(t, sim, a, 20, 23)
	if a.NVRAMUsed() == 0 {
		t.Skip("propagation outran the crash point")
	}
	snap, err := a.SnapshotNVRAM()
	if err != nil {
		t.Fatal(err)
	}
	var entries []nvramEntry
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&entries); err != nil {
		t.Fatal(err)
	}

	// The crashed instance itself can also replay its table in place.
	if got := recoverDelayed(a); got != len(entries) {
		t.Fatalf("RecoverDelayed reissued %d, snapshot recorded %d", got, len(entries))
	}
	if !a.Drain(des.Hour) {
		t.Fatal("crashed instance failed to drain after recovery")
	}

	// "Reboot": adopt into a fresh array with the same fault model.
	_, b := mkArray()
	n, err := b.AdoptNVRAM(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(entries) {
		t.Fatalf("adopted %d of %d entries", n, len(entries))
	}
	if !b.Drain(des.Hour) {
		t.Fatal("rebooted array failed to drain; recovery writes must retry through faults")
	}
	if b.Faults().Transients == 0 && b.Faults().Timeouts == 0 {
		t.Log("note: no faults hit the recovery writes (rates are probabilistic)")
	}
	var cmds int64
	for i := 0; i < b.Disks(); i++ {
		cmds += b.Commands(i)
	}
	if cmds < int64(n) {
		t.Fatalf("rebooted array executed %d commands for %d owed copies", cmds, n)
	}
}
