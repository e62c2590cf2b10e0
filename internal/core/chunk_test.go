package core

import (
	"fmt"
	"testing"

	"repro/internal/layout"
)

// TestCopyWalkVisitsEveryCopyOnce walks whole volumes: every (slot, chunk,
// replica) copy comes up exactly once, each step takes the first slot
// with copies left at or after the one behind the last step, and chunk
// spans tile the volume. The last geometry leaves slots with no chunks.
func TestCopyWalkVisitsEveryCopyOnce(t *testing.T) {
	unit := int64(layout.DefaultStripeUnit)
	for _, tc := range []struct {
		cfg     layout.Config
		sectors int64
	}{
		{layout.RAID10(4), 128*unit + 40},
		{layout.SRArray(2, 2), 9 * unit},
		{layout.RAID10(8), 2*unit + 10}, // position 3: slots 3 and 7 hold nothing
	} {
		t.Run(fmt.Sprintf("%v/%d", tc.cfg, tc.sectors), func(t *testing.T) {
			_, a := newArray(t, tc.cfg, "", func(o *Options) { o.DataSectors = tc.sectors })
			g := int64(tc.cfg.Positions())
			var tiled int64
			for c := int64(0); c < a.numChunks(); c++ {
				off, count := a.chunkSpan(c)
				if off != tiled || count <= 0 || count > unit {
					t.Fatalf("chunk %d spans [%d, +%d), want to start at %d", c, off, count, tiled)
				}
				tiled += count
			}
			if tiled != tc.sectors {
				t.Fatalf("chunks tile %d sectors, volume has %d", tiled, tc.sectors)
			}

			// Copies left per slot, counted from the definition.
			left := make([]int64, a.Disks())
			var total int64
			empty := false
			for s := range left {
				for c := int64(0); c < a.numChunks(); c++ {
					if c%g == int64(s)%g {
						left[s] += int64(tc.cfg.Dr)
					}
				}
				if left[s] == 0 {
					empty = true
				}
				if got := a.slotChunks(s) * int64(tc.cfg.Dr); got != left[s] {
					t.Fatalf("slot %d: slotChunks gives %d copies, want %d", s, got, left[s])
				}
				total += left[s]
			}
			if tc.sectors < (g-1)*unit && !empty {
				t.Fatal("geometry meant to leave a slot empty has none")
			}

			w := copyWalk{cur: make([]scrubCursor, a.Disks())}
			seen := map[[3]int64]bool{}
			next := 0
			for {
				slot, chunk, rep, ok := a.walkNext(&w)
				if !ok {
					break
				}
				want := next
				for left[want] == 0 {
					want = (want + 1) % len(left)
				}
				if slot != want {
					t.Fatalf("step %d went to slot %d, want %d", len(seen), slot, want)
				}
				if chunk%g != int64(slot)%g || chunk >= a.numChunks() || rep >= tc.cfg.Dr {
					t.Fatalf("slot %d visited chunk %d replica %d, not one of its copies", slot, chunk, rep)
				}
				k := [3]int64{int64(slot), chunk, int64(rep)}
				if seen[k] {
					t.Fatalf("copy %v visited twice", k)
				}
				seen[k] = true
				left[slot]--
				next = (slot + 1) % len(left)
			}
			if int64(len(seen)) != total {
				t.Fatalf("walk visited %d copies, want %d", len(seen), total)
			}
		})
	}
}
