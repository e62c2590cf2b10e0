package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/layout"
)

// Chunk geometry. A chunk is one stripe unit of the logical volume; chunks
// are dealt round-robin over the Positions() data positions, so slot s
// (position s mod G) holds chunks s mod G, s mod G + G, ... The last chunk
// is short when the volume is not a whole number of stripe units.

// numChunks returns how many chunks the volume spans.
func (a *Array) numChunks() int64 {
	unit := int64(a.lay.StripeUnit())
	return (a.lay.DataSectors() + unit - 1) / unit
}

// chunkSpan returns the logical sectors chunk c covers.
func (a *Array) chunkSpan(c int64) (off, count int64) {
	unit := int64(a.lay.StripeUnit())
	off = c * unit
	return off, min(unit, a.lay.DataSectors()-off)
}

// chunkBytes returns chunk c's size in bytes, the unit background pacing
// charges.
func (a *Array) chunkBytes(c int64) int64 {
	_, count := a.chunkSpan(c)
	return count * disk.SectorSize
}

// slotChunks returns how many chunks live on a slot.
func (a *Array) slotChunks(slot int) int64 {
	g, n := int64(a.opts.Config.Positions()), a.numChunks()
	first := int64(slot) % g
	if first >= n {
		return 0
	}
	return (n - first + g - 1) / g
}

// slotChunkList returns the slot's chunks in ascending order, only those
// keep accepts when keep is non-nil.
func (a *Array) slotChunkList(slot int, keep func(c int64) bool) []int64 {
	g, n := int64(a.opts.Config.Positions()), a.numChunks()
	var out []int64
	for c := int64(slot) % g; c < n; c += g {
		if keep == nil || keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// chunkPiece resolves one whole chunk to its layout piece.
func (a *Array) chunkPiece(chunk int64) *layout.Piece {
	off, count := a.chunkSpan(chunk)
	pieces, err := a.lay.Resolve(off, int(count))
	if err != nil || len(pieces) != 1 {
		panic(fmt.Sprintf("core: chunk %d resolved to %d pieces: %v", chunk, len(pieces), err))
	}
	return &pieces[0]
}

// scrubCursor is one slot's walk position: copy (chunkIndex n, replica
// rep), where the slot's n-th chunk is slot%G + n*G. Keyed by slot, not
// drive, so a spare swapped in mid-walk inherits the cursor and nothing is
// stranded.
type scrubCursor struct {
	n   int64
	rep int
}

// copyWalk visits every (slot, chunk, replica) copy once: each slot's
// chunks ascend physically, and the walk steps round-robin across slots
// to spread the load. The scrubber and the recovery scan walk with it.
type copyWalk struct {
	cur  []scrubCursor
	slot int
}

// walkNext returns the next copy of the walk and advances it; ok is false
// once every slot is exhausted.
func (a *Array) walkNext(w *copyWalk) (slot int, chunk int64, rep int, ok bool) {
	slot = -1
	for i := range w.cur {
		cand := (w.slot + i) % len(w.cur)
		if w.cur[cand].n < a.slotChunks(cand) {
			slot = cand
			break
		}
	}
	if slot < 0 {
		return 0, 0, 0, false
	}
	cur := &w.cur[slot]
	g := int64(a.opts.Config.Positions())
	chunk = int64(slot)%g + cur.n*g
	rep = cur.rep
	// Next replica of the chunk, then the slot's next chunk; the
	// round-robin pointer moves on either way.
	cur.rep++
	if cur.rep >= a.opts.Config.Dr {
		cur.rep = 0
		cur.n++
	}
	w.slot = (slot + 1) % len(w.cur)
	return slot, chunk, rep, true
}
