// Package blockcache implements the LRU block cache used in the paper's
// memory-versus-disks comparison (Figure 11): a volatile read cache in
// front of the array, with synchronous writes forced through to disk.
package blockcache

import (
	"container/list"
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
)

// BlockSectors is the cache line size in sectors (8 KB).
const BlockSectors = 16

// LRU is a fixed-capacity block cache.
type LRU struct {
	capacity int // blocks
	order    *list.List
	index    map[int64]*list.Element

	Hits, Misses int64
}

// NewLRU builds a cache holding capacityBytes of data.
func NewLRU(capacityBytes int64) *LRU {
	blocks := int(capacityBytes / (BlockSectors * 512))
	if blocks < 1 {
		blocks = 1
	}
	return &LRU{
		capacity: blocks,
		order:    list.New(),
		index:    make(map[int64]*list.Element),
	}
}

// Touch looks a block up, updating recency and hit/miss counters.
func (c *LRU) Touch(block int64) bool {
	if e, ok := c.index[block]; ok {
		c.order.MoveToFront(e)
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Insert adds a block (no-op if resident), evicting the least recently
// used as needed.
func (c *LRU) Insert(block int64) {
	if e, ok := c.index[block]; ok {
		c.order.MoveToFront(e)
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.index, oldest.Value.(int64))
	}
	c.index[block] = c.order.PushFront(block)
}

// CachedArray fronts a core.Array with an LRU cache: read hits complete at
// memory speed, misses and all writes go to the array (write-through, as
// the paper forces synchronous writes to disk in both alternatives).
type CachedArray struct {
	Cache *LRU
	A     *core.Array
	// HitTime is the service time of a full cache hit.
	HitTime des.Time
}

// NewCachedArray wraps an array with capacityBytes of cache.
func NewCachedArray(a *core.Array, capacityBytes int64) *CachedArray {
	return &CachedArray{Cache: NewLRU(capacityBytes), A: a, HitTime: 50 * des.Microsecond}
}

// Submit mirrors core.Array.Submit through the cache.
func (ca *CachedArray) Submit(op core.Op, off int64, count int, async bool, done func(core.Result)) error {
	if count < 1 {
		return fmt.Errorf("blockcache: non-positive count")
	}
	first := off / BlockSectors
	last := (off + int64(count) - 1) / BlockSectors
	if op == core.Read {
		all := true
		for b := first; b <= last; b++ {
			if !ca.Cache.Touch(b) {
				all = false
			}
		}
		if all {
			submit := ca.A.Sim().Now()
			ca.A.Sim().After(ca.HitTime, func() {
				if done != nil {
					done(core.Result{Op: op, Off: off, Count: count, Async: async, Submit: submit, Done: ca.A.Sim().Now()})
				}
			})
			return nil
		}
		return ca.A.Submit(op, off, count, async, func(r core.Result) {
			for b := first; b <= last; b++ {
				ca.Cache.Insert(b)
			}
			if done != nil {
				done(r)
			}
		})
	}
	// Write-through: cache the written data, then force it to disk.
	for b := first; b <= last; b++ {
		ca.Cache.Insert(b)
	}
	return ca.A.Submit(op, off, count, async, done)
}
