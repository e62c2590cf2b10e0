package cluster

import (
	"fmt"
	"math"
)

// The extent map is the cluster's placement layer: the logical volume is
// divided into fixed-size extents, and each extent's R replicas live on R
// *distinct* bricks — the brick is the failure domain, so losing one brick
// loses at most one replica of any extent. Brick selection uses weighted
// rendezvous hashing (highest-random-weight): every (extent, brick) pair
// draws a deterministic score from the placement seed, scaled by the
// brick's capacity weight, and the R best-scoring bricks win the extent.
// Rendezvous gives three properties the cluster needs at once: placement
// is a pure function of (seed, extent) so every router instance computes
// the same map with no coordination; heterogeneous bricks receive extents
// in proportion to their capacity (the HDA paper's capacity-proportional
// allocation); and when a brick is declared dead, each of its extents has
// a canonical "next best" brick — the rendezvous runner-up — so
// re-replication needs no global reshuffle.
//
// Brick-local addresses come from a slot allocator: walking extents in
// order, each replica claims the target brick's next free slot, so the
// brick-local offset of (extent, replica) is fixed at construction. With a
// single brick and R=1 this degenerates to the identity map (extent e at
// slot e), which is what keeps a one-brick cluster byte-identical to the
// bare array underneath it.

// replicaLoc is one replica's physical address: a brick and a slot (the
// brick-local offset is slot*ExtentSectors). brick < 0 means the replica
// is unplaced (capacity exhausted, or its brick was declared dead with no
// surviving brick able to adopt it).
type replicaLoc struct {
	brick int32
	slot  int32
}

const unplaced = int32(-1)

// extentMap holds the full placement: loc[e*r+k] is replica k of extent e.
type extentMap struct {
	extentSectors int64
	extents       int64
	r             int
	loc           []replicaLoc
	// slots[b] is brick b's slot capacity; nextSlot[b] the allocation
	// cursor. Slots past the cursor are the headroom DeclareDead's
	// re-replication draws from.
	slots    []int32
	nextSlot []int32
	seed     int64
}

// splitmix64 is the mixing function behind the rendezvous draws — a
// well-known finalizer with full avalanche, so adjacent (extent, brick)
// pairs decorrelate completely.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// score draws brick b's rendezvous score for extent e: -ln(u)/w, u uniform
// in (0,1) and w the brick's slot count. Lower is better; the division by
// the weight makes the win probability proportional to capacity (weighted
// rendezvous, Thaler & Ravishankar).
func (m *extentMap) score(e int64, b int) float64 {
	h := splitmix64(uint64(m.seed)*0x9e3779b97f4a7c15 + splitmix64(uint64(e)<<20|uint64(b)))
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return -math.Log(u) / float64(m.slots[b])
}

// rank returns every brick ordered by rendezvous preference for extent e
// (best first), writing into dst to stay allocation-free after warmup.
func (m *extentMap) rank(e int64, dst []int) []int {
	dst = dst[:0]
	for b := range m.slots {
		dst = append(dst, b)
	}
	scores := make([]float64, len(m.slots))
	for b := range scores {
		scores[b] = m.score(e, b)
	}
	// Insertion sort: brick counts are small and the order must be a total
	// order (score ties broken by index) for determinism.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0; j-- {
			a, b := dst[j-1], dst[j]
			if scores[a] < scores[b] || (scores[a] == scores[b] && a < b) {
				break
			}
			dst[j-1], dst[j] = b, a
		}
	}
	return dst
}

// buildExtentMap allocates the placement for the given brick capacities
// (in sectors). headroom in [0,1) reserves that fraction of the total slot
// pool for post-failure re-replication.
func buildExtentMap(capacity []int64, r int, extentSectors int64, headroom float64, seed int64) (*extentMap, error) {
	if r < 1 || r > maxReplicas {
		return nil, fmt.Errorf("cluster: %d replicas (want 1..%d)", r, maxReplicas)
	}
	if len(capacity) < r {
		return nil, fmt.Errorf("cluster: %d replicas over %d bricks (need distinct bricks)", r, len(capacity))
	}
	if extentSectors < 1 {
		return nil, fmt.Errorf("cluster: extent size %d sectors (want >= 1)", extentSectors)
	}
	m := &extentMap{
		extentSectors: extentSectors, r: r, seed: seed,
		slots:    make([]int32, len(capacity)),
		nextSlot: make([]int32, len(capacity)),
	}
	var total int64
	for b, cap := range capacity {
		s := cap / extentSectors
		if s < 1 {
			return nil, fmt.Errorf("cluster: brick %d holds %d sectors, less than one %d-sector extent", b, cap, extentSectors)
		}
		m.slots[b] = int32(s)
		total += s
	}
	m.extents = int64(float64(total)*(1-headroom)) / int64(r)
	if m.extents < 1 {
		return nil, fmt.Errorf("cluster: capacity %d slots cannot hold one extent at %d replicas", total, r)
	}
	m.loc = make([]replicaLoc, m.extents*int64(r))
	var order []int
	for e := int64(0); e < m.extents; e++ {
		order = m.rank(e, order)
		placed := 0
		for _, b := range order {
			if placed == r {
				break
			}
			if m.nextSlot[b] >= m.slots[b] {
				continue // brick full: spill to the next rendezvous choice
			}
			m.loc[e*int64(r)+int64(placed)] = replicaLoc{brick: int32(b), slot: m.nextSlot[b]}
			m.nextSlot[b]++
			placed++
		}
		if placed == 0 {
			return nil, fmt.Errorf("cluster: extent %d unplaceable (capacity exhausted)", e)
		}
		for k := placed; k < r; k++ {
			m.loc[e*int64(r)+int64(k)] = replicaLoc{brick: unplaced}
		}
	}
	return m, nil
}

// locOf returns replica k of extent e.
func (m *extentMap) locOf(e int64, k int) replicaLoc { return m.loc[e*int64(m.r)+int64(k)] }

// brickOff converts a replica location plus an intra-extent offset to the
// brick-local sector address.
func (m *extentMap) brickOff(l replicaLoc, within int64) int64 {
	return int64(l.slot)*m.extentSectors + within
}

// adopt reassigns replica k of extent e to the best surviving brick that
// does not already hold the extent and still has a free slot. It returns
// the new brick, or -1 if no brick qualifies.
func (m *extentMap) adopt(e int64, k int, excluded func(b int) bool) int {
	order := m.rank(e, nil)
	for _, b := range order {
		if excluded(b) || m.nextSlot[b] >= m.slots[b] {
			continue
		}
		holds := false
		for j := 0; j < m.r; j++ {
			if l := m.locOf(e, j); l.brick == int32(b) {
				holds = true
				break
			}
		}
		if holds {
			continue
		}
		m.loc[e*int64(m.r)+int64(k)] = replicaLoc{brick: int32(b), slot: m.nextSlot[b]}
		m.nextSlot[b]++
		return b
	}
	m.loc[e*int64(m.r)+int64(k)] = replicaLoc{brick: unplaced}
	return -1
}
