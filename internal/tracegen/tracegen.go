// Package tracegen synthesizes block-level traces with the statistical
// profile of the paper's workloads (Table 3). The original HP Cello trace
// (5/30/92–6/6/92) and the TPC-C disk trace are not redistributable, so
// the experiments run on synthetic equivalents matched on the parameters
// the paper's models actually consume: arrival rate, read and async-write
// fractions, seek locality L, read-after-write fraction, and data-set
// size. trace.ComputeStats verifies the match (see tests and the Table 3
// experiment).
package tracegen

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/trace"
)

// SizePoint is one entry of a request-size mixture.
type SizePoint struct {
	Sectors int
	Weight  float64
}

// Params configures a synthetic trace.
type Params struct {
	Name        string
	DataSectors int64
	Duration    des.Time
	MeanIOPS    float64
	ReadFrac    float64 // reads / all I/Os
	AsyncFrac   float64 // async writes / all I/Os
	Locality    float64 // target seek-locality index L (>= 1)
	RAWFrac     float64 // target read-after-write fraction of all I/Os
	Sizes       []SizePoint
	// BurstCycle modulates the arrival rate sinusoidally (day/night or
	// busy/quiet cycles); 0 disables.
	BurstCycle des.Time
	// BurstAmp is the modulation depth in [0,1).
	BurstAmp float64
	// SyncPeriod clusters async writes at fixed ticks (the file system
	// sync daemon's 30 s cadence); 0 disables.
	SyncPeriod des.Time
	// BurstMean is the mean number of requests per arrival burst (file
	// system operations touch several blocks at once and the sync daemon
	// flushes batches, so real traces arrive in clumps). 1 disables
	// clustering. Burst epochs come at MeanIOPS/BurstMean, but the offered
	// rate still falls short of MeanIOPS: BurstCycle's thinning drops
	// epochs, and a burst that outlives the next epoch delays it (see
	// EXPERIMENTS.md, Table 3).
	BurstMean float64
	// BurstGap is the mean intra-burst inter-arrival time.
	BurstGap des.Time
	// TemporalReuse is the probability that a read revisits the block of
	// a recent I/O (file-system working sets re-reference; this is what a
	// block cache exploits in the paper's Figure 11 comparison).
	TemporalReuse float64
	Seed          int64
}

// CelloBase parameterizes the merged Cello trace minus disk 6: 8.4 GB,
// 2.84 I/Os per second, 55.2% reads, 18.9% async writes, L = 4.14, 4.15%
// read-after-write (Table 3). Duration defaults to the paper's one week;
// callers typically shorten it.
func CelloBase(seed int64) Params {
	return Params{
		Name:        "cello-base",
		DataSectors: int64(8.4e9 / disk.SectorSize),
		Duration:    7 * 24 * des.Hour,
		MeanIOPS:    2.84,
		ReadFrac:    0.552,
		AsyncFrac:   0.189,
		Locality:    4.14,
		RAWFrac:     0.0415,
		Sizes: []SizePoint{
			{2, 0.10}, {4, 0.25}, {8, 0.35}, {16, 0.20}, {32, 0.07}, {64, 0.03},
		},
		BurstCycle:    24 * des.Hour,
		BurstAmp:      0.6,
		SyncPeriod:    30 * des.Second,
		BurstMean:     5,
		BurstGap:      3 * des.Millisecond,
		TemporalReuse: 0.35,
		Seed:          seed,
	}
}

// CelloDisk6 parameterizes the news-spool disk: 1.3 GB, 2.56 I/Os per
// second, 35.8% reads, 16.1% async writes, L = 16.67, 3.8%
// read-after-write.
func CelloDisk6(seed int64) Params {
	return Params{
		Name:        "cello-disk6",
		DataSectors: int64(1.3e9) / disk.SectorSize,
		Duration:    7 * 24 * des.Hour,
		MeanIOPS:    2.56,
		ReadFrac:    0.358,
		AsyncFrac:   0.161,
		Locality:    16.67,
		RAWFrac:     0.038,
		Sizes: []SizePoint{
			{2, 0.15}, {4, 0.30}, {8, 0.35}, {16, 0.15}, {32, 0.05},
		},
		BurstCycle:    24 * des.Hour,
		BurstAmp:      0.5,
		SyncPeriod:    30 * des.Second,
		BurstMean:     8,
		BurstGap:      2 * des.Millisecond,
		TemporalReuse: 0.4,
		Seed:          seed,
	}
}

// TPCC parameterizes the TPC-C disk trace: 9.0 GB, ~500 I/Os per second,
// 54.8% reads, no async writes, essentially random access (L = 1.04),
// 14.8% read-after-write.
func TPCC(seed int64) Params {
	return Params{
		Name:          "tpcc",
		DataSectors:   int64(9.0e9 / disk.SectorSize),
		Duration:      2 * des.Hour,
		MeanIOPS:      500,
		ReadFrac:      0.548,
		AsyncFrac:     0,
		Locality:      1.04,
		RAWFrac:       0.148,
		Sizes:         []SizePoint{{4, 1}}, // 2 KB database pages
		BurstMean:     2,
		BurstGap:      5 * des.Millisecond,
		TemporalReuse: 0.05,
		Seed:          seed,
	}
}

// WithDuration returns p clipped to a shorter duration (keeping the rate).
func (p Params) WithDuration(d des.Time) Params {
	p.Duration = d
	return p
}

type recentWrite struct {
	off int64
	cnt int
	at  des.Time
}

// Generate synthesizes the trace. The locality and read-after-write knobs
// interact (a RAW read is also a jump; local re-reads create incidental
// RAW hits), so generation runs a short fixed-point loop: synthesize,
// measure with trace.ComputeStats, and retune until the measured L and
// RAW fractions land on target.
func Generate(p Params) *trace.Trace {
	if p.Locality < 1 {
		p.Locality = 1
	}
	// Initial knobs: the uniform-jump fraction sets the mean seek to
	// DataSectors/(3 L), counting RAW jumps as uniform-like.
	punif := 1/p.Locality - p.RAWFrac
	if punif < 0.0005 {
		punif = 0.0005
	}
	pRaw := 0.0
	if p.ReadFrac > 0 {
		pRaw = p.RAWFrac / p.ReadFrac
	}
	var tr *trace.Trace
	var best *trace.Trace
	bestErr := 1e9
	wDiv := 256.0
	// The mean seek is approximately linear in punif (uniform jumps) on
	// top of a floor contributed by reuse jumps, flush bursts, and
	// working-set drift; a secant step on that line converges where a
	// plain multiplicative update oscillates.
	meanStar := float64(p.DataSectors) / (3 * p.Locality)
	prevP, prevM := -1.0, 0.0
	// Every I/O a pass draws lies within one request size of the volume.
	largest := int64(8) // pickSize's size when Sizes is empty
	for _, s := range p.Sizes {
		largest = max(largest, int64(s.Sectors))
	}
	lastWrite := trace.NewLastWrite(min(0, p.DataSectors-largest), p.DataSectors+largest)
	for iter := 0; iter < 12; iter++ {
		tr = generateOnce(p, 1-punif, pRaw, wDiv, lastWrite)
		s := tr.ComputeStats()
		okL := s.SeekLocality == 0 || relWithin(s.SeekLocality, p.Locality, 0.10)
		okRaw := p.RAWFrac == 0 || relWithin(s.RAWFrac, p.RAWFrac, 0.15)
		// Working-set drift makes the measured statistics noisy at small
		// knob values; remember the best candidate rather than trusting
		// the last iteration.
		err := 0.0
		if p.Locality > 1 && s.SeekLocality > 0 {
			err = relDev(s.SeekLocality, p.Locality)
		}
		if p.RAWFrac > 0 {
			if e := relDev(s.RAWFrac, p.RAWFrac); e > err {
				err = e
			}
		}
		if err < bestErr {
			bestErr, best = err, tr
		}
		if okL && okRaw {
			break
		}
		if s.SeekLocality > 0 {
			mean := float64(p.DataSectors) / (3 * s.SeekLocality)
			next := punif * meanStar / mean // proportional fallback
			if prevP >= 0 && punif != prevP {
				if slope := (mean - prevM) / (punif - prevP); slope > 1e-9 {
					next = punif + (meanStar-mean)/slope
				}
			}
			prevP, prevM = punif, mean
			punif = clampF(next, 0.0005, 1)
			if mean > meanStar && punif <= 0.002 && wDiv < 4096 {
				// The uniform-jump knob has bottomed out; the residual
				// seek comes from local hops and working-set drift, so
				// tighten the window (which invalidates the secant
				// history).
				wDiv *= 1.5
				prevP = -1
			}
		}
		if p.RAWFrac > 0 && s.RAWFrac > 0 {
			ratio := p.RAWFrac / s.RAWFrac
			pRaw = clampF(pRaw*ratio, 0, 1)
			if ratio < 0.8 && pRaw < 0.01 {
				// Incidental overlap alone overshoots the target; trade
				// temporal re-reference away until it fits.
				p.TemporalReuse = clampF(p.TemporalReuse*ratio, 0, 1)
			}
		}
	}
	if best != nil {
		return best
	}
	return tr
}

// relDev is the relative deviation |got-want|/want.
func relDev(got, want float64) float64 {
	if want == 0 {
		return got
	}
	d := got/want - 1
	if d < 0 {
		d = -d
	}
	return d
}

func relWithin(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := got/want - 1
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// generateOnce is a single synthesis pass with explicit locality, RAW,
// and window knobs.
func generateOnce(p Params, pl, pRaw, wDiv float64, lastWrite *trace.LastWrite) *trace.Trace {
	rng := rand.New(rand.NewSource(p.Seed))
	t := &trace.Trace{Name: p.Name, DataSectors: p.DataSectors}
	t.Records = make([]trace.Record, 0, max(int(p.Duration.Seconds()*p.MeanIOPS), 0))
	n := float64(p.DataSectors)
	w := n / wDiv

	var recents []recentWrite
	// lastWrite tracks when each read-after-write bucket was last written
	// (at its disk-visible flush time). The generator uses it to model the
	// file-system buffer cache: a read of a freshly written block is a
	// cache hit and never reaches the disk, which is why real below-cache
	// traces show only a few percent read-after-write despite heavy write
	// locality.
	lastWrite.Reset()
	var recentIO []int64
	recentIONext := 0
	noteIO := func(off int64) {
		if len(recentIO) < 32768 {
			recentIO = append(recentIO, off)
			return
		}
		recentIO[recentIONext] = off
		recentIONext = (recentIONext + 1) % len(recentIO)
	}
	cur := rng.Int63n(p.DataSectors)
	now := des.Time(0)
	maxSize := 1
	for _, s := range p.Sizes {
		if s.Sectors > maxSize {
			maxSize = s.Sectors
		}
	}
	burstMean := p.BurstMean
	if burstMean < 1 {
		burstMean = 1
	}
	burstGap := p.BurstGap
	if burstGap <= 0 {
		burstGap = 10 * des.Millisecond
	}
	burstLeft := 0
	var epoch, burstAt des.Time
	// Async writes accumulate and flush as their own bursts on the sync
	// daemon's cadence ("most of the asynchronous writes are generated by
	// the file system sync daemon at 30 second intervals"), so they do not
	// interleave with foreground bursts.
	var flushBuf []trace.Record
	nextFlush := p.SyncPeriod
	emitFlushes := func(upto des.Time) {
		if p.SyncPeriod <= 0 {
			return
		}
		for nextFlush <= upto {
			at := nextFlush
			for _, fr := range flushBuf {
				fr.At = at
				t.Records = append(t.Records, fr)
				at += 200 // tight daemon burst
			}
			flushBuf = flushBuf[:0]
			nextFlush += p.SyncPeriod
		}
	}
	for {
		if burstLeft > 0 {
			// Continue the current burst at short gaps.
			burstLeft--
			burstAt += des.Time(rng.ExpFloat64() * float64(burstGap))
			now = burstAt
		} else {
			// Next burst epoch: Poisson at rate/burstMean, thinned under
			// the slow modulation. Thinning keeps an epoch with mean
			// probability 1/(1+BurstAmp) and the epoch rate is not raised
			// to make up for it, so the long-run request rate stays below
			// MeanIOPS. The epoch clock advances independently of how long
			// the previous burst ran.
			rate := p.MeanIOPS / 1e6 // per microsecond
			epoch += des.Time(rng.ExpFloat64() / rate * burstMean)
			if epoch >= p.Duration {
				break
			}
			if p.BurstCycle > 0 {
				mod := 1 + p.BurstAmp*math.Sin(2*math.Pi*float64(epoch)/float64(p.BurstCycle))
				if rng.Float64() > mod/(1+p.BurstAmp) {
					continue
				}
			}
			// Burst length is geometric with the configured mean.
			burstLeft = 0
			for burstMean > 1 && rng.Float64() < 1-1/burstMean {
				burstLeft++
			}
			// A long burst can outlive the next epoch; never go backwards.
			if epoch > burstAt {
				burstAt = epoch
			}
			now = burstAt
		}
		if now >= p.Duration {
			break
		}
		emitFlushes(now)
		size := pickSize(rng, p.Sizes)
		rec := trace.Record{At: now, Count: size}
		isRead := rng.Float64() < p.ReadFrac
		if isRead && len(recentIO) > 0 && rng.Float64() < p.TemporalReuse {
			// Working-set re-reference: reread a recently *read* block,
			// skipping candidates that overlap a recent write so the
			// explicitly calibrated RAW knob stays in control.
			if off, ok := pickReuse(rng, recentIO, lastWrite, size, p.DataSectors, now); ok {
				rec.Off = off
				t.Records = append(t.Records, rec)
				cur = rec.Off
				continue
			}
		}
		if isRead && pRaw > 0 && len(recents) > 0 && rng.Float64() < pRaw {
			// Read-after-write: revisit a write from the last hour.
			recents = pruneRecents(recents, now)
			if len(recents) > 0 {
				rw := recents[rng.Intn(len(recents))]
				rec.Off = rw.off
				if rec.Count > rw.cnt {
					rec.Count = rw.cnt
				}
				t.Records = append(t.Records, rec)
				cur = rec.Off
				continue
			}
		}
		// Position: local hop or uniform jump along a single chain. Writes
		// target a band a few windows above the read band (file systems
		// allocate fresh blocks near, but not on top of, what is being
		// read), and reads re-roll away from freshly written blocks (those
		// would be buffer-cache hits and never reach the disk); the
		// explicit RAW branch above is the calibrated exception. Rejected
		// candidates do not advance the chain.
		writeShift := int64(4 * w)
		for try := 0; ; try++ {
			cand := cur + int64((rng.Float64()-0.5)*w)
			if rng.Float64() >= pl {
				cand = rng.Int63n(p.DataSectors)
			}
			pos := cand
			if !isRead {
				pos += writeShift
			}
			if pos < 0 {
				pos = -pos
			}
			if pos > p.DataSectors-int64(maxSize) {
				pos = p.DataSectors - int64(maxSize)
			}
			if !isRead || try >= 4 || !lastWrite.Recent(pos, size, now) {
				cur = cand
				if cur < 0 {
					cur = -cur
				}
				if cur > p.DataSectors-int64(maxSize) {
					cur = p.DataSectors - int64(maxSize)
				}
				rec.Off = pos
				break
			}
		}
		if !isRead {
			rec.Write = true
			if rng.Float64() < p.AsyncFrac/(1-p.ReadFrac) {
				rec.Async = true
			}
			if n := len(recents); n > 0 && rec.At < recents[n-1].at {
				panic("tracegen: clock ran backwards; pruneRecents needs recents in time order")
			}
			recents = append(recents, recentWrite{off: rec.Off, cnt: rec.Count, at: rec.At})
			if len(recents) > 16384 {
				recents = pruneRecents(recents, now)
				if len(recents) > 16384 {
					recents = recents[len(recents)-16384:]
				}
			}
			if rec.Async && p.SyncPeriod > 0 {
				// Dirtied now, flushed by the daemon later. The flush
				// target keeps the chain position it was dirtied at, so
				// the daemon's bursts stay as local as the foreground
				// stream.
				lastWrite.Note(rec.Off, rec.Count, nextFlush)
				flushBuf = append(flushBuf, rec)
				continue
			}
			lastWrite.Note(rec.Off, rec.Count, rec.At)
		}
		t.Records = append(t.Records, rec)
		if isRead {
			// Only read offsets join the re-reference pool: rereading a
			// recently written block is the separately calibrated
			// read-after-write behavior.
			noteIO(rec.Off)
		}
	}
	emitFlushes(p.Duration)
	// Daemon flush bursts can overlap the foreground stream in time;
	// restore global time order.
	slices.SortStableFunc(t.Records, func(a, b trace.Record) int { return cmp.Compare(a.At, b.At) })
	return t
}

func pickSize(rng *rand.Rand, sizes []SizePoint) int {
	if len(sizes) == 0 {
		return 8
	}
	var total float64
	for _, s := range sizes {
		total += s.Weight
	}
	x := rng.Float64() * total
	for _, s := range sizes {
		x -= s.Weight
		if x <= 0 {
			return s.Sectors
		}
	}
	return sizes[len(sizes)-1].Sectors
}

// pruneRecents drops the writes older than trace.RAWWindow. recents is
// appended in the order of the generator's clock, which never runs
// backwards, so the expired entries are always a prefix.
func pruneRecents(rs []recentWrite, now des.Time) []recentWrite {
	i := 0
	for i < len(rs) && now-rs[i].at > trace.RAWWindow {
		i++
	}
	return rs[i:]
}

// pickReuse draws a reusable read offset that does not overlap any
// still-recent write (a few retries, then give up).
func pickReuse(rng *rand.Rand, pool []int64, written *trace.LastWrite, size int, volume int64, now des.Time) (int64, bool) {
	// Re-reference distances follow a heavy-tailed, recency-weighted
	// distribution (an LRU stack-depth curve): most rereads are of very
	// recent blocks, but a tail reaches deep into history — which is what
	// gives a block cache a capacity-dependent hit rate.
	for try := 0; try < 4; try++ {
		u := rng.Float64()
		age := int(u * u * u * float64(len(pool)))
		if age >= len(pool) {
			age = len(pool) - 1
		}
		off := pool[len(pool)-1-age]
		if off > volume-int64(size) {
			off = volume - int64(size)
		}
		if !written.Recent(off, size, now) {
			return off, true
		}
	}
	return 0, false
}
