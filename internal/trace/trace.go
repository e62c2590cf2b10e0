// Package trace defines the block-level trace representation the
// experiments replay: timestamped read/write records over a logical
// volume, with the operations the paper applies to them — uniform time
// scaling ("when the scaling rate is two, the traced inter-arrival times
// are halved"), and the characteristic statistics of Table 3 (I/O rate,
// read and async-write fractions, seek locality L, and read-after-write
// fraction).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/des"
)

// Record is one traced I/O.
type Record struct {
	At    des.Time // arrival time
	Write bool
	Async bool // asynchronous write (excluded from response-time reporting)
	Off   int64
	Count int // sectors
}

// Trace is a time-ordered sequence of records over one logical volume.
type Trace struct {
	Name        string
	DataSectors int64
	Records     []Record
}

// Scale returns a copy played at rate times the original speed: all
// arrival timestamps divide by rate.
func (t *Trace) Scale(rate float64) *Trace {
	if rate <= 0 {
		panic("trace: non-positive scale rate")
	}
	out := &Trace{Name: fmt.Sprintf("%s x%g", t.Name, rate), DataSectors: t.DataSectors}
	out.Records = make([]Record, len(t.Records))
	for i, r := range t.Records {
		r.At = des.Time(float64(r.At) / rate)
		out.Records[i] = r
	}
	return out
}

// Duration returns the arrival span of the trace.
func (t *Trace) Duration() des.Time {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At - t.Records[0].At
}

// Stats are the Table-3 characteristics of a trace.
type Stats struct {
	IOs          int
	Duration     des.Time
	AvgIOPS      float64
	ReadFrac     float64
	AsyncFrac    float64 // async writes as a fraction of all I/Os
	SeekLocality float64 // L: (DataSectors/3) / mean |Δoffset|
	RAWFrac      float64 // reads within Window of a write to the same data
}

// RAWWindow is the read-after-write attribution window (the paper uses
// one hour).
const RAWWindow = des.Hour

// rawGranularity is the block size, in sectors, at which read-after-write
// matching is tracked.
const rawGranularity = 16

// maxFlatBuckets bounds the flat table of LastWrite (32 MB of times, a
// 32 GiB volume at 16 sectors a bucket); a wider span falls back to a map
// so a trace read from a file with far-apart offsets cannot demand a
// table the size of its address space.
const maxFlatBuckets = 1 << 22

// LastWrite records when each rawGranularity-sector bucket of a volume was
// last written: the state behind read-after-write matching, both when
// ComputeStats measures it and when tracegen steers reads by it.
type LastWrite struct {
	lo   int64      // bucket that flat[0] holds
	flat []des.Time // -Inf marks a bucket never written (0 is a valid time)
	wide map[int64]des.Time
}

// NewLastWrite returns an empty table for I/Os with Off >= lo and
// Off+max(Count, 1) <= hi.
func NewLastWrite(lo, hi int64) *LastWrite {
	lw := &LastWrite{lo: lo / rawGranularity}
	if n := (hi-1)/rawGranularity - lw.lo + 1; n <= maxFlatBuckets {
		lw.flat = make([]des.Time, max(n, 0))
	} else {
		lw.wide = make(map[int64]des.Time)
	}
	lw.Reset()
	return lw
}

// Reset forgets every write.
func (lw *LastWrite) Reset() {
	for i := range lw.flat {
		lw.flat[i] = des.Time(math.Inf(-1))
	}
	clear(lw.wide)
}

// Note records a write of cnt sectors at off, visible from time at.
func (lw *LastWrite) Note(off int64, cnt int, at des.Time) {
	for b := off / rawGranularity; b <= (off+int64(cnt)-1)/rawGranularity; b++ {
		if lw.wide == nil {
			lw.flat[b-lw.lo] = at
		} else {
			lw.wide[b] = at
		}
	}
}

// Recent reports whether any bucket of the cnt sectors at off was last
// written no more than RAWWindow before now. A write noted at a time after
// now (an async write stamped with its future flush) counts as recent.
func (lw *LastWrite) Recent(off int64, cnt int, now des.Time) bool {
	for b := off / rawGranularity; b <= (off+int64(cnt)-1)/rawGranularity; b++ {
		w := des.Time(math.Inf(-1))
		if lw.wide == nil {
			w = lw.flat[b-lw.lo]
		} else if t, ok := lw.wide[b]; ok {
			w = t
		}
		if now-w <= RAWWindow {
			return true
		}
	}
	return false
}

// ComputeStats derives the Table-3 statistics.
func (t *Trace) ComputeStats() Stats {
	s := Stats{IOs: len(t.Records), Duration: t.Duration()}
	if s.IOs == 0 {
		return s
	}
	if s.Duration > 0 {
		s.AvgIOPS = float64(s.IOs) / s.Duration.Seconds()
	}
	// Size the table from the records, not DataSectors: a trace read
	// without a "# sectors" header has none.
	lo, hi := t.Records[0].Off, t.Records[0].Off+1
	for _, r := range t.Records {
		lo = min(lo, r.Off)
		hi = max(hi, r.Off+int64(max(r.Count, 1)))
	}
	lastWrite := NewLastWrite(lo, hi)
	reads, asyncs, raw := 0, 0, 0
	var prevOff int64 = -1
	var seekSum float64
	seekN := 0
	for _, r := range t.Records {
		if r.Write {
			if r.Async {
				asyncs++
			}
			lastWrite.Note(r.Off, r.Count, r.At)
		} else {
			reads++
			if lastWrite.Recent(r.Off, r.Count, r.At) {
				raw++
			}
		}
		if prevOff >= 0 {
			d := float64(r.Off - prevOff)
			if d < 0 {
				d = -d
			}
			seekSum += d
			seekN++
		}
		prevOff = r.Off
	}
	s.ReadFrac = float64(reads) / float64(s.IOs)
	s.AsyncFrac = float64(asyncs) / float64(s.IOs)
	s.RAWFrac = float64(raw) / float64(s.IOs)
	if seekN > 0 && seekSum > 0 {
		meanSeek := seekSum / float64(seekN)
		s.SeekLocality = float64(t.DataSectors) / 3 / meanSeek
	}
	return s
}

// Write emits the trace in the repository's plain-text format:
//
//	# name <name>
//	# sectors <n>
//	<at_us> r|w|aw <off> <count>
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# name %s\n# sectors %d\n", t.Name, t.DataSectors)
	for _, r := range t.Records {
		op := "r"
		if r.Write {
			op = "w"
			if r.Async {
				op = "aw"
			}
		}
		fmt.Fprintf(bw, "%.3f %s %d %d\n", float64(r.At), op, r.Off, r.Count)
	}
	return bw.Flush()
}

// Read parses the plain-text format written by Write.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		if text[0] == '#' {
			var name string
			var n int64
			if _, err := fmt.Sscanf(text, "# name %s", &name); err == nil {
				t.Name = name
			} else if _, err := fmt.Sscanf(text, "# sectors %d", &n); err == nil {
				t.DataSectors = n
			}
			continue
		}
		var at float64
		var op string
		var off int64
		var count int
		if _, err := fmt.Sscanf(text, "%f %s %d %d", &at, &op, &off, &count); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		rec := Record{At: des.Time(at), Off: off, Count: count}
		switch op {
		case "r":
		case "w":
			rec.Write = true
		case "aw":
			rec.Write, rec.Async = true, true
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", line, op)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
