package tracegen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/trace"
)

// recordDigest is a 64-bit FNV-1a hash over every field of every record.
func recordDigest(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var b [26]byte
	for _, r := range tr.Records {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(float64(r.At)))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Off))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.Count))
		b[24], b[25] = 0, 0
		if r.Write {
			b[24] = 1
		}
		if r.Async {
			b[25] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// statsString renders every Stats field at full precision.
func statsString(s trace.Stats) string {
	return fmt.Sprintf("ios=%d dur=%v iops=%v read=%v async=%v L=%v raw=%v",
		s.IOs, float64(s.Duration), s.AvgIOPS, s.ReadFrac, s.AsyncFrac, s.SeekLocality, s.RAWFrac)
}

// TestGeneratePinned holds three synthesized traces to their record count,
// record digest and measured statistics, so a change to the generator or
// to trace.ComputeStats that is meant to be a pure speed-up shows up here
// if it moves a single draw.
func TestGeneratePinned(t *testing.T) {
	cases := []struct {
		p      Params
		n      int
		digest uint64
		stats  string
	}{
		{CelloBase(1).WithDuration(24 * des.Hour), 153690, 0x66a735c803edcdfd,
			"ios=153690 dur=8.639786307572264e+10 iops=1.778863440931401 read=0.5528856789641486 async=0.1887761077493656 L=3.9328613772257217 raw=0.042123755611946125"},
		{CelloDisk6(5).WithDuration(20 * des.Minute), 2144, 0x181b3df9f20db21e,
			"ios=2144 dur=1.1954738893801436e+09 iops=1.7934310561242535 read=0.35401119402985076 async=0.16324626865671643 L=19.162461119462595 raw=0.033582089552238806"},
		{TPCC(6).WithDuration(20 * des.Minute), 478515, 0x32bb9942b6a28e5c,
			"ios=478515 dur=1.1999898370126584e+09 iops=398.7658772104686 read=0.548555426684639 async=0 L=1.0671014516601676 raw=0.14795774427133945"},
	}
	for _, c := range cases {
		tr := Generate(c.p)
		n, d, s := len(tr.Records), recordDigest(tr), statsString(tr.ComputeStats())
		if n != c.n || d != c.digest || s != c.stats {
			t.Errorf("%s: got %d records, digest %#x, stats %q; want %d, %#x, %q",
				c.p.Name, n, d, s, c.n, c.digest, c.stats)
		}
	}
}
