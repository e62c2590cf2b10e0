package mimdraid

import "testing"

// TestWorkloadTracesMatchTable3 is a sanity check of the three trace
// constructors at a small size: each trace lies inside its volume and
// carries Table 3's read and async-write mix. The I/O count is only
// bounded loosely, because the traces run below Table 3's rate.
func TestWorkloadTracesMatchTable3(t *testing.T) {
	const ios = 2000
	for _, c := range []struct {
		name      string
		gen       func(seed int64, ios int) *Trace
		read, asy float64
	}{
		{"cello-base", CelloBaseTrace, 0.552, 0.189},
		{"cello-disk6", CelloDisk6Trace, 0.358, 0.161},
		{"tpcc", TPCCTrace, 0.548, 0},
	} {
		tr := c.gen(1, ios)
		s := tr.ComputeStats()
		if s.IOs < ios/2 || s.IOs > ios*11/10 {
			t.Errorf("%s: %d I/Os, want about %d", c.name, s.IOs, ios)
		}
		if d := s.ReadFrac - c.read; d < -0.05 || d > 0.05 {
			t.Errorf("%s: read fraction %.3f, Table 3 says %.3f", c.name, s.ReadFrac, c.read)
		}
		if d := s.AsyncFrac - c.asy; d < -0.04 || d > 0.04 {
			t.Errorf("%s: async fraction %.3f, Table 3 says %.3f", c.name, s.AsyncFrac, c.asy)
		}
		for i, r := range tr.Records {
			if r.Off < 0 || r.Off+int64(r.Count) > tr.DataSectors {
				t.Errorf("%s: record %d outside the %d-sector volume", c.name, i, tr.DataSectors)
				break
			}
		}
	}
}
