package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/runner"
)

// Scrub measures the silent-corruption tolerance stack on equal-size
// (six-drive) SR-Array and RAID-10 configurations. Each run pre-poisons a
// fixed population of latent errors, serves a closed loop of random reads,
// and sweeps the background scrubber's bandwidth cap: rate 0 is the
// unprotected baseline (no verification, no scrub — corrupt data flows to
// callers silently), and every positive rate turns on verify-on-read plus
// a single scrub pass at that cap. The figure reports how many reads
// returned garbage undetected and what fraction of the injected poison the
// repair machinery cleaned by the end of the run.
func Scrub(c Config) (*Figure, error) {
	rates := []float64{0, 2, 8, 32} // scrub MBps; 0 = unprotected baseline
	configs := []struct {
		label string
		cfg   layout.Config
	}{
		{"SR-Array 2x3x1", layout.SRArray(2, 3)},
		{"RAID-10 3x1x2", layout.RAID10(6)},
	}

	type job struct {
		cfg  layout.Config
		rate float64
	}
	var jobs []job
	for _, cc := range configs {
		for _, r := range rates {
			jobs = append(jobs, job{cc.cfg, r})
		}
	}
	res, err := runner.Map(len(jobs), func(i int) (scrubRes, error) {
		j := jobs[i]
		return runScrub(j.cfg, j.rate, c.IometerIOs, c.Seed)
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Name:   "scrub",
		Title:  "Silent corruption vs scrub rate (six drives, pre-poisoned latent errors)",
		XLabel: "scrub bandwidth cap (MB/s; 0 = no verification, no scrub)",
		YLabel: "silent reads (count) / poison repaired (%)",
	}
	for ci, cc := range configs {
		silent := Series{Label: "silent/" + cc.label}
		repaired := Series{Label: "repaired%/" + cc.label}
		for ri, rate := range rates {
			r := res[ci*len(rates)+ri]
			silent.Add(rate, float64(r.silentReads))
			pct := 0.0
			if r.injected > 0 {
				pct = 100 * float64(r.injected-r.remaining) / float64(r.injected)
			}
			repaired.Add(rate, pct)
			name := fmt.Sprintf("%s/rate=%g", cc.label, rate)
			fig.Metric("injected/"+name, float64(r.injected))
			fig.Metric("remaining/"+name, float64(r.remaining))
			fig.Metric("silent_reads/"+name, float64(r.silentReads))
			fig.Metric("exposed/"+name, float64(r.exposed))
			fig.Metric("verify_detected/"+name, float64(r.verifyDetected))
			fig.Metric("read_repairs/"+name, float64(r.readRepairs))
			fig.Metric("scrub_verified/"+name, float64(r.scrub.Verified))
			fig.Metric("scrub_corrupt/"+name, float64(r.scrub.Corrupt))
			fig.Metric("scrub_repaired/"+name, float64(r.scrub.Repaired))
			fig.Metric("scrub_unrepairable/"+name, float64(r.scrub.Unrepairable))
			fig.Metric("scrub_passes/"+name, float64(r.scrub.Passes))
		}
		fig.Series = append(fig.Series, silent, repaired)
	}
	return fig, nil
}

// scrubRes is one configuration x rate measurement.
type scrubRes struct {
	injected       int
	remaining      int
	served         int
	silentReads    int64
	verifyDetected int64
	readRepairs    int64
	// exposed counts reads failed with every reachable copy condemned
	// (ErrCorruptData) — detected loss, as opposed to silent loss.
	exposed int
	scrub   core.ScrubCounters
}

// scrubVolume keeps a full scrub pass short at the lowest swept rate while
// leaving ~1024 chunks for the poison to spread over.
const scrubVolume = int64(1 << 17) // 64 MB

// scrubInject is the pre-poisoned latent-error population per run.
const scrubInject = 64

// runScrub builds the array, silently poisons scrubInject copies, and
// measures a closed loop of uniform random reads. rate 0 leaves the array
// unprotected; rate > 0 enables verify-on-read and one scrub pass capped
// at that bandwidth. The drain at the end lets the scrub pass and every
// queued repair finish.
func runScrub(cfg layout.Config, rate float64, ios int, seed int64) (scrubRes, error) {
	sim, a, err := buildArray(cfg, policyFor(cfg), scrubVolume, seed, func(o *coreOptions) {
		o.ObsLabel = fmt.Sprintf("scrub/%s/rate=%g", cfg, rate)
		o.VerifyReads = rate > 0
	})
	if err != nil {
		return scrubRes{}, err
	}
	var res scrubRes
	res.injected = a.InjectCorruption(scrubInject, seed+77)
	if rate > 0 {
		if err := a.StartScrub(core.ScrubOptions{MBps: rate, Passes: 1}); err != nil {
			return scrubRes{}, err
		}
	}

	if _, err := readLoop("scrub", sim, a, ios, seed+307, func(r coreResult) {
		if r.Failed {
			res.exposed++
		} else {
			res.served++
		}
	}); err != nil {
		return scrubRes{}, err
	}

	fc := a.Faults()
	res.silentReads = fc.SilentReads
	res.verifyDetected = fc.VerifyDetected
	res.readRepairs = fc.RepairsDone
	res.scrub = a.ScrubCounters()
	res.remaining = a.CorruptCopies()
	return res, nil
}
