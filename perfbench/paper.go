package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"wearmem/internal/harness"
)

// paperQuick regenerates the 16 paper experiments at quick scale on the
// baton engine, exactly as "wearbench -exp all -quick -seed N" does, and
// checks the rendered text against the digest recorded for the seed.
type paperQuick struct {
	seed     int64
	parallel int
	// digest is the first pass's output digest; every later pass at the
	// same seed must reproduce it byte for byte.
	digest string
}

func newPaperQuick(seed int64) passRunner {
	// Harness workers never outnumber the host's cores, and two suffice
	// for the configurations the quick figures share.
	return &paperQuick{seed: seed, parallel: min(runtime.NumCPU(), 2)}
}

// setupBatch is how many suite set-ups (the experiment list and a fresh
// memoizing runner) one setup call times: a single one takes well under a
// microsecond. A batch this long spends a few tenths of a second, so the
// page faults of its first allocations after the heap was returned to the
// OS, and the host's moment-to-moment noise, stay small against it.
const setupBatch = 100000

func (p *paperQuick) setup() (time.Duration, error) {
	start := time.Now()
	for j := 0; j < setupBatch; j++ {
		_, _ = p.suite()
	}
	return time.Since(start) / setupBatch, nil
}

// suite is the suite's set-up: the experiment list and the options every
// experiment of a pass shares, with a fresh memoizing runner.
func (p *paperQuick) suite() ([]harness.Experiment, harness.Options) {
	return harness.All(), harness.Options{Quick: true, Seed: p.seed, Parallel: p.parallel, Runner: harness.NewRunner()}
}

func (p *paperQuick) pass(rec *recorder) error {
	start := time.Now()
	exps, opt := p.suite()
	var serving time.Duration
	h := sha256.New()
	for _, e := range exps {
		var rep *harness.Report
		d := rec.span("harness."+e.ID, func() { rep = e.Run(opt) })
		serving += d
		rec.ops++
		rec.attempted++
		rep.Render(h)
		fmt.Fprintln(h)
		for _, t := range rep.Tables {
			for _, row := range t.Rows {
				for _, c := range row {
					switch c.Kind {
					case harness.CellNumber:
						rec.cells++
					case harness.CellDNF:
						rec.cells++
						rec.dnf++
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	var err error
	rec.span("bench.check", func() { err = p.check(got) })
	if err == nil {
		rec.unit(time.Since(start), uint64(len(exps)), serving)
	}
	return err
}

// check compares a pass's digest with the one recorded for the seed, and
// with the run's first pass.
func (p *paperQuick) check(got string) error {
	if want, ok := paperDigests[p.seed]; ok && got != want {
		return fmt.Errorf("paper-quick seed %d: report digest %s, recorded %s", p.seed, got, want)
	}
	if p.digest == "" {
		p.digest = got
		if _, ok := paperDigests[p.seed]; !ok {
			fmt.Printf("# paper-quick seed %d has no recorded digest; passes must agree on %s\n", p.seed, got)
		}
	} else if got != p.digest {
		return fmt.Errorf("paper-quick seed %d: pass digest %s differs from the run's first pass %s", p.seed, got, p.digest)
	}
	return nil
}
