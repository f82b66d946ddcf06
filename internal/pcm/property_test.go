package pcm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// Property: reads always return the most recent write, whether the data
// lives in the array, the failure buffer, behind start-gap rotation, or
// behind clustering redirection.
func TestReadYourWritesProperty(t *testing.T) {
	configs := []Config{
		{Size: 2 * failmap.PageSize, TrackData: true},
		{Size: 2 * failmap.PageSize, TrackData: true, WearLeveling: StartGap, GapInterval: 3},
		{Size: 2 * failmap.PageSize, TrackData: true, Endurance: 40, Variation: 0.3},
		{Size: 4 * failmap.PageSize, TrackData: true, Endurance: 25, ClusterPages: 2, BufferCap: 256, BufferReserve: 4},
	}
	for ci, cfg := range configs {
		cfg := cfg
		f := func(seed int64) bool {
			d := NewDevice(cfg, nil)
			rng := rand.New(rand.NewSource(seed))
			shadow := map[int]byte{}
			buf := make([]byte, failmap.LineSize)
			out := make([]byte, failmap.LineSize)
			for op := 0; op < 400; op++ {
				l := rng.Intn(d.Lines())
				if d.Unavailable(l) {
					continue
				}
				switch rng.Intn(3) {
				case 0, 1: // write
					v := byte(rng.Intn(256))
					buf[0] = v
					if err := d.Write(l, buf); err == ErrStalled {
						for d.BufferLen() > 0 {
							d.Drain()
						}
						continue
					}
					shadow[l] = v
				default: // read
					want, ok := shadow[l]
					if !ok {
						continue
					}
					// Failed lines forward from the buffer only until the OS
					// drains them; skip lines that went unavailable.
					if d.Unavailable(l) {
						continue
					}
					d.Read(l, out)
					if out[0] != want {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
	}
}

// Property: the failure buffer drains in FIFO order of distinct lines.
func TestFailureBufferFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := NewDevice(Config{
			Size: 4 * failmap.PageSize, Endurance: 1,
			BufferCap: 512, BufferReserve: 4, TrackData: true,
		}, nil)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, failmap.LineSize)
		var order []int
		seen := map[int]bool{}
		for i := 0; i < 60; i++ {
			l := rng.Intn(d.Lines())
			if seen[l] {
				continue
			}
			seen[l] = true
			d.Write(l, buf) // endurance 1: first write fails
			order = append(order, l)
		}
		for _, want := range order {
			rec, ok := d.Drain()
			if !ok || rec.Line != want {
				return false
			}
		}
		_, ok := d.Drain()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: FailMap agrees with Unavailable for every line, under any
// combination of wear and clustering.
func TestFailMapConsistencyProperty(t *testing.T) {
	f := func(seed int64, clustered bool) bool {
		cfg := Config{Size: 4 * failmap.PageSize, Endurance: 3, Variation: 0.2, Seed: seed,
			BufferCap: 1024, BufferReserve: 4}
		if clustered {
			cfg.ClusterPages = 2
		}
		d := NewDevice(cfg, nil)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, failmap.LineSize)
		for i := 0; i < 500; i++ {
			l := rng.Intn(d.Lines())
			if d.Unavailable(l) {
				continue
			}
			if d.Write(l, buf) == ErrStalled {
				for d.BufferLen() > 0 {
					d.Drain()
				}
			}
		}
		m := d.FailMap()
		for l := 0; l < d.Lines(); l++ {
			if m.LineFailed(l) != d.Unavailable(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// loggedDevice builds a device whose interrupt callbacks append to a log.
// Its OnFailure handler drains one entry on every third interrupt, so it
// re-enters the device while leaving the buffer to fill toward a stall.
func loggedDevice(cfg Config) (*Device, *stats.Clock, *[]string) {
	var log []string
	cfg.Probe = func(p probe.Point, addr uint64) { log = append(log, fmt.Sprintf("probe %d %d", p, addr)) }
	clock := stats.NewClock(stats.DefaultCosts())
	d := NewDevice(cfg, clock)
	interrupts := 0
	d.OnFailure(func() {
		interrupts++
		log = append(log, "failure")
		if interrupts%3 == 0 {
			if rec, ok := d.Drain(); ok {
				log = append(log, fmt.Sprintf("drained %d", rec.Line))
			}
		}
	})
	d.OnBufferFull(func() { log = append(log, "full") })
	return d, clock, &log
}

// writeLoop is the reference for WriteLines: one Write per line, stopping
// after the first write that pushes a failure-buffer entry or at a stall.
func writeLoop(d *Device, lines []int, data []byte) (int, error) {
	for n, l := range lines {
		before, _, _ := d.BufferAccounting()
		if err := d.Write(l, data); err != nil {
			return n, err
		}
		if after, _, _ := d.BufferAccounting(); after != before {
			return n + 1, nil
		}
	}
	return len(lines), nil
}

// Property: WriteLines behaves exactly like writeLoop — the same n and
// error, the same interrupt callbacks in the same order, the same clock
// charges and the same durable image — under start-gap, clustering, ECC
// and data tracking, alone or combined, with a buffer small enough to
// stall.
func TestWriteLinesMatchesWriteLoopProperty(t *testing.T) {
	var failures, stalls, fullBatches int
	f := func(seed int64, gap, clustered, ecc, track bool) bool {
		cfg := Config{Size: 4 * failmap.PageSize, Endurance: 8, Variation: 0.3, Seed: seed,
			BufferCap: 6, BufferReserve: 2, TrackData: track}
		if gap {
			cfg.WearLeveling, cfg.GapInterval = StartGap, 1
		}
		if clustered {
			cfg.ClusterPages = 2
		}
		if ecc {
			cfg.ECCEntries, cfg.ECCLease = 2, 3
		}
		batched, bClock, bLog := loggedDevice(cfg)
		looped, lClock, lLog := loggedDevice(cfg)
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, failmap.LineSize)
		for step := 0; step < 200; step++ {
			var lines []int
			for want := 1 + rng.Intn(48); len(lines) < want; {
				// Software never writes lines the OS has retired.
				if l := rng.Intn(batched.Lines()); !batched.Unavailable(l) {
					lines = append(lines, l)
				}
			}
			data[0] = byte(step)
			n, err := batched.WriteLines(lines, data)
			wn, werr := writeLoop(looped, lines, data)
			if n != wn || err != werr {
				t.Logf("step %d: WriteLines = %d, %v; Write loop = %d, %v", step, n, err, wn, werr)
				return false
			}
			switch {
			case err == ErrStalled:
				stalls++
			case n == len(lines):
				fullBatches++
			default:
				failures++
			}
			if err == ErrStalled || rng.Intn(4) == 0 {
				for _, d := range []*Device{batched, looped} {
					for d.BufferLen() > 0 {
						d.Drain()
					}
				}
			}
		}
		if !reflect.DeepEqual(*bLog, *lLog) {
			t.Logf("interrupt logs differ:\n%v\n%v", *bLog, *lLog)
			return false
		}
		if !reflect.DeepEqual(bClock.Snapshot(), lClock.Snapshot()) {
			t.Logf("clock charges differ")
			return false
		}
		var bImg, lImg bytes.Buffer
		if err := EncodeImage(&bImg, batched.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := EncodeImage(&lImg, looped.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(bImg.Bytes(), lImg.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// The property is vacuous unless batches both ran to completion and
	// stopped early at failures and stalls.
	if failures == 0 || stalls == 0 || fullBatches == 0 {
		t.Fatalf("coverage: %d failure returns, %d stalls, %d full batches", failures, stalls, fullBatches)
	}
	t.Logf("%d failure returns, %d stalls, %d full batches", failures, stalls, fullBatches)
}
