package harness

import (
	"math/rand"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
)

// The worn template: a small module with low endurance. The resulting
// failure *pattern* is what matters (the runner tiles the template across
// the pool), and reaching a 50% rate through skewed traffic on a realistic
// module would take billions of simulated writes.
const (
	wornPages = 512 // 2 MB template
	wornLines = wornPages * failmap.LinesPerPage
	// wornHot is the hot quarter of the module that 90% of writes hit.
	wornHot = wornLines / 4
	// wornBatch is how many traffic lines wornFailureMaps hands the device
	// per WriteLines call.
	wornBatch = 4096
)

// wornFailureMaps produces failure maps by simulating skewed write traffic
// on a PCM device under the given policy, snapshotting the map as the
// failure rate reaches each of the ascending target rates. The device and
// its traffic do not depend on the target, so each map is the one a fresh
// device worn to that rate alone would produce.
func wornFailureMaps(wl pcm.WearLeveling, rates []float64, seed int64) []*failmap.Map {
	// GapInterval 1 keeps the start-gap rotation fast relative to the
	// endurance so leveling genuinely uniformizes wear before the target
	// rate is reached (slow rotation would merely smear the hot band).
	cfg := pcm.Config{
		Size: wornPages * failmap.PageSize, Endurance: 300, Variation: 0.15,
		WearLeveling: wl, GapInterval: 1, Seed: seed,
	}
	var clock *stats.Clock // none: writes are not charged
	dev := pcm.NewDevice(cfg, clock)
	// Under no leveling, a write to a line that has already failed lands
	// on its broken slot, and on a device with no clustering hardware, no
	// error correction, no data tracking and no clock that changes nothing
	// but the slot's diagnostic write counter: no failure, no buffer entry,
	// no charge, nothing the maps read. Such writes are dropped (their
	// draws still happen, so the stream is unchanged). Start-gap keeps
	// every write, because each one moves the gap.
	skipFailed := cfg.WearLeveling == pcm.NoWearLeveling && cfg.ClusterPages == 0 &&
		cfg.ECCEntries == 0 && !cfg.TrackData && clock == nil
	// failed marks the module lines drained from the failure buffer; it
	// stays empty when writes to them are kept.
	var failed [wornLines]bool
	traffic := newWornTraffic(rand.NewSource(seed + 7).(rand.Source64))
	buf := make([]byte, failmap.LineSize)
	batch := make([]int, 0, wornBatch)
	var pending []int // unconsumed tail of batch, carried across calls
	maps := make([]*failmap.Map, 0, len(rates))
	for {
		// The rate only moves on a write that fails, and WriteLines returns
		// right after one, so checking between calls sees every crossing.
		rate := dev.FailureRate()
		for len(maps) < len(rates) && rate >= rates[len(maps)] {
			maps = append(maps, dev.FailMap())
		}
		if len(maps) == len(rates) {
			return maps
		}
		if len(pending) == 0 {
			batch = traffic.fill(batch[:0], &failed)
			pending = batch
		}
		n, err := dev.WriteLines(pending, buf)
		if err == pcm.ErrStalled {
			n++ // a stalled write is dropped, not retried
		}
		pending = pending[n:]
		for dev.BufferLen() > 0 {
			if rec, ok := dev.Drain(); ok && skipFailed {
				failed[rec.Line] = true
			}
		}
	}
}

// math/rand's default source is the additive lagged-Fibonacci generator
// x[n] = x[n-607] + x[n-273] (mod 2^64), emitted in order of n.
const (
	wornLag   = 607
	wornTap   = 273
	wornBlock = 4096 // values generated per refill
	// wornMax10 is the largest Int31 that Int31n(10) accepts without
	// redrawing.
	wornMax10 = (1<<31 - 1) - (1<<31)%10
)

// wornTraffic draws wornFailureMaps' write traffic: the exact stream of
// rand.New(rand.NewSource(seed)).Intn(wornHot) / Intn(10) /
// Intn(wornLines), without a Source interface call per draw. Seeded from
// the source's first wornLag outputs, it emits those, then continues the
// recurrence a block at a time.
type wornTraffic struct {
	// x[:wornLag] is the lag history of the block x[wornLag:]; the seed
	// values start out as the tail of a block already in emission.
	x [wornLag + wornBlock]uint64
	i int // next index of x to emit
}

func newWornTraffic(src rand.Source64) *wornTraffic {
	t := &wornTraffic{i: wornBlock}
	for j := wornBlock; j < len(t.x); j++ {
		t.x[j] = src.Uint64()
	}
	return t
}

// refill moves the last wornLag values into the history and generates the
// next block.
func (t *wornTraffic) refill() {
	copy(t.x[:wornLag], t.x[wornBlock:])
	for j := wornLag; j < len(t.x); j++ {
		t.x[j] = t.x[j-wornLag] + t.x[j-wornTap]
	}
	t.i = wornLag
}

// wornInt31 is rand.Rand.Int31 of a source value: its bits 32..62.
func wornInt31(v uint64) int32 { return int32(v << 1 >> 33) }

// next is rand.Rand.Int31 of the next value.
func (t *wornTraffic) next() int32 {
	if t.i == len(t.x) {
		t.refill()
	}
	v := t.x[t.i]
	t.i++
	return wornInt31(v)
}

// int31n10 is rand.Rand.Int31n(10), rejection loop included.
func (t *wornTraffic) int31n10() int32 {
	v := t.next()
	for v > wornMax10 {
		v = t.next()
	}
	return v % 10
}

// line is one traffic write: 90% of writes hit the hot quarter of the
// module. Both ranges are powers of two, which rand.Rand.Intn masks.
func (t *wornTraffic) line() int {
	l := t.next() & (wornHot - 1)
	if t.int31n10() == 0 {
		l = t.next() & (wornLines - 1)
	}
	return int(l)
}

// fill appends traffic writes to dst up to its capacity, dropping each
// line that drop marks; a dropped write's draws are still taken.
func (t *wornTraffic) fill(dst []int, drop *[wornLines]bool) []int {
	n := len(dst)
	dst = dst[:cap(dst)]
	for n < len(dst) {
		l := t.line()
		dst[n] = l
		if !drop[l] {
			n++
		}
	}
	return dst[:n]
}
