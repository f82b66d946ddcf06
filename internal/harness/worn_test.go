package harness

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
)

// wornFailureMapRef is the per-write reference wornFailureMaps replaced:
// a fresh device worn to one target rate, taking the device lock for every
// Write, FailureRate and BufferLen.
func wornFailureMapRef(wl pcm.WearLeveling, target float64, seed int64) *failmap.Map {
	const pages = 512
	dev := pcm.NewDevice(pcm.Config{
		Size: pages * failmap.PageSize, Endurance: 300, Variation: 0.15,
		WearLeveling: wl, GapInterval: 1, Seed: seed,
	}, nil)
	rng := rand.New(rand.NewSource(seed + 7))
	hot := dev.Lines() / 4
	buf := make([]byte, failmap.LineSize)
	for dev.FailureRate() < target {
		l := rng.Intn(hot)
		if rng.Intn(10) == 0 {
			l = rng.Intn(dev.Lines())
		}
		dev.Write(l, buf)
		for dev.BufferLen() > 0 {
			dev.Drain()
		}
	}
	return dev.FailMap()
}

// The batched, single-pass wear-out must produce byte-identical maps to
// wearing a fresh device per rate one write at a time. The 50% rate costs
// seconds per policy and is covered by the pinned quick-suite digest.
func TestWornFailureMapsMatchPerWriteReference(t *testing.T) {
	if testing.Short() {
		t.Skip("wears eight devices")
	}
	rates := []float64{0.10, 0.25}
	for _, seed := range []int64{1, 3} {
		for _, wl := range []pcm.WearLeveling{pcm.StartGap, pcm.NoWearLeveling} {
			got := wornFailureMaps(wl, rates, seed)
			if len(got) != len(rates) {
				t.Fatalf("seed %d policy %d: %d maps for %d rates", seed, wl, len(got), len(rates))
			}
			for i, f := range rates {
				want := wornFailureMapRef(wl, f, seed)
				if !bytes.Equal(got[i].EncodeRLE(), want.EncodeRLE()) {
					t.Errorf("seed %d policy %d rate %.2f: batched map differs from the per-write reference",
						seed, wl, f)
				}
			}
		}
	}
}

// wornTraffic must draw exactly what math/rand draws for the same traffic,
// across many refills and for any seed, and fill must drop exactly the
// marked lines.
func TestWornTrafficMatchesMathRand(t *testing.T) {
	var drop [wornLines]bool
	for l := range drop {
		drop[l] = l%3 == 0
	}
	// Each write takes at least two values: over 58 refill blocks.
	const writes = 120_000
	for _, seed := range []int64{0, -1, 1, 7, 42, 49, 1 << 40, -987654321} {
		ref := rand.New(rand.NewSource(seed))
		var want []int
		for i := 0; i < writes; i++ {
			l := ref.Intn(wornHot)
			if ref.Intn(10) == 0 {
				l = ref.Intn(wornLines)
			}
			if !drop[l] {
				want = append(want, l)
			}
		}
		tr := newWornTraffic(rand.NewSource(seed).(rand.Source64))
		var got []int
		batch := make([]int, 0, 1001) // batches start and end anywhere in a block
		for len(got) < len(want) {
			got = append(got, tr.fill(batch[:0], &drop)...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d kept write %d: line %d, math/rand %d", seed, i, got[i], want[i])
			}
		}
		line := newWornTraffic(rand.NewSource(seed).(rand.Source64))
		ref = rand.New(rand.NewSource(seed))
		for i := 0; i < writes/10; i++ {
			l := ref.Intn(wornHot)
			if ref.Intn(10) == 0 {
				l = ref.Intn(wornLines)
			}
			if g := line.line(); g != l {
				t.Fatalf("seed %d write %d: line %d, math/rand %d", seed, i, g, l)
			}
		}
	}
}

// craftedSource replays fixed values as a math/rand source.
type craftedSource struct{ vals []uint64 }

func (s *craftedSource) Uint64() uint64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}
func (s *craftedSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
func (s *craftedSource) Seed(int64)   { panic("craftedSource: Seed") }

// Int31n(10) redraws an Int31 above wornMax10 (8 values in 2^31), which
// random draws almost never produce: feed such values directly.
func TestWornTrafficRejection(t *testing.T) {
	top := func(v int32) uint64 { return uint64(v) << 32 }
	vals := make([]uint64, wornLag)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e37_79b9_7f4a_7c15
	}
	vals[0] = top(wornMax10 + 1)             // rejected
	vals[1] = top(math.MaxInt32) | 1<<63 | 5 // rejected: bit 63 and the low word are not Int31's
	vals[2] = top(wornMax10)                 // accepted: the largest kept value
	src := &craftedSource{vals: append([]uint64(nil), vals...)}
	ref := rand.New(src)
	got := newWornTraffic(&craftedSource{vals: vals})
	for i := 0; i < wornLag-2; i++ {
		want := ref.Int31n(10)
		if i == 0 && want != wornMax10%10 {
			t.Fatalf("crafted values did not reach the rejection branch: first draw %d", want)
		}
		if g := got.int31n10(); g != want {
			t.Fatalf("draw %d: %d, math/rand %d", i, g, want)
		}
	}
	if used := got.i - wornBlock; used != wornLag-len(src.vals) {
		t.Fatalf("consumed %d values, math/rand %d", used, wornLag-len(src.vals))
	}
}

// BenchmarkWornTraffic draws one traffic write per op, in wornBatch
// batches from wornTraffic and one by one from math/rand behind its Source
// interface.
func BenchmarkWornTraffic(b *testing.B) {
	b.Run("worn", func(b *testing.B) {
		tr := newWornTraffic(rand.NewSource(49).(rand.Source64))
		var none [wornLines]bool
		batch := make([]int, 0, wornBatch)
		for n := 0; n < b.N; n += len(batch) {
			batch = tr.fill(batch[:0], &none)
		}
		sinkLine = batch[0]
	})
	b.Run("mathrand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(49))
		sum := 0
		for i := 0; i < b.N; i++ {
			l := rng.Intn(wornHot)
			if rng.Intn(10) == 0 {
				l = rng.Intn(wornLines)
			}
			sum += l
		}
		sinkLine = sum
	})
}

var sinkLine int

// BenchmarkWornFailureMaps wears one template per op to tab2's rates.
func BenchmarkWornFailureMaps(b *testing.B) {
	rates := []float64{0.10, 0.25, 0.50}
	for _, p := range []struct {
		name string
		wl   pcm.WearLeveling
	}{{"startgap", pcm.StartGap}, {"noleveling", pcm.NoWearLeveling}} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wornFailureMaps(p.wl, rates, 42)
			}
		})
	}
}
