package harness

import (
	"bytes"
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
