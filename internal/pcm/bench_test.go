package pcm

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
)

// benchDevice is a 2 MB module that wears (every write takes the endurance
// comparison) but never fails within a benchmark run, plus the skewed
// traffic of the §7.2 wear-out: 90% of writes hit the hot quarter.
func benchDevice() (*Device, []int) {
	d := NewDevice(Config{Size: 512 * failmap.PageSize, Endurance: 1 << 40}, nil)
	rng := rand.New(rand.NewSource(1))
	traffic := make([]int, 1<<16)
	for i := range traffic {
		traffic[i] = rng.Intn(d.Lines() / 4)
		if rng.Intn(10) == 0 {
			traffic[i] = rng.Intn(d.Lines())
		}
	}
	return d, traffic
}

// BenchmarkDeviceWrite is the per-write cost: one lock acquisition each.
func BenchmarkDeviceWrite(b *testing.B) {
	d, traffic := benchDevice()
	buf := make([]byte, failmap.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(traffic[i&(len(traffic)-1)], buf)
	}
}

// BenchmarkDeviceWriteLines is the same traffic in 4096-line batches, one
// lock acquisition per batch; ns/op is per line written.
func BenchmarkDeviceWriteLines(b *testing.B) {
	d, traffic := benchDevice()
	buf := make([]byte, failmap.LineSize)
	const batch = 4096
	b.ResetTimer()
	for done := 0; done < b.N; {
		off := done & (len(traffic) - 1)
		n, _ := d.WriteLines(traffic[off:off+min(batch, b.N-done)], buf)
		done += n
	}
}
