package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"wearmem"
	"wearmem/internal/heap"
	"wearmem/internal/kv"
	"wearmem/internal/stats"
)

// Both KV workloads serve from a closed loop of kvMutators clients, one
// per mutator. The kv key stream is fixed by the kv profile's name and the
// mutator index (internal/kv seeds its generator from them); the seed
// drives the failure map and the device instead.
//
// Both run under a GC pause budget. Without one, a stop-the-world runtime
// gives up after a single full collection when an allocation needs a
// wholly free block, and at the heap's first collection — before any full
// collection has compacted it — that one is often not enough: on either
// engine, 2-25% of kv epochs end in "vm: out of memory" at the first
// collection, at any heap from 2x to 4x the minimum and any failure rate
// from 0 to 25% (perfbench/README.md has the table). Only the
// budgeted runtimes retry full collections while defragmentation makes
// progress (vm.allocAttempts, vm.allocSlowThreaded). A benchmark must
// serve every operation it attempts, so the workloads take the budget;
// the defect stays open, and serving errors are still counted as failed
// operations should one occur.
const (
	kvMutators    = 2
	kvOpsPerIter  = 128       // kv.Config.OpsPerIter default
	kvPauseBudget = 1_000_000 // simulated cycles per bounded GC pause
)

// kvHoles serves the default read-heavy kv scenario (75% GET) on the
// threaded engine, on a fresh runtime per epoch over a pool with 25%
// static line failures under 2-page clustering hardware. There is no
// wearing device. Each epoch's failure map comes from its own seed,
// derived from the run's, so a run averages over many maps. The pause
// budget makes the threaded engine mark concurrently; one marker keeps
// the working goroutines at two while no cycle is marking and three while
// one is.
type kvHoles struct {
	seed       int64
	heap, pool int
	epochs     int64 // epochs opened so far
}

const (
	kvHolesRate    = 0.25
	kvHolesCluster = 2
	kvHolesIters   = 4000 // iterations per epoch: 512K operations
)

func newKVHoles(seed int64) passRunner {
	heapBytes := 2 * wearmem.BenchmarkByName("kv").MinHeap()
	return &kvHoles{seed: seed, heap: heapBytes, pool: poolPages(heapBytes, kvHolesRate)}
}

func (k *kvHoles) open() (*wearmem.Runtime, error) {
	rt, err := wearmem.Open(
		wearmem.WithEngine("threaded"),
		wearmem.WithMutators(kvMutators),
		wearmem.WithPauseBudget(kvPauseBudget),
		wearmem.WithConcurrentMark(1),
		wearmem.WithHeapBytes(k.heap),
		wearmem.WithPoolPages(k.pool),
		wearmem.WithFailureRate(kvHolesRate),
		wearmem.WithClusterPages(kvHolesCluster),
		wearmem.WithSeed(k.seed*1000+k.epochs),
		wearmem.WithLatencyCapture(),
	)
	k.epochs++
	if err != nil {
		return nil, fmt.Errorf("kv-holes: %w", err)
	}
	return rt, nil
}

func (k *kvHoles) setup() (time.Duration, error) {
	start := time.Now()
	_, err := k.open()
	return time.Since(start), err
}

func (k *kvHoles) pass(rec *recorder) error {
	start := time.Now()
	var (
		rt  *wearmem.Runtime
		err error
	)
	rec.span("wearmem.open", func() { rt, err = k.open() })
	if err != nil {
		return err
	}
	ops, serving, err := serveEpoch(rec, rt, "kv", kvHolesIters)
	if ops > 0 && err == nil {
		rec.unit(time.Since(start), ops, serving)
	}
	return err
}

// kvWearRestart serves a write-heavy kv mix (25% GET) on the baton engine,
// writing through to a fragile wearing device. It cannot run threaded:
// write-through turns the threaded engine's concurrent marking off, and
// with it the retried full collections the pause budget brings (see
// above), so threaded write-through epochs still run out of memory. A pass is one device life: a fresh device, then
// wearLifeEpochs serving epochs, each followed by a power cut — Snapshot,
// EncodeImage, DecodeImage, then Open WithPersistentImage (the kernel's
// full recovery) — so wear accumulates across the life. Each epoch with
// its restart is a unit of work; a run is whole lives, so it has as many
// units from late in a life as from early. A life ends early when
// recovery finds the device worn out.
type kvWearRestart struct {
	seed       int64
	bench      string
	heap, pool int
	lives      int64 // fresh devices opened so far
}

const (
	wearEndurance = 256 // mean writes a line endures
	wearVariation = 0.25
	// A life serves wearLifeEpochs × wearIters × 128 = 512K operations,
	// wearing through four power cuts while staying short of the heavy
	// wear (about 8% of lines failed) at which serving mostly fails.
	wearLifeEpochs = 4
	wearIters      = 1000 // iterations per epoch: 128K operations
)

func newKVWearRestart(seed int64) passRunner {
	bench := kv.MustRegister(kv.Config{ReadRatio: 0.25})
	heapBytes := 2 * wearmem.BenchmarkByName(bench).MinHeap()
	return &kvWearRestart{seed: seed, bench: bench, heap: heapBytes, pool: poolPages(heapBytes, 0)}
}

func (k *kvWearRestart) opts(extra ...wearmem.Option) []wearmem.Option {
	return append([]wearmem.Option{
		wearmem.WithEngine("baton"),
		wearmem.WithMutators(kvMutators),
		wearmem.WithPauseBudget(kvPauseBudget),
		wearmem.WithHeapBytes(k.heap),
		wearmem.WithWriteThrough(),
		wearmem.WithLatencyCapture(),
	}, extra...)
}

// open opens a runtime over a fresh wearing device.
func (k *kvWearRestart) open() (*wearmem.Runtime, error) {
	rt, err := wearmem.Open(k.opts(
		wearmem.WithPoolPages(k.pool),
		wearmem.WithWearingDevice(wearEndurance, wearVariation),
		wearmem.WithSeed(k.seed*1000+k.lives),
	)...)
	k.lives++
	if err != nil {
		return nil, fmt.Errorf("kv-wear-restart: %w", err)
	}
	return rt, nil
}

func (k *kvWearRestart) setup() (time.Duration, error) {
	start := time.Now()
	_, err := k.open()
	return time.Since(start), err
}

func (k *kvWearRestart) pass(rec *recorder) error {
	start := time.Now()
	var (
		rt  *wearmem.Runtime
		err error
	)
	rec.span("wearmem.open", func() { rt, err = k.open() })
	for epoch := 0; err == nil && rt != nil && epoch < wearLifeEpochs; epoch++ {
		failedBefore := rt.Device.FailedLines()
		var (
			ops     uint64
			serving time.Duration
		)
		if ops, serving, err = serveEpoch(rec, rt, k.bench, wearIters); err != nil {
			break
		}
		rec.kv.deviceWritten = true
		rec.kv.failedLines += float64(rt.Device.FailedLines() - failedBefore)
		rt, err = k.restart(rec, rt)
		if ops > 0 && err == nil {
			rec.unit(time.Since(start), ops, serving)
		}
		// The runtime the power cut ended is garbage a restarted process
		// would not carry: collect it before the next epoch serves.
		runtime.GC()
		start = time.Now()
	}
	return err
}

// restart cuts the power on a serving runtime and reopens its device
// image through the kernel's recovery protocol, verifying the recovered
// failure table against a device scan. It returns nil when recovery finds
// the device worn out.
func (k *kvWearRestart) restart(rec *recorder, old *wearmem.Runtime) (*wearmem.Runtime, error) {
	start := time.Now()
	var (
		img *wearmem.DeviceImage
		buf bytes.Buffer
		rt  *wearmem.Runtime
		err error
	)
	rec.span("pcm.snapshot", func() { img, err = old.Snapshot() })
	if err != nil {
		return nil, err
	}
	rec.span("pcm.encode", func() { err = wearmem.EncodeImage(&buf, img) })
	if err != nil {
		return nil, err
	}
	imageMB := float64(buf.Len()) / (1 << 20)
	rec.span("pcm.decode", func() { img, err = wearmem.DecodeImage(&buf) })
	if err != nil {
		return nil, err
	}
	rec.span("wearmem.reopen", func() { rt, err = wearmem.Open(k.opts(wearmem.WithPersistentImage(img))...) })
	elapsed := time.Since(start)
	if errors.Is(err, wearmem.ErrDeviceWornOut) {
		rec.wornOut++
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("kv-wear-restart reopen: %w", err)
	}
	rec.restartMS = append(rec.restartMS, float64(elapsed)/float64(time.Millisecond))
	st := rt.Recovery
	rec.recoverMcycles = append(rec.recoverMcycles, float64(st.Cycles)/1e6)
	rec.kv.recovery = append(rec.kv.recovery, recoveryCounts{
		rediscovered: float64(st.Rediscovered), scrubbed: float64(st.Scrubbed),
		scrubFailures: float64(st.ScrubFailures), usableFrames: float64(st.UsableFrames),
		imageMB: imageMB,
	})
	rec.span("bench.check", func() {
		rep := wearmem.VerifyRecovered(wearmem.RecoveredTarget{Pool: rt.Kernel, Scan: rt.Device, Clusters: rt.Device})
		err = rep.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("kv-wear-restart recovered state: %w", err)
	}
	return rt, nil
}

// poolPages sizes the PCM pool as the harness does: the raw equivalent of
// the compensated heap plus modest slack.
func poolPages(heapBytes int, rate float64) int {
	return int(1.25*float64(heapBytes)/(1-rate))/wearmem.PageSize + 64
}

// serveEpoch runs one serving epoch and checks the heap it leaves,
// returning the operations served and the time spent serving them. A
// serving error (an out-of-memory at the first collection, for one) fails
// the epoch's unfinished operations and returns no operations, and the run
// goes on; a failed check is returned as an error.
func serveEpoch(rec *recorder, rt *wearmem.Runtime, bench string, iters int) (ops uint64, serving time.Duration, err error) {
	prof := wearmem.BenchmarkByName(bench)
	attempted := uint64(iters) * kvOpsPerIter
	before := readCounters(rt)
	var runErr error
	serving = rec.span("wearmem.run", func() { runErr = rt.RunBenchmark(prof, iters) })
	rec.attempted += attempted
	var done uint64
	lr := rt.LatencyReport()
	if lr != nil {
		done = min(lr.Ops, attempted)
	}
	rec.ops += done
	if runErr != nil {
		rec.failed += attempted - done
		rec.failures[runErr.Error()]++
		return 0, serving, nil
	}
	if done != attempted {
		return 0, serving, fmt.Errorf("%s: served %d of %d operations without an error", bench, done, attempted)
	}
	rec.epochs++
	rec.latOps += lr.Ops
	rec.p50 = append(rec.p50, float64(lr.Overall.P50))
	rec.p99 = append(rec.p99, float64(lr.Overall.P99))
	rec.p999 = append(rec.p999, float64(lr.Overall.P999))
	rec.kv.add(before, readCounters(rt), float64(rt.VM.GCStats().MaxGCCycles), lr)

	rec.span("bench.check", func() { err = checkHeap(rt) })
	return done, serving, err
}

// counters are the cumulative counters a serving epoch moves, read
// through the runtime's accessors.
type counters struct {
	collections, full         float64
	linesReclaimed, evacuated float64 // lines, bytes
	gcCycles, cycles          float64 // simulated
	events                    [stats.NumEvents]float64
	borrows, remaps, osRemaps float64
}

func readCounters(rt *wearmem.Runtime) counters {
	g := rt.VM.GCStats()
	c := counters{
		collections:    float64(g.Collections),
		full:           float64(g.FullCollections),
		linesReclaimed: float64(g.LinesReclaimed),
		evacuated:      float64(g.BytesEvacuated),
		gcCycles:       float64(g.TotalGCCycles),
		cycles:         float64(rt.Clock.Now()),
		borrows:        float64(rt.Kernel.Borrows()),
		remaps:         float64(rt.Kernel.PolicyRemaps()),
		osRemaps:       float64(rt.VM.OSRemaps),
	}
	for e := range c.events {
		c.events[e] = float64(rt.Clock.Count(stats.Event(e)))
	}
	return c
}

// kvCounters sums what the completed serving epochs moved.
type kvCounters struct {
	counters                      // deltas over each epoch
	maxPause              float64 // worst GC pause, simulated cycles
	allocStall, latCycles float64 // from the latency reports

	deviceWritten bool    // the workload writes through to a device
	failedLines   float64 // device lines failed while serving
	recovery      []recoveryCounts
}

type recoveryCounts struct {
	rediscovered, scrubbed, scrubFailures, usableFrames, imageMB float64
}

// add sums the counters an epoch moved from a to b.
func (c *kvCounters) add(a, b counters, maxPause float64, lr *wearmem.LatencyReport) {
	c.collections += b.collections - a.collections
	c.full += b.full - a.full
	c.linesReclaimed += b.linesReclaimed - a.linesReclaimed
	c.evacuated += b.evacuated - a.evacuated
	c.gcCycles += b.gcCycles - a.gcCycles
	c.cycles += b.cycles - a.cycles
	for e := range c.events {
		c.events[e] += b.events[e] - a.events[e]
	}
	c.borrows += b.borrows - a.borrows
	c.remaps += b.remaps - a.remaps
	c.osRemaps += b.osRemaps - a.osRemaps
	c.maxPause = max(c.maxPause, maxPause)
	c.allocStall += float64(lr.AllocStallCycles)
	c.latCycles += float64(lr.TotalCycles)
}

// checkHeap runs the production heap verifier over the idle runtime and
// reads every stored KV value back.
func checkHeap(rt *wearmem.Runtime) error {
	v := rt.VM
	t := wearmem.VerifyTarget{Model: v.Model(), Roots: v.Roots(), Kernel: rt.Kernel, Policy: rt.Kernel}
	if rt.Device != nil {
		t.Device = rt.Device
	}
	if ix := v.Immix(); ix != nil {
		t.Views = ix.BlockViews()
	}
	pending := v.PendingRecovery()
	rep := wearmem.VerifyHeap(t, wearmem.VerifyOptions{SkipKernelTable: pending, SkipFailedLine: pending})
	if err := rep.Err(); err != nil {
		return err
	}
	return readBack(v)
}

// The kv entry layout (internal/kv): next-entry ref, value ref, key word.
// Values are byte arrays of 64..512 bytes (the kv defaults both workloads
// use) whose every 64th byte holds the low byte of their key.
const (
	entryNext   = 8
	entryVal    = 16
	entryKey    = 24
	valueMin    = 64
	valueMax    = 512
	valueStride = 64
)

// readBack walks every rooted kv table after a serving epoch: each entry
// must sit in its key's bucket and its value must read back the bytes the
// PUT stored. The scenario itself checks nothing per operation, so this
// is where lost or misplaced data would show.
func readBack(v *wearmem.VM) error {
	m := v.Model()
	word := func(a heap.Addr, off int) uint64 { return m.S.Load64(a + heap.Addr(off)) }
	tables := 0
	var err error
	v.Roots().Each(func(slot *heap.Addr) {
		b := *slot
		if err != nil || b == 0 || m.TypeOf(b).Name != "kv.buckets" {
			return
		}
		tables++
		n := m.ArrayLen(b)
		for i := 0; i < n && err == nil; i++ {
			chain := 0
			for e := heap.Addr(word(b, heap.ArrayHeaderSize+i*heap.WordSize)); e != 0 && err == nil; e = heap.Addr(word(e, entryNext)) {
				err = checkEntry(m, e, i, n)
				if chain++; chain > n {
					err = fmt.Errorf("kv read-back: bucket %d chain longer than the table", i)
				}
			}
		}
	})
	if err == nil && tables == 0 {
		err = errors.New("kv read-back: no kv table is rooted after serving")
	}
	return err
}

func checkEntry(m *heap.Model, e heap.Addr, bucket, n int) error {
	if ty := m.TypeOf(e); ty == nil || ty.Name != "kv.entry" {
		return fmt.Errorf("kv read-back: bucket %d links a non-entry object at %#x", bucket, e)
	}
	key := m.S.Load64(e + entryKey)
	if key%uint64(n) != uint64(bucket) {
		return fmt.Errorf("kv read-back: key %d filed in bucket %d of %d", key, bucket, n)
	}
	val := heap.Addr(m.S.Load64(e + entryVal))
	if val == 0 {
		return fmt.Errorf("kv read-back: key %d has no value", key)
	}
	if ty := m.TypeOf(val); ty == nil || ty.Name != "kv.val" {
		return fmt.Errorf("kv read-back: key %d value at %#x is not a kv value", key, val)
	}
	l := m.ArrayLen(val)
	if l < valueMin || l > valueMax {
		return fmt.Errorf("kv read-back: key %d value of %d bytes", key, l)
	}
	for j := 0; j < l; j += valueStride {
		if got := m.S.Load8(val + heap.ArrayHeaderSize + heap.Addr(j)); got != byte(key) {
			return fmt.Errorf("kv read-back: key %d value byte %d reads %#x, stored %#x", key, j, got, byte(key))
		}
	}
	return nil
}
