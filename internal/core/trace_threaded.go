package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// Threaded trace: the mark/evacuate phase on real worker goroutines.
//
// Where traceParallel simulates parallel lanes inside one goroutine, this
// path spawns N workers that race each other for the object graph. The
// synchronization story:
//
//   - Object claims go through the header word with CAS. An unmarked object
//     is claimed either by restamping its epoch (mark in place) or by
//     setting the transient FlagClaimBusy bit (evacuation); losers of the
//     CAS reload and either observe the new epoch, follow the published
//     forwarding header, or spin while the busy bit is set. Every object is
//     therefore scanned by exactly one worker.
//   - Line marks OR into the block bitmaps with CAS loops
//     (block.markLinesAtomic); the lazy epoch stamp is hoisted into
//     prestampBlocks before any worker starts, because a concurrent lazy
//     clear would race the atomic ORs.
//   - Evacuation space comes from the shared gc bump context under evacMu.
//     Unlike the serial path it never acquires fresh blocks: blockIndex
//     inserts would race the lock-free containment lookups every worker
//     depends on, so evacuation simply stops when the free and recycled
//     pools run dry (the object is marked in place instead, which the
//     serial path also does when space runs out).
//   - Each worker owns a mutexed deque: the owner pushes and pops at the
//     bottom (newest, depth-first), thieves take the oldest half from the
//     top. Only owners push, which makes the termination detector sound: a
//     worker goes idle only with an empty deque, an idle worker's deque
//     cannot refill, so idle == workers implies no work exists anywhere.
//   - Workers charge private clock shards and private stat shards, merged
//     in worker order after the join; simulated time advances by the
//     critical path exactly like the deterministic lanes. Wall-clock
//     parallelism is real; simulated cycles stay comparable.
//
// The marking order — and therefore evacuation destinations, heap layout
// and order-dependent counters — is scheduling-dependent. The engine
// cross-check suite pins down what must NOT vary: the live-object census,
// failure outcomes and verifier cleanliness (see internal/harness's
// engine differential test).

// traceWorker is one concurrent trace worker: a deque of gray objects plus
// private clock and statistic shards.
type traceWorker struct {
	id      int
	clock   *stats.Clock
	scanbuf []heap.Addr

	mu    sync.Mutex
	deque []heap.Addr // owner pushes/pops the end; thieves take the front

	steals     uint64
	pinnedLeft []heap.Addr

	objectsMarked    uint64
	bytesMarked      uint64
	objectsEvacuated uint64
	bytesEvacuated   uint64
	pinnedSkips      uint64
}

func (w *traceWorker) push(a heap.Addr) {
	w.mu.Lock()
	w.deque = append(w.deque, a)
	w.mu.Unlock()
}

func (w *traceWorker) pop() (heap.Addr, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.deque)
	if n == 0 {
		return 0, false
	}
	a := w.deque[n-1]
	w.deque = w.deque[:n-1]
	return a, true
}

func (w *traceWorker) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deque)
}

// stealFrom moves the oldest half of v's deque into w's. Reports whether
// anything moved.
func (w *traceWorker) stealFrom(v *traceWorker) bool {
	v.mu.Lock()
	n := len(v.deque)
	if n == 0 {
		v.mu.Unlock()
		return false
	}
	half := (n + 1) / 2
	grab := append([]heap.Addr(nil), v.deque[:half]...)
	v.deque = append(v.deque[:0], v.deque[half:]...)
	v.mu.Unlock()
	w.mu.Lock()
	w.deque = append(w.deque, grab...)
	w.mu.Unlock()
	return true
}

// thrTrace is the shared state of one threaded collection's trace phase.
type thrTrace struct {
	ix      *Immix
	nursery bool
	workers []*traceWorker
	idle    int32
	// abort is set when a worker panics. The panicked worker never goes
	// idle and may hold a busy claim, so its peers stop waiting on it and
	// exit; the coordinator re-panics after the join.
	abort   atomic.Bool
	probeMu sync.Mutex // probe hooks are not required to be thread-safe
}

// prestampBlocks stamps every block's mark bitmap at the current epoch
// before concurrent workers touch them. Stamping eagerly is semantically
// identical to the lazy stamp (a block not yet stamped this epoch has no
// meaningful marked bits), and it removes the clear/OR race.
func (ix *Immix) prestampBlocks() {
	for _, b := range ix.blocks.all {
		b.stamp(ix.epoch)
	}
}

func (ix *Immix) traceThreaded(roots *RootSet, nursery bool, workers int) {
	ix.prestampBlocks()

	rootSlots := make([]*heap.Addr, 0, roots.Len())
	roots.Each(func(slot *heap.Addr) { rootSlots = append(rootSlots, slot) })

	// Nursery pre-partition of the modified-object buffer, single-threaded
	// before any worker runs. Old logged objects (epoch == current under
	// sticky marking) must be rescanned unconditionally — markObject would
	// early-return on their epoch — and are each scanned by exactly one
	// worker (the logged bit guarantees uniqueness in the buffer). Young
	// logged objects go through the ordinary claim protocol: the threaded
	// engine marks them live, a deliberate, documented divergence from the
	// baton engine (which scans their children without retaining the object
	// itself); both engines agree on everything reachable from roots.
	var rescan, markOnly []heap.Addr
	if nursery {
		for _, obj := range ix.modbuf {
			if ix.model.Epoch(obj) == ix.epoch {
				rescan = append(rescan, obj)
			} else {
				markOnly = append(markOnly, obj)
			}
		}
	}

	t := &thrTrace{ix: ix, nursery: nursery, workers: make([]*traceWorker, workers)}
	for i := range t.workers {
		t.workers[i] = &traceWorker{id: i, clock: stats.NewClock(ix.clock.Costs())}
	}

	var wg sync.WaitGroup
	panics := make([]any, workers)
	for i := 0; i < workers; i++ {
		w := t.workers[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[i] = p
					t.abort.Store(true)
				}
			}()
			t.run(w, rootSlots, rescan, markOnly)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}

	// The modified-object buffer is consumed by any collection.
	for _, obj := range ix.modbuf {
		if fwd, ok := ix.model.Forwarded(obj); ok {
			obj = fwd
		}
		ix.model.SetLogged(obj, false)
	}
	ix.modbuf = ix.modbuf[:0]

	// Merge worker shards in id order: counts sum, simulated time advances
	// by the critical path (the slowest worker).
	var crit, work stats.Cycles
	for _, w := range t.workers {
		ix.clock.Merge(w.clock)
		if w.clock.Now() > crit {
			crit = w.clock.Now()
		}
		work += w.clock.Now()
		ix.gcstats.TraceSteals += w.steals
		ix.gcstats.ObjectsMarked += w.objectsMarked
		ix.gcstats.BytesMarkedLive += w.bytesMarked
		ix.gcstats.ObjectsEvacuated += w.objectsEvacuated
		ix.gcstats.BytesEvacuated += w.bytesEvacuated
		ix.gcstats.PinnedSkips += w.pinnedSkips
		ix.pinnedLeft = append(ix.pinnedLeft, w.pinnedLeft...)
	}
	ix.clock.Advance(crit)
	ix.gcstats.TraceWorkCycles += work
	ix.gcstats.TraceCritCycles += crit
	ix.gcstats.ParallelTraces++
}

// run is one worker's trace: a static share of the roots and nursery
// buffers (dealt round-robin by index), then the cooperative drain.
func (t *thrTrace) run(w *traceWorker, rootSlots []*heap.Addr, rescan, markOnly []heap.Addr) {
	n := len(t.workers)
	for j := w.id; j < len(rootSlots); j += n {
		w.clock.Charge1(stats.EvRootScan)
		slot := rootSlots[j]
		if *slot != 0 {
			*slot = t.markObject(w, *slot)
		}
	}
	for j := w.id; j < len(rescan); j += n {
		t.scanObject(w, rescan[j])
	}
	for j := w.id; j < len(markOnly); j += n {
		t.markObject(w, markOnly[j])
	}
	t.drain(w)
}

// drain processes the worker's deque, stealing when empty, until every
// worker is simultaneously idle. See the invariant note atop the file for
// why idle == workers is a sound termination condition.
func (t *thrTrace) drain(w *traceWorker) {
	n := int32(len(t.workers))
	for {
		if a, ok := w.pop(); ok {
			t.scanObject(w, a)
			continue
		}
		if t.steal(w) {
			continue
		}
		atomic.AddInt32(&t.idle, 1)
		for {
			if atomic.LoadInt32(&t.idle) == n || t.abort.Load() {
				return
			}
			if t.victimHasWork(w) {
				atomic.AddInt32(&t.idle, -1)
				break
			}
			runtime.Gosched()
		}
	}
}

func (t *thrTrace) steal(w *traceWorker) bool {
	n := len(t.workers)
	for i := 1; i < n; i++ {
		v := t.workers[(w.id+i)%n]
		if w.stealFrom(v) {
			w.steals++
			return true
		}
	}
	return false
}

func (t *thrTrace) victimHasWork(w *traceWorker) bool {
	for _, v := range t.workers {
		if v != w && v.size() > 0 {
			return true
		}
	}
	return false
}

func (t *thrTrace) probe(kind probe.Point, addr uint64) {
	if t.ix.probe == nil {
		return
	}
	t.probeMu.Lock()
	defer t.probeMu.Unlock() // a panicking hook must not wedge the other workers
	t.ix.probe(kind, addr)
}

// quitIfAborted ends the calling worker goroutine once a peer has
// panicked: a spin on that peer's busy claim would never end.
func (t *thrTrace) quitIfAborted() {
	if t.abort.Load() {
		runtime.Goexit()
	}
}

// scanObject visits the claimed object's reference slots, marking children
// and rewriting slots whose referents moved. The object belongs to exactly
// one worker (claim protocol or unique rescan entry), so its header and
// slots have a single scanner.
func (t *thrTrace) scanObject(w *traceWorker, obj heap.Addr) {
	ix := t.ix
	h := ix.model.Header(obj)
	ty := ix.model.TypeFromHeader(h)
	slots := ix.model.RefSlotsOf(ty, obj, w.scanbuf[:0])
	for _, slot := range slots {
		w.clock.Charge1(stats.EvObjectScan)
		child := heap.Addr(ix.model.S.Load64(slot))
		if child == 0 {
			continue
		}
		if moved := t.markObject(w, child); moved != child {
			ix.model.S.Store64(slot, uint64(moved))
		}
	}
	w.scanbuf = slots[:0]
}

// markObject is the concurrent claim protocol. Every exit returns the
// object's current address; exactly one worker wins each object and pushes
// it gray.
func (t *thrTrace) markObject(w *traceWorker, a heap.Addr) heap.Addr {
	ix := t.ix
	for {
		h := ix.model.Header(a)
		if fwd, ok := heap.HeaderForwarded(h); ok {
			return fwd
		}
		if heap.HeaderBusy(h) {
			// Another worker is mid-evacuation; its result (a forwarding
			// header or an in-place restamp) appears shortly.
			t.quitIfAborted()
			runtime.Gosched()
			continue
		}
		if heap.HeaderEpoch(h) == ix.epoch {
			return a // already marked (or old, during a nursery pass)
		}
		b := ix.blockOf(a)
		if b == nil {
			// Large object: restamp in place; never moved.
			if !ix.los.contains(a) {
				panic(fmt.Sprintf("core: reference %#x outside managed space", a))
			}
			if ix.model.CasHeader(a, h, heap.HeaderWithEpoch(h, ix.epoch)) {
				t.noteMarked(w, a, nil, h)
				return a
			}
			continue
		}
		if b.evacuate && !heap.HeaderPinned(h) {
			if !ix.model.CasHeader(a, h, h|heap.FlagClaimBusy) {
				continue
			}
			if to, ok := t.evacuateObject(w, a, h); ok {
				return to
			}
			// No evacuation space: fall back to marking in place. The store
			// both restamps and clears the busy bit, releasing spinners.
			ix.model.StoreHeader(a, heap.HeaderWithEpoch(h, ix.epoch))
			t.noteMarked(w, a, b, h)
			return a
		}
		if b.evacuate { // pinned on an evacuation candidate
			if ix.model.CasHeader(a, h, heap.HeaderWithEpoch(h, ix.epoch)) {
				w.pinnedSkips++
				w.pinnedLeft = append(w.pinnedLeft, a)
				t.noteMarked(w, a, b, h)
				return a
			}
			continue
		}
		if ix.model.CasHeader(a, h, heap.HeaderWithEpoch(h, ix.epoch)) {
			t.noteMarked(w, a, b, h)
			return a
		}
	}
}

// noteMarked records a successful in-place claim: charges, stat shards,
// atomic line marks, and the gray push when the object has reference slots.
// h is the object's pre-claim header (the current one may be concurrently
// unreadable only for other objects; ours is stable — but the type and size
// bits never change either way).
func (t *thrTrace) noteMarked(w *traceWorker, a heap.Addr, b *block, h uint64) {
	ix := t.ix
	t.probe(probe.GCTraceMark, uint64(a))
	size := heap.SizeFromHeader(h)
	w.clock.Charge1(stats.EvObjectMark)
	w.objectsMarked++
	w.bytesMarked += uint64(size)
	if b != nil {
		b.markLinesAtomic(b.mem.Base, a, size, ix.cfg.LineSize)
	}
	ty := ix.model.TypeFromHeader(h)
	if ix.model.RefCountOf(ty, a) > 0 {
		w.push(a)
	}
}

// evacuateObject copies an object the worker holds the busy claim on. On
// success the new copy's header is published before the forwarding header
// (release ordering through the atomic stores), so a racer that observes
// the forward also observes the finished copy.
func (t *thrTrace) evacuateObject(w *traceWorker, a heap.Addr, h uint64) (heap.Addr, bool) {
	ix := t.ix
	size := heap.SizeFromHeader(h)
	to, ok := ix.gcAllocThreaded(size)
	if !ok {
		return 0, false
	}
	t.probe(probe.GCEvacuate, uint64(a))
	ix.model.S.Copy(to, a, size)
	ix.model.StoreHeader(to, heap.HeaderWithEpoch(h, ix.epoch))
	ix.model.StoreHeader(a, heap.ForwardHeader(to))
	nb := ix.blockOf(to)
	nb.markLinesAtomic(nb.mem.Base, to, size, ix.cfg.LineSize)
	w.clock.Charge(stats.EvBytesCopied, uint64(size))
	w.clock.Charge1(stats.EvObjectMark)
	w.objectsMarked++
	w.bytesMarked += uint64(size)
	w.objectsEvacuated++
	w.bytesEvacuated += uint64(size)
	ty := ix.model.TypeFromHeader(h)
	if ix.model.RefCountOf(ty, to) > 0 {
		w.push(to)
	}
	return to, true
}

// ensureEvacHeadroom tops up the free pool before a threaded trace starts.
// gcAllocThreaded cannot acquire fresh blocks once workers run (the block
// index insert would race their lock-free containment lookups), so the
// acquisition happens here, while the world is stopped and this goroutine
// is alone — restoring the serial collector's acquire-on-demand guarantee.
// One fresh block per evacuation candidate bounds the worst case: a
// candidate's live data always fits inside one block. Acquisition failures
// (pool budget exhausted) leave the shortfall to in-place marking and, for
// failed lines, the VM's OS-remap fallback.
func (ix *Immix) ensureEvacHeadroom() {
	need := 0
	for _, b := range ix.blocks.all {
		if b.evacuate {
			need++
		}
	}
	if need == 0 {
		return
	}
	ix.mu.Lock()
	for _, b := range ix.free {
		if b.freeLines > 0 {
			need--
		}
	}
	ix.mu.Unlock()
	for ; need > 0; need-- {
		b, err := ix.acquireBlock(ix.clock, false)
		if err != nil {
			return
		}
		ix.mu.Lock()
		b.inFree = true
		ix.free = append(ix.free, b)
		ix.mu.Unlock()
	}
}

// gcAllocThreaded bump-allocates evacuation space under evacMu. It never
// acquires fresh blocks — a blockIndex insert would race every worker's
// lock-free containment lookups — so evacuation degrades to in-place
// marking once the pre-trace headroom and recycled pools are exhausted.
func (ix *Immix) gcAllocThreaded(size int) (heap.Addr, bool) {
	ix.evacMu.Lock()
	defer ix.evacMu.Unlock()
	if ix.gc.fits(size) {
		return ix.gc.bump(size), true
	}
	for {
		if ix.gc.b != nil && ix.advanceHole(ix.clock, &ix.gc, size) {
			return ix.gc.bump(size), true
		}
		b := ix.popFree(true)
		if b == nil {
			b = ix.popRecycledNonCandidate()
		}
		if b == nil {
			return 0, false
		}
		ix.gc.install(b)
	}
}

// sweepThreaded is the sweep phase with the per-block bitmap recomputation
// fanned out across workers. Block sweeping is embarrassingly parallel
// (block.sweep touches only the block's own state and blocks partition by
// index); the classification into free/recycled lists, the releases and
// the LOS sweep stay serial — they mutate shared lists and the block index.
func (ix *Immix) sweepThreaded(nursery bool, workers int) int {
	for _, mc := range ix.muts {
		mc.cur.reset()
		mc.over.reset()
		mc.recycled = mc.recycled[:0]
	}
	ix.gc.reset()
	ix.recycled = ix.recycled[:0]
	ix.free = ix.free[:0]

	blocks := ix.blocks.all
	type sweepShard struct {
		clock *stats.Clock
		freed int
	}
	shards := make([]*sweepShard, workers)
	var probeMu sync.Mutex
	var wg sync.WaitGroup
	panics := make([]any, workers)
	for i := 0; i < workers; i++ {
		sh := &sweepShard{clock: stats.NewClock(ix.clock.Costs())}
		shards[i] = sh
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() { panics[id] = recover() }()
			for j := id; j < len(blocks); j += workers {
				b := blocks[j]
				if ix.probe != nil {
					func() {
						probeMu.Lock()
						defer probeMu.Unlock() // a panicking hook must not wedge the other workers
						ix.probe(probe.GCSweepBlock, uint64(b.mem.Base))
					}()
				}
				sh.clock.Charge1(stats.EvBlockSweep)
				sh.clock.Charge(stats.EvLineSweep, uint64(b.lines))
				before := b.freeLines
				avail := b.sweep(ix.epoch)
				if avail > before {
					sh.freed += (avail - before) * ix.cfg.LineSize
				}
				b.inRecycle = false
				b.inFree = false
			}
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}

	freed := 0
	var crit stats.Cycles
	for _, sh := range shards {
		freed += sh.freed
		ix.clock.Merge(sh.clock)
		if sh.clock.Now() > crit {
			crit = sh.clock.Now()
		}
	}
	ix.clock.Advance(crit)

	var releases []*block
	for _, b := range blocks {
		avail := b.freeLines
		switch {
		case !b.usable():
			releases = append(releases, b)
		case avail == 0:
			// Fully occupied: off the lists until something dies.
		case avail == b.lines-b.failedLines:
			b.inFree = true
			ix.free = append(ix.free, b)
		default:
			b.inRecycle = true
			ix.recycled = append(ix.recycled, b)
		}
	}
	sortBlocks(ix.recycled)
	sortBlocks(ix.free)
	for len(ix.free) > ix.cfg.HeadroomBlocks {
		b := ix.free[len(ix.free)-1]
		ix.free = ix.free[:len(ix.free)-1]
		b.inFree = false
		releases = append(releases, b)
	}
	for _, b := range releases {
		ix.blocks.remove(b.mem.Base)
		ix.mem.ReleaseBlock(b.mem)
	}
	ix.los.sweep(ix.epoch, !nursery)
	return freed
}
