package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// Concurrent marking: the threaded engine's bounded-pause collection mode.
//
// A full collection becomes three phases:
//
//	BeginConcurrentMark     short STW: epoch bump, block pre-stamp, full
//	                        root scan into a shared gray queue, then 1..N
//	                        marker goroutines spawn and the world restarts
//	(window)                markers race the mutators, claiming objects
//	                        through the same CAS header protocol as the
//	                        threaded trace — but never evacuating;
//	                        mutators shade overwritten refs per-context
//	                        (ShadeOn) and allocate black
//	FinalizeConcurrentMark  short STW: join the markers, merge their
//	                        shards (counts only — the marking ran on spare
//	                        cores, so simulated time does not advance),
//	                        serial final mark (roots, per-context shades
//	                        and modbufs, leftover gray), sweep
//
// The SATB argument is the baton engine's (see incremental.go), with the
// threaded twists:
//
//   - reference-slot stores and marker loads go through atomic word access
//     while the window is open (the VM switches store discipline);
//   - per-context SATB buffers are drained only at the finalize handshake,
//     bounded by the ModbufCap (ShadeOn blackens in place at the cap);
//   - block acquisition is gated (core.acquireBlock fails with
//     ErrMarkInProgress) so the dense block index never grows under the
//     markers' lock-free lookups and every block stays pre-stamped; the
//     allocation slow path finalizes the cycle and retries;
//   - markers never fire probe hooks (hooks are not thread-safe against
//     mutator-side probes); injection points for this mode are the STW
//     boundaries, which is also where the chaos layer defers threaded
//     injections anyway.
//
// Marker work is merged as counts without advancing simulated time: the
// model is marking on otherwise-idle cores, which is exactly the
// throughput story the pausecurve experiment quantifies (the work remains
// visible in TraceWorkCycles/TraceCritCycles and the activity breakdown).

// markWorker is one concurrent marker goroutine's private state.
type markWorker struct {
	id      int
	clock   *stats.Clock
	scanbuf []heap.Addr

	objectsMarked uint64
	bytesMarked   uint64
}

// MarkDone reports whether the concurrent markers have drained the gray
// queue and exited; the next allocation point should stop the world and
// call FinalizeConcurrentMark.
func (ix *Immix) MarkDone() bool { return ix.markDone.Load() }

// BeginConcurrentMark opens a concurrent marking window. Must be called
// with the world stopped; the caller restarts the world afterwards, with
// the marker goroutines already running. Returns false when the plan is
// degraded, already marking, or out of epochs.
func (ix *Immix) BeginConcurrentMark(roots *RootSet, workers int) bool {
	if ix.degraded != nil || ix.marking.Load() || workers <= 0 {
		return false
	}
	start := ix.clock.Now()
	// Per-pause bookkeeping cost, not the STW EvGCCycle lump — see
	// BeginIncrementalMark.
	ix.clock.Charge1(stats.EvMarkIncrement)
	ix.collecting = true
	if ix.probe != nil {
		ix.probe(probe.GCBegin, 0)
	}
	if !ix.bumpEpoch() {
		ix.collecting = false
		return false
	}
	ix.gcstats.Collections++
	ix.gcstats.FullCollections++
	ix.gcstats.ConcurrentCycles++

	// Consume the pre-cycle modified-object log (see BeginIncrementalMark).
	ix.drainContextModbufs()
	for _, obj := range ix.modbuf {
		if fwd, ok := ix.model.Forwarded(obj); ok {
			obj = fwd
		}
		ix.model.SetLogged(obj, false)
	}
	ix.modbuf = ix.modbuf[:0]
	ix.rescan = ix.rescan[:0]
	ix.gray = ix.gray[:0]
	ix.concGray = ix.concGray[:0]

	// Pre-stamp every block: markers and black-allocating mutators OR line
	// bits atomically and must never race a lazy epoch clear.
	ix.prestampBlocks()

	// Full STW root scan; the serial gray result seeds the shared queue.
	roots.Each(func(slot *heap.Addr) {
		ix.clock.Charge1(stats.EvRootScan)
		if *slot != 0 {
			ix.markIncremental(*slot)
		}
	})
	ix.concGray = append(ix.concGray, ix.gray...)
	ix.gray = ix.gray[:0]

	ix.concIdle = 0
	ix.concWorkers = workers
	ix.markAbort.Store(false)
	ix.markDone.Store(false)
	ix.markers = ix.markers[:0]
	ix.markerPanics = make([]any, workers)
	for i := 0; i < workers; i++ {
		w := &markWorker{id: i, clock: stats.NewClock(ix.clock.Costs())}
		ix.markers = append(ix.markers, w)
		ix.markWG.Add(1)
		go func(i int) {
			defer ix.markWG.Done()
			defer func() {
				if p := recover(); p != nil {
					// The panicked marker never goes idle: release its
					// peers and have the next allocation point finalize,
					// which re-panics.
					ix.markerPanics[i] = p
					ix.markAbort.Store(true)
					ix.markDone.Store(true)
				}
			}()
			ix.markerLoop(w)
		}(i)
	}
	ix.marking.Store(true)
	ix.collecting = false
	p := ix.clock.Now() - start
	ix.gcstats.recordPause(p)
	ix.gcstats.PauseFinalHist.Record(p)
	ix.gcstats.TraceCycles += p
	if ix.probe != nil {
		ix.probe(probe.GCMarkIncrement, 1)
	}
	return true
}

// FinalizeConcurrentMark closes the window: joins the markers, merges
// their shards, runs the serial STW final mark (roots, per-context shade
// and modified-object buffers, leftover shared gray) and the
// non-evacuating sweep. Must be called with the world stopped.
func (ix *Immix) FinalizeConcurrentMark(roots *RootSet) {
	if !ix.marking.Load() {
		return
	}
	ix.markWG.Wait()
	for _, p := range ix.markerPanics {
		if p != nil {
			panic(p)
		}
	}
	// Counts only, no Advance: the markers ran on spare cores while
	// simulated time advanced with the mutators. The work stays visible in
	// the activity breakdown and the work/crit split.
	var crit, work stats.Cycles
	for _, w := range ix.markers {
		ix.clock.Merge(w.clock)
		if w.clock.Now() > crit {
			crit = w.clock.Now()
		}
		work += w.clock.Now()
		ix.gcstats.ObjectsMarked += w.objectsMarked
		ix.gcstats.BytesMarkedLive += w.bytesMarked
	}
	ix.gcstats.TraceWorkCycles += work
	ix.gcstats.TraceCritCycles += crit
	ix.markers = ix.markers[:0]
	ix.markerPanics = nil
	ix.marking.Store(false)

	start := ix.clock.Now()
	ix.clock.Charge1(stats.EvMarkIncrement)
	ix.collecting = true
	// Leftover shared gray: shade-marks pushed after the markers went idle.
	ix.gray = append(ix.gray, ix.concGray...)
	ix.concGray = ix.concGray[:0]
	roots.Each(func(slot *heap.Addr) {
		ix.clock.Charge1(stats.EvRootScan)
		if *slot != 0 {
			ix.markIncremental(*slot)
		}
	})
	for _, mc := range ix.muts {
		for _, old := range mc.satb {
			ix.markIncremental(old)
		}
		mc.satb = mc.satb[:0]
	}
	ix.drainContextModbufs()
	ix.drainLoggedIncremental()
	for len(ix.gray) > 0 {
		obj := ix.gray[len(ix.gray)-1]
		ix.gray = ix.gray[:len(ix.gray)-1]
		ix.scanIncremental(obj)
	}
	traceEnd := ix.clock.Now()
	ix.gcstats.TraceCycles += traceEnd - start
	if ix.cfg.StrictSATB {
		ix.checkSATB(roots)
	}
	freed := ix.sweepPreservingEvac()
	ix.gcstats.SweepCycles += ix.clock.Now() - traceEnd
	ix.gcstats.BytesReclaimed += uint64(freed)
	ix.gcstats.LinesReclaimed += uint64(freed / ix.cfg.LineSize)
	p := ix.clock.Now() - start
	ix.gcstats.recordPause(p)
	ix.gcstats.PauseFinalHist.Record(p)
	ix.collecting = false
	if ix.probe != nil {
		ix.probe(probe.GCMarkIncrement, 0)
		ix.probe(probe.GCEnd, 0)
	}
}

// markerLoop is one marker goroutine: pop from the shared gray queue, scan
// and mark with the CAS claim protocol, terminate when every marker is
// simultaneously idle (owners never push to other queues, so all-idle with
// an empty queue is stable against everything except mutator shade-marks,
// which the finalize phase re-drains).
func (ix *Immix) markerLoop(w *markWorker) {
	n := int32(ix.concWorkers)
	for {
		if a, ok := ix.concPop(); ok {
			ix.concScan(w, a)
			continue
		}
		atomic.AddInt32(&ix.concIdle, 1)
		for {
			if atomic.LoadInt32(&ix.concIdle) == n {
				ix.markDone.Store(true)
				return
			}
			if ix.markAbort.Load() {
				return
			}
			if ix.concSize() > 0 {
				atomic.AddInt32(&ix.concIdle, -1)
				break
			}
			runtime.Gosched()
		}
	}
}

func (ix *Immix) concPop() (heap.Addr, bool) {
	ix.concMu.Lock()
	defer ix.concMu.Unlock()
	n := len(ix.concGray)
	if n == 0 {
		return 0, false
	}
	a := ix.concGray[n-1]
	ix.concGray = ix.concGray[:n-1]
	return a, true
}

func (ix *Immix) concPush(a heap.Addr) {
	ix.concMu.Lock()
	ix.concGray = append(ix.concGray, a)
	ix.concMu.Unlock()
}

func (ix *Immix) concSize() int {
	ix.concMu.Lock()
	defer ix.concMu.Unlock()
	return len(ix.concGray)
}

// concScan visits a claimed object's reference slots with atomic loads
// (mutators store refs atomically while the window is open) and marks the
// children. Slots are never rewritten — nothing moves.
func (ix *Immix) concScan(w *markWorker, obj heap.Addr) {
	h := ix.model.Header(obj)
	ty := ix.model.TypeFromHeader(h)
	slots := ix.model.RefSlotsOf(ty, obj, w.scanbuf[:0])
	for _, slot := range slots {
		w.clock.Charge1(stats.EvObjectScan)
		if child := heap.Addr(ix.model.S.AtomicLoad64(slot)); child != 0 {
			ix.concMark(w, child)
		}
	}
	w.scanbuf = slots[:0]
}

// concMark claims the object through the CAS header protocol (the threaded
// trace's, minus evacuation and minus the busy state — nothing evacuates
// during a concurrent window, so no header is ever busy).
func (ix *Immix) concMark(w *markWorker, a heap.Addr) {
	for {
		h := ix.model.Header(a)
		if fwd, ok := heap.HeaderForwarded(h); ok {
			a = fwd
			continue
		}
		if heap.HeaderEpoch(h) == ix.epoch {
			return
		}
		b := ix.blockOf(a)
		if b == nil && !ix.los.contains(a) {
			panic(fmt.Sprintf("core: reference %#x outside managed space", a))
		}
		if !ix.model.CasHeader(a, h, heap.HeaderWithEpoch(h, ix.epoch)) {
			continue
		}
		size := heap.SizeFromHeader(h)
		w.clock.Charge1(stats.EvObjectMark)
		w.objectsMarked++
		w.bytesMarked += uint64(size)
		if b != nil {
			b.markLinesAtomic(b.mem.Base, a, size, ix.cfg.LineSize)
		}
		if ix.model.RefCountOf(ix.model.TypeFromHeader(h), a) > 0 {
			ix.concPush(a)
		}
		return
	}
}

// ShadeOn is the SATB deletion barrier on the threaded engine: the
// overwritten referent lands in the mutator context's private shade
// buffer, drained at the finalize handshake. At the ModbufCap the referent
// is blackened in place through the CAS claim protocol instead — a probe-
// free, allocation-free operation safe on the mutator's stack.
func (ix *Immix) ShadeOn(mc *MutatorContext, old heap.Addr) {
	if old == 0 {
		return
	}
	h := ix.model.Header(old)
	if fwd, ok := heap.HeaderForwarded(h); ok {
		old = fwd
		h = ix.model.Header(old)
	}
	if heap.HeaderEpoch(h) == ix.epoch {
		return // already black this cycle
	}
	if len(mc.satb) >= ix.cfg.ModbufCap {
		ix.shadeMarkConc(mc, old)
		return
	}
	mc.satb = append(mc.satb, old)
}

// shadeMarkConc blackens old on the mutator's own stack when its shade
// buffer is full: CAS-claim the header, mark the lines atomically, push
// the object onto the shared gray queue. Stats that markers keep in shards
// are updated under the concurrent-mark lock here.
func (ix *Immix) shadeMarkConc(mc *MutatorContext, a heap.Addr) {
	for {
		h := ix.model.Header(a)
		if fwd, ok := heap.HeaderForwarded(h); ok {
			a = fwd
			continue
		}
		if heap.HeaderEpoch(h) == ix.epoch {
			return
		}
		if !ix.model.CasHeader(a, h, heap.HeaderWithEpoch(h, ix.epoch)) {
			continue
		}
		size := heap.SizeFromHeader(h)
		mc.clock.Charge1(stats.EvObjectMark)
		if b := ix.blockOf(a); b != nil {
			b.markLinesAtomic(b.mem.Base, a, size, ix.cfg.LineSize)
		}
		ix.concMu.Lock()
		ix.gcstats.ObjectsMarked++
		ix.gcstats.BytesMarkedLive += uint64(size)
		ix.gcstats.ForcedModbufDrains++
		if ix.model.RefCountOf(ix.model.TypeFromHeader(h), a) > 0 {
			ix.concGray = append(ix.concGray, a)
		}
		ix.concMu.Unlock()
		return
	}
}
