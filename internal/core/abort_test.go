package core

import (
	"sync/atomic"
	"testing"
	"time"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
)

// mustPanicWithin runs f and returns what it panicked with, failing the
// test if f returns normally or is still running after the timeout (a
// worker waiting forever on a peer that panicked).
func mustPanicWithin(t *testing.T, timeout time.Duration, f func()) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		if p == nil {
			t.Fatal("returned normally, want a panic")
		}
		return p
	case <-time.After(timeout):
		t.Fatalf("still running after %v: the workers hung", timeout)
		return nil
	}
}

// A panic in one threaded trace worker (here from its probe hook) must
// reach the collector as a panic; its peers must not wait forever for it
// to go idle.
func TestThreadedTraceWorkerPanicPropagates(t *testing.T) {
	type boom struct{}
	var marks atomic.Int32
	e := newEnv(t, envOpts{traceWorkers: 2, threaded: true, probe: func(p probe.Point, _ uint64) {
		if p == probe.GCTraceMark && marks.Add(1) == 1 {
			panic(boom{})
		}
	}})
	heads := make([]heap.Addr, 4)
	for i := range heads {
		e.roots.Add(&heads[i])
		heads[i] = e.buildList(200)
	}
	p := mustPanicWithin(t, 20*time.Second, func() { e.plan.Collect(true, e.roots) })
	if _, ok := p.(boom); !ok {
		t.Fatalf("collection panicked with %v, want the worker's panic", p)
	}
}

// The same for concurrent markers: one marker panics on a reference
// outside the heap, and finalizing the cycle must re-panic, not hang.
func TestConcurrentMarkerPanicPropagates(t *testing.T) {
	e := newEnv(t, envOpts{threaded: true})
	ix := e.plan.(*Immix)
	heads := make([]heap.Addr, 4)
	for i := range heads {
		e.roots.Add(&heads[i])
		heads[i] = e.buildList(200)
	}
	e.setRef(heads[0], nodeAlt, heap.Addr(1<<40))
	if !ix.BeginConcurrentMark(e.roots, 2) {
		t.Fatal("concurrent mark did not start")
	}
	mustPanicWithin(t, 20*time.Second, func() { ix.FinalizeConcurrentMark(e.roots) })
	if !ix.MarkDone() {
		t.Fatal("a panicked marking cycle must report done so the next allocation point finalizes it")
	}
}
