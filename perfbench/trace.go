package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// tracer collects, for the traced phase only, the spans the benchmark
// records around its calls into each layer, a CPU profile and a mutex
// profile of the benchmark's own process, and the Go runtime's allocation
// and collection counters. A nil tracer records nothing.
type tracer struct {
	began time.Time
	cpu   bytes.Buffer
	spans []span
	pass  int // id of the open pass span
	// Go runtime counters at the start of the phase.
	allocBytes, gcCycles uint64
}

// span is one timed call, in seconds from the traced phase's start. A
// pass span is the parent of the layer calls made inside it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	Dur    float64 `json:"dur"`
}

// mutexFraction samples every contention event: the run measures how long
// work waits on the layers' locks, and the traced phase pays for it.
const mutexFraction = 1

func (t *tracer) begin() error {
	t.began = time.Now()
	t.allocBytes, t.gcCycles = goCounters()
	runtime.SetMutexProfileFraction(mutexFraction)
	return pprof.StartCPUProfile(&t.cpu)
}

// profiles is what the traced phase's profiles fold to.
type profiles struct {
	wall       time.Duration
	cpuSamples int
	cpu        map[string]int     // layer -> samples charged to it
	lockLeaf   int                // samples whose leaf frame is a lock
	wait       map[string]float64 // layer holding a lock -> seconds waited for it
	allocMB    float64            // Go heap allocated during the phase
	gcCycles   float64            // Go collections during the phase
}

func (t *tracer) stop() (*profiles, error) {
	pprof.StopCPUProfile()
	wall := time.Since(t.began)
	var mu bytes.Buffer
	err := pprof.Lookup("mutex").WriteTo(&mu, 0)
	runtime.SetMutexProfileFraction(0)
	if err != nil {
		return nil, err
	}
	alloc, gcs := goCounters()
	p := &profiles{
		wall:     wall,
		cpu:      map[string]int{},
		wait:     map[string]float64{},
		allocMB:  float64(alloc-t.allocBytes) / (1 << 20),
		gcCycles: float64(gcs - t.gcCycles),
	}
	cpu, err := parseProfile(t.cpu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range cpu.samples {
		p.cpuSamples += int(s.values[0])
		p.cpu[foldLayer(s.stack)] += int(s.values[0])
		if isLockFrame(s.stack[0]) {
			p.lockLeaf += int(s.values[0])
		}
	}
	// The mutex profile is cumulative for the process, and only the
	// traced phase enabled it.
	mp, err := parseProfile(mu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("mutex profile: %w", err)
	}
	for _, s := range mp.samples {
		if len(s.values) == 2 && len(s.stack) > 0 {
			p.wait[foldLayer(s.stack)] += float64(s.values[1]) / 1e9 // delay in nanoseconds
		}
	}
	return p, nil
}

func goCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = s[1].Value.Uint64()
	}
	return allocBytes, gcCycles
}

func (t *tracer) openPass(at time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: "pass", Start: at.Sub(t.began).Seconds()})
	t.pass = len(t.spans)
}

func (t *tracer) closePass(d time.Duration) {
	if t == nil || t.pass == 0 {
		return
	}
	t.spans[t.pass-1].Dur = d.Seconds()
	t.pass = 0
}

func (t *tracer) addSpan(name string, at time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.pass, Name: name,
		Start: at.Sub(t.began).Seconds(), Dur: d.Seconds()})
}

// spanSeconds sums the durations of the spans with the given name.
func (t *tracer) spanSeconds(name string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.Dur
		}
	}
	return total
}

// layers are the wearmem/internal modules CPU samples and lock waits are
// charged to. The test-infrastructure modules (chaos, probe, checks) are
// skipped over, so their samples count against the layer that called them.
var layers = []string{"pcm", "cluster", "failmap", "kernel", "heap", "core", "vm",
	"sched", "workload", "kv", "stats", "harness", "verify"}

const modulePrefix = "wearmem/internal/"

// foldLayer charges a stack (leaf first) to the innermost wearmem layer on
// it, so standard-library and lock frames count against the layer that
// called them. A stack without one is Go's background collector when it
// runs a GC worker, Go's scheduler when it runs on a scheduling stack (a
// goroutine parking, yielding or being woken: the system stack there has
// no frame of the goroutine that asked), and "other" otherwise.
func foldLayer(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		for _, l := range layers {
			if l == mod {
				return mod
			}
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "go_gc"
		case "runtime.schedule", "runtime.mcall", "runtime.park_m", "runtime.goschedImpl",
			"runtime.findRunnable", "runtime.wakep", "runtime.mstart":
			return "go_sched"
		}
	}
	return "other"
}

// isLockFrame reports whether a leaf frame is a sync or runtime lock or
// futex frame.
func isLockFrame(fn string) bool {
	if strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "internal/sync.") {
		return true
	}
	for _, p := range []string{"runtime.lock", "runtime.unlock", "runtime.futex",
		"runtime.semacquire", "runtime.semrelease", "runtime.procyield", "runtime.osyield"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// selfTest folds synthetic stacks whose layers are known; the traced run
// refuses to report attribution the folding would get wrong.
func selfTest() error {
	cases := []struct {
		stack []string
		want  string
		lock  bool
	}{
		{[]string{"internal/sync.(*Mutex).lockSlow", "sync.(*Mutex).Lock",
			"wearmem/internal/pcm.(*Device).Write", "wearmem/internal/kernel.(*Kernel).WriteLine",
			"wearmem/internal/vm.(*VM).writeback"}, "pcm", true},
		{[]string{"runtime.memmove", "wearmem/internal/core.(*Immix).evacuate",
			"wearmem/internal/chaos.(*Injector).hook", "wearmem/internal/vm.(*VM).Collect"}, "core", false},
		{[]string{"wearmem/internal/probe.Hook.Fire", "wearmem/internal/kv.(*scenario).put.func1",
			"wearmem/internal/workload.(*Profile).runThreaded"}, "kv", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go_gc", false},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.mstart"}, "go_sched", true},
		{[]string{"runtime.lock2", "runtime.lock", "runtime.goschedImpl", "runtime.gosched_m", "runtime.mcall"}, "go_sched", true},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.main"}, "other", false},
		{[]string{"wearmem/internal/harness.Tab2.func1", "main.(*paperQuick).pass"}, "harness", false},
	}
	for _, c := range cases {
		if got := foldLayer(c.stack); got != c.want {
			return fmt.Errorf("trace self-test: stack %v folds to %q, want %q", c.stack, got, c.want)
		}
		if got := isLockFrame(c.stack[0]); got != c.lock {
			return fmt.Errorf("trace self-test: leaf %q lock = %v, want %v", c.stack[0], got, c.lock)
		}
	}
	return nil
}

// harnessIDs are the paper experiments, in harness.All order.
var harnessIDs = []string{"fig3", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9a",
	"fig9b", "fig10", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6"}

// layerSpans are the benchmark-side spans around the public calls the KV
// workloads make, with bench.check around the benchmark's own checks.
var layerSpans = []string{"wearmem.open", "wearmem.run", "pcm.snapshot", "pcm.encode",
	"pcm.decode", "wearmem.reopen", "bench.check"}

// waitLayers are the layers whose locks the mutex profile reports.
var waitLayers = []string{"pcm", "kernel", "vm", "core", "kv"}

// perLayer fills the traced run's metrics. Times are shares: of the
// traced phase's wall time for spans and lock waits, of its CPU samples
// for attribution. A layer a workload bypasses reads 0.
func perLayer(base, traced *recorder, p *profiles, m map[string]metric) {
	pct := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return 100 * part / whole
	}
	wall := p.wall.Seconds()
	tr := traced.tr

	m["trace.base_suite_s"] = metric{median(base.units), "s"}
	m["trace.suite_s"] = metric{median(traced.units), "s"}
	m["trace.base_ops_per_s"] = metric{opsPerSecond(base), "ops/s"}
	m["trace.ops_per_s"] = metric{opsPerSecond(traced), "ops/s"}
	overhead := 0.0
	if t := opsPerSecond(traced); t > 0 {
		overhead = 100 * (opsPerSecond(base)/t - 1)
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}

	for _, id := range harnessIDs {
		m["harness."+id+"_pct"] = metric{pct(tr.spanSeconds("harness."+id), wall), "%"}
	}
	for _, name := range layerSpans {
		m[name+"_pct"] = metric{pct(tr.spanSeconds(name), wall), "%"}
	}

	samples := float64(p.cpuSamples)
	for _, l := range append(append([]string{}, layers...), "go_gc", "go_sched", "other") {
		m["cpu."+l+"_pct"] = metric{pct(float64(p.cpu[l]), samples), "%"}
	}
	m["cpu.lock_pct"] = metric{pct(float64(p.lockLeaf), samples), "%"}
	m["cpu.samples"] = metric{samples, "count"}
	for _, l := range waitLayers {
		m["wait."+l+"_pct"] = metric{pct(p.wait[l], wall), "%"}
	}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["go.alloc_mb"] = metric{p.allocMB / wall, "MB/s"}
	m["go.gc_cycles"] = metric{p.gcCycles / wall, "1/s"}

	counterMetrics(traced, m)
}

// counterMetrics digests the KV counters of the traced phase; on
// paper-quick, which builds its runtimes inside the harness, they read 0
// except err_ratio.
func counterMetrics(rec *recorder, m map[string]metric) {
	c := &rec.kv
	div := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	ops := float64(rec.latOps) // operations of completed epochs
	mops := ops / 1e6
	ev := func(e string) float64 { return c.events[eventIndex(e)] }

	m["core.gcs"] = metric{div(c.collections, mops), "1/Mop"}
	m["core.full_gc_ratio"] = metric{div(c.full, c.collections), "ratio"}
	m["core.lines_reclaimed_per_gc"] = metric{div(c.linesReclaimed, c.collections), "lines"}
	m["core.evacuated_mb"] = metric{div(c.evacuated/(1<<20), mops), "MB/Mop"}
	m["core.line_skips_per_op"] = metric{div(ev("alloc.lineskip"), ops), "count/op"}
	m["core.block_fetches_per_op"] = metric{div(ev("alloc.blockfetch"), ops), "count/op"}
	m["core.overflow_searches_per_op"] = metric{div(ev("alloc.overflowsearch"), ops), "count/op"}
	m["core.gc_share"] = metric{100 * div(c.gcCycles, c.cycles), "%"}
	m["core.max_pause_mcycles"] = metric{c.maxPause / 1e6, "Mcycles"}
	m["kv.alloc_stall_share"] = metric{100 * div(c.allocStall, c.latCycles), "%"}
	m["pcm.buffer_stalls"] = metric{div(ev("hw.failbuf.stall"), mops), "1/Mop"}
	m["pcm.stall_ratio"] = metric{div(ev("hw.failbuf.stall"), ev("hw.pcmwrite")), "ratio"}
	m["pcm.writes_per_op"] = metric{div(ev("hw.pcmwrite"), ops), "count/op"}
	m["pcm.redirect_miss_ratio"] = metric{div(ev("hw.redirect.miss"), ev("hw.redirect.hit")+ev("hw.redirect.miss")), "ratio"}
	m["pcm.failed_lines"] = metric{div(c.failedLines, float64(rec.epochs+failedEpochs(rec))), "lines"}
	m["kernel.interrupts"] = metric{div(ev("os.interrupt"), mops), "1/Mop"}
	m["kernel.policy_remaps"] = metric{div(c.remaps, mops), "1/Mop"}
	m["kernel.borrows"] = metric{div(c.borrows, mops), "1/Mop"}
	m["vm.os_remaps"] = metric{div(c.osRemaps, mops), "1/Mop"}
	m["vm.upcalls"] = metric{div(ev("os.upcall"), mops), "1/Mop"}

	var redisc, scrub, scrubFail, usable, image []float64
	for _, r := range c.recovery {
		redisc = append(redisc, r.rediscovered)
		scrub = append(scrub, r.scrubbed)
		scrubFail = append(scrubFail, r.scrubFailures)
		usable = append(usable, r.usableFrames)
		image = append(image, r.imageMB)
	}
	m["kernel.recover.rediscovered"] = metric{median(redisc), "lines"}
	m["kernel.recover.scrubbed"] = metric{median(scrub), "lines"}
	m["kernel.recover.scrub_failures"] = metric{median(scrubFail), "lines"}
	m["kernel.recover.usable_frames"] = metric{median(usable), "frames"}
	m["pcm.image_mb"] = metric{median(image), "MB"}

	m["kv_p50_cycles"] = metric{median(rec.p50), "cycles"}
	m["kv_p99_cycles"] = metric{median(rec.p99), "cycles"}
	m["kv_p999_cycles"] = metric{median(rec.p999), "cycles"}
	m["kv.ops"] = metric{ops, "count"}
	m["restart.count"] = metric{float64(len(rec.restartMS)), "count"}
	m["recover_mcycles"] = metric{median(rec.recoverMcycles), "Mcycles"}
	m["failed_lines_per_mop"] = metric{div(c.failedLines, float64(rec.ops)/1e6), "lines/Mop"}
	m["err_ratio"] = metric{errRatio(rec), "ratio"}
}

func failedEpochs(rec *recorder) int {
	n := 0
	for _, k := range rec.failures {
		n += k
	}
	return n
}

// writeTrace writes the traced phase's spans and folded profiles.
func writeTrace(path, name string, seed int64, host string, t *tracer, p *profiles) error {
	doc := struct {
		Workload   string             `json:"workload"`
		Seed       int64              `json:"seed"`
		Host       string             `json:"host"`
		WallS      float64            `json:"wall_s"`
		CPUSamples int                `json:"cpu_samples"`
		CPU        map[string]int     `json:"cpu_by_layer"`
		LockLeaf   int                `json:"cpu_lock_leaf"`
		WaitS      map[string]float64 `json:"wait_s_by_layer"`
		Spans      []span             `json:"spans"`
	}{name, seed, host, p.wall.Seconds(), p.cpuSamples, p.cpu, p.lockLeaf, p.wait, t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
