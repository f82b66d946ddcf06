// Command perfbench is wearmem's wall-clock benchmark. One invocation runs
// one workload for a fixed number of seconds from a single process, checks
// every output it produces, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics and the tracing overhead) as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload kv-holes --seed 3 --seconds 30 --trace 0
//
// Lines before the JSON, each starting with "#", restate every metric by
// name with its unit and sample count, plus the host the numbers came from.
// A failed correctness check prints "correct": false and exits 1. See
// README.md beside this file for the workloads, the layer → metric map and
// the recorded baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark drives; BENCHMARK.json says
// why each was chosen.
type workload struct {
	name string
	open func(seed int64) passRunner
}

// passRunner runs a workload's passes, over and over.
type passRunner interface {
	// setup does the set-up a pass starts with, once, and discards what it
	// built, returning how long the set-up took.
	setup() (time.Duration, error)
	// pass runs the next pass — one unit of work, or on kv-wear-restart a
	// device life of several — and records what it measured. An error is a
	// failed correctness check: it ends the run.
	pass(rec *recorder) error
}

var workloads = []workload{
	{"paper-quick", newPaperQuick},
	{"kv-holes", newKVHoles},
	{"kv-wear-restart", newKVWearRestart},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "seconds to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans and folded profiles into")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	length := time.Duration(*seconds) * time.Second
	host := hostInfo()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# host %s\n", host)

	// A run that wedges (a hung collection, say) still ends well inside
	// the 180 s a run may take, as a failed check rather than a timeout.
	watchdog := time.AfterFunc(length+runSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run still going %v after its %v measurement\n", runSlack, length)
		fmt.Println(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		os.Exit(1)
	})
	defer watchdog.Stop()

	d := w.open(*seed)
	var (
		out    result
		runErr error
	)
	if *trace == 0 {
		out, runErr = runUntraced(d, length)
	} else {
		out, runErr = runTraced(d, length, func(tr *tracer, p *profiles) {
			path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := writeTrace(path, w.name, *seed, host, tr, p); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			} else {
				fmt.Printf("# spans and folded profiles written to %s\n", path)
			}
		})
	}
	out.Correct = runErr == nil
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", runErr)
		out.Metrics = map[string]metric{}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runUntraced measures for length with nothing traced, then times the
// set-ups.
func runUntraced(d passRunner, length time.Duration) (result, error) {
	out := result{Metrics: map[string]metric{}}
	rec := newRecorder(nil)
	err := runPhase(d, length, rec)
	if err == nil {
		err = timeSetups(d, rec)
	}
	out.Attempted, out.Failed = rec.attempted, rec.failed
	if err != nil {
		return out, err
	}
	endToEnd(rec, out.Metrics)
	printSummary(rec, out.Metrics)
	fmt.Printf("# peak_rss_mb %.6g MB (not gated: see README.md)\n", peakRSSMB())
	return out, nil
}

// runTraced runs a warm-up pass, so that the first pass's cold start (an
// empty Go heap growing) does not count against the baseline alone; then
// an untraced half, the baseline the tracing overhead is measured against;
// then the traced half, which yields the layer metrics. write receives the
// traced half's spans and folded profiles.
func runTraced(d passRunner, length time.Duration, write func(*tracer, *profiles)) (out result, err error) {
	out.Metrics = map[string]metric{}
	warm, base, traced := newRecorder(nil), newRecorder(nil), newRecorder(&tracer{})
	defer func() {
		for _, r := range []*recorder{warm, base, traced} {
			out.Attempted += r.attempted
			out.Failed += r.failed
		}
	}()
	if err = runPhase(d, 0, warm); err != nil {
		return out, err
	}
	if err = runPhase(d, length/2, base); err != nil {
		return out, err
	}
	if err = selfTest(); err != nil {
		return out, err
	}
	if err = traced.tr.begin(); err != nil {
		return out, err
	}
	err = runPhase(d, length/2, traced)
	prof, perr := traced.tr.stop()
	if err == nil {
		err = perr
	}
	if err != nil {
		return out, err
	}
	perLayer(base, traced, prof, out.Metrics)
	printSummary(traced, out.Metrics)
	write(traced.tr, prof)
	return out, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSlack is how long a run may overrun its measurement before the
// watchdog ends it: one whole pass starts before the deadline.
const runSlack = 100 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRuns is how many set-ups a run times after its passes; setup_s is
// their median. They come last because a process started on a host that
// sat idle for a few seconds runs slowly at first: on the baseline host,
// paper-quick's set-ups ran 2-3x slower for the first second or so. Each
// starts on a collected Go heap whose free memory has gone back to the
// OS, rather than on whatever the one before left behind: reused memory
// must be zeroed and returned memory faulted back in, and which one a
// set-up gets otherwise varies from run to run.
const setupRuns = 15

func timeSetups(d passRunner, rec *recorder) error {
	for i := 0; i < setupRuns; i++ {
		debug.FreeOSMemory()
		t, err := d.setup()
		if err != nil {
			return err
		}
		rec.setups = append(rec.setups, t.Seconds())
	}
	return nil
}

// runPhase runs whole passes until length has elapsed; a pass that starts
// before the deadline runs to its end, and at least one pass runs.
//
// Each pass starts on a collected Go heap: the runtime the pass before
// built and dropped is garbage a long-running service would not have, and
// collecting it between passes keeps its cost out of the next pass's
// timings and its memory out of the high-water mark.
func runPhase(d passRunner, length time.Duration, rec *recorder) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < length; n++ {
		runtime.GC()
		t0 := time.Now()
		rec.tr.openPass(t0)
		err := d.pass(rec)
		rec.tr.closePass(time.Since(t0))
		if err != nil {
			return err
		}
	}
	rec.wall = time.Since(start)
	return nil
}

// recorder accumulates what one phase measured.
type recorder struct {
	tr *tracer // nil in an untraced phase

	wall   time.Duration
	setups []float64 // seconds per set-up
	// units are the seconds each complete unit of work took, one whose
	// operations all succeeded; unitOps and unitServing sum their
	// operations and the time spent serving them.
	units       []float64
	unitOps     uint64
	unitServing time.Duration
	ops         uint64 // operations completed, in any unit
	attempted   uint64
	failed      uint64
	failures    map[string]int // serving error -> epochs it ended

	// paper-quick: report cells, and the DNF cells among them.
	cells, dnf int

	// kv: per-epoch latency quantiles (simulated cycles) and the
	// operation count behind them; per-restart wall time and recovery.
	latOps         uint64
	p50, p99, p999 []float64
	restartMS      []float64
	recoverMcycles []float64
	epochs         int // complete serving epochs
	wornOut        int // device lives that ended in recovery finding the device worn out
	kv             kvCounters
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, failures: map[string]int{}}
}

// unit records a complete unit of work: a suite, a kv-holes epoch with its
// Open and checks, or a kv-wear-restart epoch with its checks and restart.
func (r *recorder) unit(d time.Duration, ops uint64, serving time.Duration) {
	r.units = append(r.units, d.Seconds())
	r.unitOps += ops
	r.unitServing += serving
}

// span times one call into a layer. In a traced phase the call is also
// kept as a span under the current pass.
func (r *recorder) span(name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.tr.addSpan(name, start, d)
	return d
}

// endToEnd fills the untraced run's metrics, every one of them nonzero on
// every workload.
func endToEnd(rec *recorder, m map[string]metric) {
	m["setup_s"] = metric{median(rec.setups), "s"}
	m["suite_s"] = metric{median(rec.units), "s"}
	m["ops_per_s"] = metric{opsPerSecond(rec), "ops/s"}
}

// opsPerSecond is the operations the complete units of work completed per
// second spent serving them.
func opsPerSecond(rec *recorder) float64 {
	if rec.unitServing <= 0 {
		return 0
	}
	return float64(rec.unitOps) / rec.unitServing.Seconds()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// printSummary restates the phase's figures by name, with units and the
// sample counts behind each median.
func printSummary(rec *recorder, m map[string]metric) {
	fmt.Printf("# %d complete units of work in %.2f s; %d set-ups; %d of %d operations failed\n",
		len(rec.units), rec.wall.Seconds(), len(rec.setups), rec.failed, rec.attempted)
	for msg, n := range rec.failures {
		fmt.Printf("# serving error in %d epochs: %s\n", n, msg)
	}
	if rec.epochs > 0 {
		fmt.Printf("# kv_p50_cycles %.0f cycles, kv_p99_cycles %.0f cycles, kv_p999_cycles %.0f cycles (medians over %d epochs, %d operations)\n",
			median(rec.p50), median(rec.p99), median(rec.p999), len(rec.p50), rec.latOps)
	}
	if rec.wornOut > 0 {
		fmt.Printf("# %d device lives ended with recovery finding the device worn out\n", rec.wornOut)
	}
	if len(rec.restartMS) > 0 {
		fmt.Printf("# restart_p50_ms %.3f ms, recover_mcycles %.3f Mcycles (medians over %d restarts)\n",
			median(rec.restartMS), median(rec.recoverMcycles), len(rec.restartMS))
	}
	if rec.ops > 0 && rec.kv.deviceWritten {
		fmt.Printf("# failed_lines_per_mop %.3f lines/Mop (%d lines over %d operations)\n",
			rec.kv.failedLines/float64(rec.ops)*1e6, int(rec.kv.failedLines), rec.ops)
	}
	fmt.Printf("# err_ratio %.6f (%d of %d)\n", errRatio(rec), failedUnits(rec), attemptedUnits(rec))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// errRatio is operations failed over operations attempted; on paper-quick
// an operation is a report cell and a DNF cell counts as failed.
func errRatio(rec *recorder) float64 {
	if attemptedUnits(rec) == 0 {
		return 0
	}
	return float64(failedUnits(rec)) / float64(attemptedUnits(rec))
}

func attemptedUnits(rec *recorder) uint64 {
	if rec.cells > 0 {
		return uint64(rec.cells)
	}
	return rec.attempted
}

func failedUnits(rec *recorder) uint64 {
	if rec.cells > 0 {
		return uint64(rec.dnf)
	}
	return rec.failed
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
