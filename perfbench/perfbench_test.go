package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestFoldSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// spin burns CPU in a frame the CPU profile must attribute to it.
//
//go:noinline
func spin(d time.Duration) (n uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

var sink uint64

func TestParseCPUProfile(t *testing.T) {
	var tr tracer
	if err := tr.begin(); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = spin(300 * time.Millisecond)
	p, err := tr.stop()
	if err != nil {
		t.Fatal(err)
	}
	if p.cpuSamples == 0 || p.cpu["other"] == 0 {
		t.Fatalf("no samples folded: %+v", p)
	}
	raw := tr.cpu.Bytes()
	prof, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range prof.samples {
		if slices.Contains(s.stack, "wearmem/perfbench.spin") {
			found = true
		}
	}
	if !found {
		t.Fatal("no sample's stack names the spinning function")
	}
}

func TestParseMutexProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric names and units the code
// prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", workloadNames(), names)
	}

	e2e := map[string]metric{}
	endToEnd(newRecorder(nil), e2e)
	pl := map[string]metric{}
	perLayer(newRecorder(nil), newRecorder(&tracer{}), &profiles{wall: time.Second}, pl)
	for _, c := range []struct {
		kind string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", pl, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: code prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok {
				t.Errorf("%s: %s declared but not printed", c.kind, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", c.kind, w.Name, m.Unit, w.Unit)
			}
		}
	}
}
