package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"wearmem/internal/stats"
)

// hostInfo describes the machine and Go runtime a result came from.
func hostInfo() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOGC=%s go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(),
		runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// eventIndex resolves a clock event by its dotted name.
func eventIndex(name string) stats.Event {
	for e := stats.Event(0); int(e) < stats.NumEvents; e++ {
		if e.String() == name {
			return e
		}
	}
	panic("perfbench: unknown clock event " + name)
}
