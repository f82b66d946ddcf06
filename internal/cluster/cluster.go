// Package cluster implements the failure-clustering hardware of §3.1.2.
//
// A region (one or more pages) owns a redirection map with one entry per
// line. When a line fails, the hardware swaps the failed storage with the
// line at the current boundary so that, logically, failures accumulate at
// one end of the region: the top of even regions and the bottom of odd
// regions (Fig. 1(e)), which maximizes the contiguous working span across
// region boundaries. On the first failure the map itself is installed in
// fixed metadata lines at the clustered end, surfaced to software through
// the "fake failure" protocol; the metadata lines are thereafter unavailable
// to software just like failed lines.
//
// Lookups on regions with an installed map require extra memory accesses
// (find redirected bit, read map, access redirected line), so real hardware
// caches recently used maps; MapCache models that and charges the cost
// model accordingly.
package cluster

import (
	"fmt"
	"math/bits"

	"wearmem/internal/failmap"
)

// Region is the clustering state of one region. Logical line offsets are
// what the memory controller (and thus software, after page translation)
// sees; storage offsets name the physical PCM lines inside the region.
type Region struct {
	index     int   // region number within the module; parity picks direction
	lines     int   // lines per region
	toStorage []int // logical offset -> storage offset (a permutation)
	failed    []bool
	// presented[i] is true when logical line i is unavailable to software:
	// either surfaced as failed or reserved for redirection metadata.
	presented []bool
	installed bool
	boundary  int // next logical slot to surface a failure at
	meta      int // number of metadata lines reserved once installed
}

// MetaLines returns the number of lines needed to store a redirection map
// for a region of n lines: n entries of ceil(log2(n)) bits plus one boundary
// field, rounded up to whole 64 B lines (the paper's 2-page region needs
// 889 bits = 2 lines).
func MetaLines(n int) int {
	if n <= 1 {
		return 1
	}
	fieldBits := bits.Len(uint(n - 1))
	totalBits := (n + 1) * fieldBits // n entries + boundary pointer
	lineBits := failmap.LineSize * 8
	return (totalBits + lineBits - 1) / lineBits
}

// NewRegion returns a fresh region with identity mapping and no failures.
func NewRegion(index, regionPages int) *Region {
	if regionPages <= 0 {
		panic("cluster: regionPages must be positive")
	}
	n := regionPages * failmap.LinesPerPage
	r := &Region{
		index:     index,
		lines:     n,
		toStorage: make([]int, n),
		failed:    make([]bool, n),
		presented: make([]bool, n),
		meta:      MetaLines(n),
	}
	for i := range r.toStorage {
		r.toStorage[i] = i
	}
	return r
}

// Lines returns the number of lines in the region.
func (r *Region) Lines() int { return r.lines }

// Installed reports whether the redirection map has been installed (at
// least one failure has occurred).
func (r *Region) Installed() bool { return r.installed }

// pushTop reports whether this region clusters failures at its top.
func (r *Region) pushTop() bool { return r.index%2 == 0 }

// Storage returns the storage offset backing logical line l.
func (r *Region) Storage(l int) int {
	r.check(l)
	return r.toStorage[l]
}

// logical returns the logical line backed by storage offset s: the
// inverse of Storage.
func (r *Region) logical(s int) int {
	r.check(s)
	for l, st := range r.toStorage {
		if st == s {
			return l
		}
	}
	panic("cluster: redirection map is not a permutation")
}

// Redirected reports whether logical line l is backed by a different
// storage line — the per-line redirected bit kept in the error-correction
// metadata (§3.1.2).
func (r *Region) Redirected(l int) bool {
	r.check(l)
	return r.toStorage[l] != l
}

// Unavailable reports whether logical line l is unusable by software,
// either because a failure was surfaced there or because it holds
// redirection metadata.
func (r *Region) Unavailable(l int) bool {
	r.check(l)
	return r.presented[l]
}

// UnavailableLines returns how many logical lines software cannot use.
func (r *Region) UnavailableLines() int {
	n := 0
	for _, p := range r.presented {
		if p {
			n++
		}
	}
	return n
}

func (r *Region) check(l int) {
	if l < 0 || l >= r.lines {
		panic(fmt.Sprintf("cluster: line %d out of range [0,%d)", l, r.lines))
	}
}

// install reserves the metadata lines at the clustered end and returns the
// logical lines consumed. The map occupies fixed locations — the top of
// even regions and the bottom of odd regions — so lookups need no search.
func (r *Region) install() []int {
	r.installed = true
	lines := make([]int, 0, r.meta)
	for i := 0; i < r.meta; i++ {
		var l int
		if r.pushTop() {
			l = r.boundary
		} else {
			l = r.lines - 1 - r.boundary
		}
		r.presented[l] = true
		r.boundary++
		lines = append(lines, l)
	}
	return lines
}

// Fail records that the storage behind logical line l has permanently
// failed. The hardware swaps l with the boundary slot so the failure
// surfaces at the clustered end, updates the redirection map, and advances
// the boundary. It returns the logical lines newly unavailable to software:
// on the first failure this includes the freshly installed metadata lines
// (the "fake failure" entries), followed by the surfaced failure itself.
func (r *Region) Fail(l int) []int {
	r.check(l)
	if r.presented[l] {
		panic(fmt.Sprintf("cluster: Fail on already-unavailable line %d", l))
	}
	var surfaced []int
	if !r.installed {
		surfaced = r.install()
		// Installation may land metadata on l itself (a first failure in
		// the very lines the map occupies). The map stores through error
		// correction on its own lines (§3.1.2), so the broken storage is
		// absorbed by the metadata and no boundary slot is consumed.
		if r.presented[l] {
			return surfaced
		}
	}
	if r.boundary >= r.lines {
		panic("cluster: region exhausted, no boundary slot left")
	}
	var b int
	if r.pushTop() {
		b = r.boundary
	} else {
		b = r.lines - 1 - r.boundary
	}
	r.boundary++
	// Swap the storage behind l and b so the broken storage sits at b.
	r.toStorage[l], r.toStorage[b] = r.toStorage[b], r.toStorage[l]
	r.failed[b] = true
	r.presented[b] = true
	return append(surfaced, b)
}

// checkPermutation verifies the redirection map is a bijection; exported to
// tests via the Validate method.
func (r *Region) checkPermutation() error {
	seen := make([]bool, r.lines)
	for l, s := range r.toStorage {
		if s < 0 || s >= r.lines {
			return fmt.Errorf("cluster: entry %d -> %d out of range", l, s)
		}
		if seen[s] {
			return fmt.Errorf("cluster: storage %d mapped twice", s)
		}
		seen[s] = true
	}
	return nil
}

// Validate checks the region's internal invariants: the map is a
// permutation and failures plus metadata sit contiguously at the clustered
// end.
func (r *Region) Validate() error {
	if err := r.checkPermutation(); err != nil {
		return err
	}
	for i := 0; i < r.lines; i++ {
		var l int
		if r.pushTop() {
			l = i
		} else {
			l = r.lines - 1 - i
		}
		want := i < r.boundary
		if r.presented[l] != want {
			return fmt.Errorf("cluster: line %d presented=%v, want %v (boundary %d)",
				l, r.presented[l], want, r.boundary)
		}
	}
	return nil
}
