package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

func TestMetaLines(t *testing.T) {
	// Paper (§3.1.2): 2-page region, 128 lines, 7-bit fields, 129*7 = 903
	// bits -> 2 lines of 512 bits.
	if got := MetaLines(2 * failmap.LinesPerPage); got != 2 {
		t.Fatalf("MetaLines(128) = %d, want 2", got)
	}
	// 1-page region: 64 lines, 6-bit fields, 65*6 = 390 bits -> 1 line.
	if got := MetaLines(failmap.LinesPerPage); got != 1 {
		t.Fatalf("MetaLines(64) = %d, want 1", got)
	}
	if got := MetaLines(1); got != 1 {
		t.Fatalf("MetaLines(1) = %d, want 1", got)
	}
}

func TestRegionIdentityBeforeFailure(t *testing.T) {
	r := NewRegion(0, 1)
	if r.Installed() {
		t.Fatal("fresh region should have no map installed")
	}
	for i := 0; i < r.Lines(); i++ {
		if r.Storage(i) != i || r.Redirected(i) || r.Unavailable(i) {
			t.Fatalf("line %d not identity-mapped in fresh region", i)
		}
	}
}

func TestFirstFailureInstallsMetadataEven(t *testing.T) {
	r := NewRegion(0, 1) // even region: cluster at top
	surfaced := r.Fail(30)
	// 1 metadata line + 1 surfaced failure, both at the top.
	if len(surfaced) != 2 {
		t.Fatalf("surfaced %v, want metadata + failure", surfaced)
	}
	if surfaced[0] != 0 || surfaced[1] != 1 {
		t.Fatalf("surfaced %v, want [0 1]", surfaced)
	}
	if !r.Installed() {
		t.Fatal("map should be installed after first failure")
	}
	// The broken storage (line 30's original cells) now backs logical 1.
	if r.Storage(1) != 30 {
		t.Fatalf("Storage(1) = %d, want 30", r.Storage(1))
	}
	// Logical 30 is backed by what used to be at the boundary and works.
	if r.Unavailable(30) {
		t.Fatal("logical 30 should be working after redirection")
	}
	if !r.Redirected(30) || !r.Redirected(1) {
		t.Fatal("redirected bits not set on swapped lines")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOddRegionClustersAtBottom(t *testing.T) {
	r := NewRegion(1, 1) // odd region: cluster at bottom
	surfaced := r.Fail(10)
	last := r.Lines() - 1
	if surfaced[0] != last || surfaced[1] != last-1 {
		t.Fatalf("surfaced %v, want [%d %d]", surfaced, last, last-1)
	}
	more := r.Fail(20)
	if more[0] != last-2 {
		t.Fatalf("second failure surfaced at %d, want %d", more[0], last-2)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFailuresAccumulateContiguously(t *testing.T) {
	r := NewRegion(0, 2)
	rng := rand.New(rand.NewSource(5))
	fails := 0
	for fails < 40 {
		l := rng.Intn(r.Lines())
		if r.Unavailable(l) {
			continue
		}
		r.Fail(l)
		fails++
		if err := r.Validate(); err != nil {
			t.Fatalf("after %d failures: %v", fails, err)
		}
	}
	// 2 metadata + 40 failures at the top of this even region.
	for i := 0; i < 42; i++ {
		if !r.Unavailable(i) {
			t.Fatalf("line %d should be unavailable", i)
		}
	}
	if r.Unavailable(42) {
		t.Fatal("line 42 should be available")
	}
	if r.UnavailableLines() != 42 {
		t.Fatalf("UnavailableLines = %d, want 42", r.UnavailableLines())
	}
}

func TestFailOnUnavailablePanics(t *testing.T) {
	r := NewRegion(0, 1)
	r.Fail(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Fail on surfaced line did not panic")
		}
	}()
	r.Fail(1) // line 1 is the surfaced failure
}

// Property: the redirection map stays a permutation under random failures.
func TestPermutationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := NewRegion(int(n)%2, 2)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%100; i++ {
			l := rng.Intn(r.Lines())
			if r.Unavailable(l) {
				continue
			}
			r.Fail(l)
		}
		return r.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayTranslateIdentityWithoutFailures(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	a := NewArray(8*failmap.PageSize, 2, 4, clock)
	for _, l := range []int{0, 63, 200, 511} {
		if got := a.Translate(l); got != l {
			t.Fatalf("Translate(%d) = %d, want identity", l, got)
		}
	}
	// No failures -> single access, no redirection charges.
	if clock.Count(stats.EvRedirectHit)+clock.Count(stats.EvRedirectMiss) != 0 {
		t.Fatal("redirection charged in failure-free region")
	}
}

func TestArrayFailAndTranslate(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	a := NewArray(8*failmap.PageSize, 2, 4, clock)
	// Fail a line in region 1 (lines 128..255); odd region clusters at bottom.
	surfaced := a.Fail(130)
	if len(surfaced) != 3 { // 2 metadata lines + 1 failure for a 2-page region
		t.Fatalf("surfaced %v, want 3 lines", surfaced)
	}
	for _, l := range surfaced {
		if l < 128 || l >= 256 {
			t.Fatalf("surfaced line %d outside region 1", l)
		}
		if !a.Unavailable(l) {
			t.Fatalf("surfaced line %d not unavailable", l)
		}
	}
	// Translation in the failed region now charges the cost model.
	a.Translate(130)
	if clock.Count(stats.EvRedirectMiss) != 1 {
		t.Fatalf("first lookup should miss the map cache: %v", clock.Snapshot())
	}
	a.Translate(131)
	if clock.Count(stats.EvRedirectHit) != 1 {
		t.Fatalf("second lookup should hit the map cache: %v", clock.Snapshot())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestArrayFailMap(t *testing.T) {
	a := NewArray(4*failmap.PageSize, 1, 2, nil)
	a.Fail(10) // region 0, even, clusters at top: meta line 0 + failure at 1
	m := a.FailMap(4 * failmap.PageSize)
	if !m.LineFailed(0) || !m.LineFailed(1) || m.FailedLines() != 2 {
		t.Fatalf("FailMap wrong: %d failed", m.FailedLines())
	}
}

func TestNilArrayIsPassthrough(t *testing.T) {
	var a *Array
	if a.Translate(42) != 42 {
		t.Fatal("nil array Translate should be identity")
	}
	if got := a.Fail(7); len(got) != 1 || got[0] != 7 {
		t.Fatalf("nil array Fail = %v, want [7]", got)
	}
	if a.Unavailable(7) {
		t.Fatal("nil array has no unavailable lines")
	}
	if a.RegionPages() != 0 {
		t.Fatal("nil array RegionPages should be 0")
	}
	if a.Validate() != nil {
		t.Fatal("nil array should validate")
	}
	if a.FailMap(failmap.PageSize).FailedLines() != 0 {
		t.Fatal("nil array FailMap should be empty")
	}
}

func TestMapCacheLRU(t *testing.T) {
	c := NewMapCache(2)
	if c.Touch(1) {
		t.Fatal("first touch should miss")
	}
	if !c.Touch(1) {
		t.Fatal("second touch should hit")
	}
	c.Touch(2)
	c.Touch(3) // evicts 1
	if c.Touch(1) {
		t.Fatal("evicted entry should miss")
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	zero := NewMapCache(0)
	if zero.Touch(5) || zero.Touch(5) {
		t.Fatal("zero-capacity cache must always miss")
	}
}

// Property: after any failure sequence, translating every available line
// reaches distinct storage, and no available line maps to broken storage.
func TestTranslationSoundness(t *testing.T) {
	f := func(seed int64) bool {
		a := NewArray(4*failmap.PageSize, 2, 8, nil)
		rng := rand.New(rand.NewSource(seed))
		broken := map[int]bool{}
		for i := 0; i < 30; i++ {
			l := rng.Intn(256)
			if a.Unavailable(l) {
				continue
			}
			broken[a.Translate(l)] = true
			a.Fail(l)
		}
		seen := map[int]bool{}
		for l := 0; l < 256; l++ {
			if a.Unavailable(l) {
				continue
			}
			s := a.Translate(l)
			if seen[s] || broken[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Untranslate inverts Translate on every line, through
// redirected and untouched regions alike.
func TestArrayUntranslateInvertsTranslate(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		a := NewArray(8*failmap.PageSize, 2, 4, nil)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%120; i++ {
			// Regions 0-2 take failures; region 3 stays uninstantiated.
			if l := rng.Intn(3 * a.regionLines); !a.Unavailable(l) {
				a.Fail(l)
			}
		}
		for l := 0; l < a.totalLines; l++ {
			if got := a.Untranslate(a.Translate(l)); got != l {
				t.Logf("Untranslate(Translate(%d)) = %d", l, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
