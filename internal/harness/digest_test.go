package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// quickSuiteDigest is the sha256 of "wearbench -exp all -quick -seed 42"'s
// report. Every change that keeps the paper's results must keep it.
const quickSuiteDigest = "507aed0ecb6e669dce373c9a0a8de5ddadfe7fde247128ba9694d4f285e6d045"

// TestQuickSuiteDigest renders the whole quick suite at seed 42 exactly as
// "wearbench -exp all -quick" prints it and checks it byte for byte.
func TestQuickSuiteDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	if raceEnabled {
		t.Skip("the quick suite takes minutes under the race detector")
	}
	em, err := EmitterFor("text")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Quick: true, Seed: 42, Runner: NewRunner()}
	h := sha256.New()
	for _, e := range All() {
		if err := em.Emit(h, e.Run(opt)); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickSuiteDigest {
		t.Fatalf("quick suite digest %s, want %s", got, quickSuiteDigest)
	}
}
