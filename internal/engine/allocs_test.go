//go:build !race

package engine

import (
	"testing"

	"cecsan/internal/sanitizers"
)

// tableIITools are Table II's six columns.
var tableIITools = []sanitizers.Name{
	sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
	sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
}

// TestWarmRunAllocations pins the allocation-free run path: once a program
// is cached and the pool holds an execution bundle, Engine.Run allocates
// only its Result and, for a detected bug, the sanitizer's report. It runs
// one bad and one good case per CWE under every Table II tool. (Not under
// -race: the race detector makes sync.Pool drop items at random.)
func TestWarmRunAllocations(t *testing.T) {
	const maxAllocs = 4
	suite := sampleSuite(t, 1)
	for _, tool := range tableIITools {
		eng, err := New(tool, Options{Workers: 1})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		for _, cs := range suite {
			for _, v := range []struct {
				which string
				run   func()
			}{
				{"bad", func() { eng.Run(cs.Bad, cs.BadInputs...) }},
				{"good", func() { eng.Run(cs.Good, cs.GoodInputs...) }},
			} {
				v.run() // instrument and fill the pool
				if n := testing.AllocsPerRun(20, v.run); n > maxAllocs {
					t.Errorf("%s %s %s: %.1f allocations per warm run, want <= %d", tool, cs.ID, v.which, n, maxAllocs)
				}
			}
		}
	}
}
