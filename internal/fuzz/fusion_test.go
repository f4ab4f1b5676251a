package fuzz

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cecsan/csrc"
	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// superinstructions are the fused execution opcodes the corpus must
// contain, so the equivalence property below covers every one of them.
var superinstructions = []prog.ExecOp{
	prog.ExecCheckLoad, prog.ExecCheckStore, prog.ExecGEPIdxCheckLoad,
	prog.ExecConstAdd, prog.ExecConstAddBr, prog.ExecAddBr,
	prog.ExecEqBr, prog.ExecNeBr, prog.ExecSLtBr, prog.ExecSLeBr, prog.ExecSGtBr, prog.ExecSGeBr,
}

// shapeSources hold the loop and branch shapes that resolve to the
// compare-and-branch and constant-add superinstructions, which the
// generator does not emit: while loops (== 0 exit tests), each comparison
// feeding an if, x + 1 updates and a descending counted loop. The second
// reads one element before the buffer in its last iteration.
var shapeSources = []string{shapeSource("k - 2"), shapeSource("k - 3")}

func shapeSource(index string) string {
	return `func main() {
    var a = malloc(64);
    var n = 0;
    while (n < 8) { a[n] = n + 1; n = n + 1; }
    var s = 0;
    var i = 0;
    while (i != 8) { s = s + a[i]; i = i + 1; }
    if (s == 36) { s = s + 1; }
    if (s <= 100) { s = s + 2; }
    if (s > 3) { s = s + 3; }
    if (s != 7) { s = s + 4; }
    for (k = 10; k > 0; k -= 2) { s = s + a[` + index + `]; }
    free(a);
    return s;
}`
}

// TestFusedMatchesUnfused is the superinstruction equivalence property:
// across a seeded generated corpus and a spread of sanitizer models, an
// engine resolving with superinstructions (the default) and one with
// DisableFusion must be observationally identical — same violation, fault,
// error and return value, and the same complete interp.Stats (a
// superinstruction advances the instruction counter for each instruction
// it runs, executes the same checks, and charges the same allocator
// traffic, so even ChecksExecuted, DegradedAllocs and the temporal counters
// match exactly). Every superinstruction must occur in the fused programs.
func TestFusedMatchesUnfused(t *testing.T) {
	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.CECSanHardened, sanitizers.ASan,
		sanitizers.HWASan, sanitizers.SoftBound,
	}
	const seed, corpus = 0xF05E, 80

	mk := func(tool sanitizers.Name, disable bool) *engine.Engine {
		eng, err := engine.New(tool, engine.Options{
			Seed: seed, RuntimeSeed: seed, DisableFusion: disable,
		})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		return eng
	}

	for _, tool := range tools {
		t.Run(string(tool), func(t *testing.T) {
			fused, unfused := mk(tool, false), mk(tool, true)
			compiled := 0
			occurs := map[prog.ExecOp]bool{}
			// The generated corpus, then the loop and branch shapes it
			// does not generate, clean and with an out-of-bounds read.
			sources := make([]Case, 0, corpus+len(shapeSources))
			for i := 0; i < corpus; i++ {
				sources = append(sources, *Generate(caseSeed(seed, i)))
			}
			for _, src := range shapeSources {
				sources = append(sources, Case{Source: src})
			}
			for i, c := range sources {
				p, err := csrc.Compile(c.Source)
				if err != nil {
					continue // generator emitted a shape this tool set can't compile; fine
				}
				compiled++
				for _, f := range fused.Instrument(p).Funcs {
					for _, in := range f.Code {
						occurs[in.Exec] = true
					}
				}
				for _, f := range unfused.Instrument(p).Funcs {
					for _, in := range f.Code {
						if slices.Contains(superinstructions, in.Exec) {
							t.Fatalf("case %d: DisableFusion program holds superinstruction %d", i, in.Exec)
						}
					}
				}
				rf, err := fused.Run(p, c.Inputs...)
				if err != nil {
					t.Fatalf("case %d fused run: %v", i, err)
				}
				ru, err := unfused.Run(p, c.Inputs...)
				if err != nil {
					t.Fatalf("case %d unfused run: %v", i, err)
				}
				if rf.Stats != ru.Stats {
					t.Fatalf("case %d: stats diverge under fusion\nfused:   %+v\nunfused: %+v", i, rf.Stats, ru.Stats)
				}
				if rf.Ret != ru.Ret {
					t.Fatalf("case %d: return value %d (fused) vs %d (unfused)", i, rf.Ret, ru.Ret)
				}
				if got, want := render(rf), render(ru); got != want {
					t.Fatalf("case %d: outcome diverges under fusion\nfused:   %s\nunfused: %s", i, got, want)
				}
			}
			if compiled == 0 {
				t.Fatal("corpus compiled zero cases; the property was never exercised")
			}
			for _, e := range superinstructions {
				if !occurs[e] {
					t.Errorf("superinstruction %d never occurs in the corpus", e)
				}
			}
		})
	}
}

// render flattens a result's externally visible outcome — the report, crash
// or error a harness would classify — into a comparable string.
func render(res *interp.Result) string {
	var b strings.Builder
	if res.Violation != nil {
		fmt.Fprintf(&b, "violation{%s %s@%d %s}", res.Violation.Kind, res.Violation.Func, res.Violation.PC, res.Violation.Error())
	}
	if res.Fault != nil {
		fmt.Fprintf(&b, "fault{%v}", res.Fault)
	}
	if res.Err != nil {
		fmt.Fprintf(&b, "err{%v}", res.Err)
	}
	if b.Len() == 0 {
		return "clean"
	}
	return b.String()
}
