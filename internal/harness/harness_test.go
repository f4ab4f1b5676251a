package harness

import (
	"strings"
	"testing"

	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// miniSuite generates a scaled-down but fully representative suite.
func miniSuite(t *testing.T, perCWE int) []*juliet.Case {
	t.Helper()
	var suite []*juliet.Case
	for _, cwe := range juliet.AllCWEs() {
		cases, err := juliet.Generate(cwe, perCWE)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cwe, err)
		}
		suite = append(suite, cases...)
	}
	return suite
}

func TestRunCaseOutcomes(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocBytes(8)
	f.Store(b, 8, f.Const(1), prog.Char())
	f.RetVoid()
	p := pb.MustBuild()

	out, err := RunCase(p, nil, sanitizers.CECSan)
	if err != nil || out != OutcomeDetected {
		t.Fatalf("bad case: out=%v err=%v", out, err)
	}
	out, err = RunCase(p, nil, sanitizers.Native)
	if err != nil || out != OutcomeClean {
		t.Fatalf("native run: out=%v err=%v", out, err)
	}
}

// TestMiniTable2 evaluates a scaled-down Table II and checks the paper's
// qualitative findings hold mechanically.
func TestMiniTable2(t *testing.T) {
	suite := miniSuite(t, 90)
	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
		sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
	}
	eval, err := EvaluateJuliet(suite, tools, 0)
	if err != nil {
		t.Fatalf("EvaluateJuliet: %v", err)
	}
	t.Logf("\n%s", FormatTable2(eval))

	byName := map[sanitizers.Name]*ToolResult{}
	for _, tr := range eval.Tools {
		byName[tr.Name] = tr
	}

	// Finding 4: CECSan detects 100% everywhere with zero FPs.
	cec := byName[sanitizers.CECSan]
	for cwe, s := range cec.PerCWE {
		if s.Rate() != 100 {
			t.Errorf("CECSan %v rate = %.2f%%, want 100%%", cwe, s.Rate())
		}
	}
	if cec.TotalFalsePositives() != 0 {
		t.Errorf("CECSan FPs = %d, want 0", cec.TotalFalsePositives())
	}
	if cec.Cases != len(suite) {
		t.Errorf("CECSan evaluated %d cases, want all %d", cec.Cases, len(suite))
	}

	// Finding 1: ASan and HWASan miss bugs on the overflow CWEs.
	for _, cwe := range []juliet.CWE{juliet.CWE121, juliet.CWE122} {
		if r := byName[sanitizers.ASan].PerCWE[cwe].Rate(); r >= 100 {
			t.Errorf("ASan %v rate = %.2f%%, want < 100%%", cwe, r)
		}
		if r := byName[sanitizers.HWASan].PerCWE[cwe].Rate(); r >= 100 {
			t.Errorf("HWASan %v rate = %.2f%%, want < 100%%", cwe, r)
		}
	}

	// HWASan's CWE761 row is exactly 0%.
	if r := byName[sanitizers.HWASan].PerCWE[juliet.CWE761].Rate(); r != 0 {
		t.Errorf("HWASan CWE761 rate = %.2f%%, want 0%%", r)
	}

	// Everyone catches every double free (Table II: 100% across CWE415).
	for _, tr := range eval.Tools {
		if s := tr.PerCWE[juliet.CWE415]; s.Total > 0 && s.Rate() != 100 {
			t.Errorf("%s CWE415 rate = %.2f%%, want 100%%", tr.Name, s.Rate())
		}
	}

	// Finding 3: PACMem and CryptSan miss ONLY sub-object cases, so they
	// sit strictly between ASan and CECSan on CWE121/122 and at 100% on
	// the rest.
	for _, name := range []sanitizers.Name{sanitizers.PACMem, sanitizers.CryptSan} {
		tr := byName[name]
		for _, cwe := range []juliet.CWE{juliet.CWE121, juliet.CWE122} {
			r := tr.PerCWE[cwe].Rate()
			if r >= 100 || r <= byName[sanitizers.ASan].PerCWE[cwe].Rate() {
				t.Errorf("%s %v rate = %.2f%%, want between ASan and 100%%", name, cwe, r)
			}
		}
		for _, cwe := range []juliet.CWE{juliet.CWE124, juliet.CWE126, juliet.CWE127, juliet.CWE416, juliet.CWE761} {
			if s := tr.PerCWE[cwe]; s.Total > 0 && s.Rate() != 100 {
				t.Errorf("%s %v rate = %.2f%%, want 100%%", name, cwe, s.Rate())
			}
		}
	}

	// Finding 2: only SoftBound has false positives.
	if byName[sanitizers.SoftBound].TotalFalsePositives() == 0 {
		t.Error("SoftBound FPs = 0, want > 0 (prototype flaws)")
	}
	for _, name := range []sanitizers.Name{sanitizers.ASan, sanitizers.HWASan, sanitizers.PACMem, sanitizers.CryptSan} {
		if fps := byName[name].TotalFalsePositives(); fps != 0 {
			t.Errorf("%s FPs = %d, want 0", name, fps)
		}
	}

	// Subset sizes: SoftBound < CryptSan < PACMem < full.
	if !(byName[sanitizers.SoftBound].Cases < byName[sanitizers.CryptSan].Cases &&
		byName[sanitizers.CryptSan].Cases < byName[sanitizers.PACMem].Cases &&
		byName[sanitizers.PACMem].Cases < len(suite)) {
		t.Errorf("subset sizes not ordered: SB=%d CS=%d PM=%d full=%d",
			byName[sanitizers.SoftBound].Cases, byName[sanitizers.CryptSan].Cases,
			byName[sanitizers.PACMem].Cases, len(suite))
	}
}

func TestFormatTable1(t *testing.T) {
	suite := miniSuite(t, 10)
	out := FormatTable1(suite)
	for _, want := range []string{"CWE121", "Stack Buffer Overflow", "CWE761", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

// TestFullSuiteRunsFromCache pins the per-tool cache lifetime: on the full
// Table II suite every tool's distinct programs fit its own cache, so after
// the prefill no run-path request misses or overflows. A cache shared by all
// six tools fills during ASan's prefill and sends later requests to inline
// instrumentation.
func TestFullSuiteRunsFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II suite; skipped under -short")
	}
	suite, err := juliet.Suite()
	if err != nil {
		t.Fatalf("Suite: %v", err)
	}
	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
		sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
	}
	eval, err := EvaluateJuliet(suite, tools, 0)
	if err != nil {
		t.Fatalf("EvaluateJuliet: %v", err)
	}
	for _, tr := range eval.Tools {
		if s := tr.Engine; s.CacheMisses != 0 || s.CacheOverflows != 0 {
			t.Errorf("%s: %d run-path cache misses and %d overflows (hits %d, prefills %d), want none",
				tr.Name, s.CacheMisses, s.CacheOverflows, s.CacheHits, s.CachePrefills)
		}
	}
}
