// Package harness implements the paper's "automation framework" (§IV):
// it drives every generated test case through every sanitizer — including
// the external-input cases previous evaluations excluded, whose payloads it
// serves like the paper's dummy server — classifies detections, misses,
// crashes and false positives, and renders Tables I and II. The
// performance half (Tables IV and V) lives in perf.go.
package harness

import (
	"fmt"
	"strings"

	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/internal/juliet"
	"cecsan/internal/obs"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// Outcome classifies one run of one program version.
type Outcome int

// Outcomes.
const (
	OutcomeClean Outcome = iota + 1
	OutcomeDetected
	OutcomeCrash
	OutcomeError
)

// RunCase executes one program with its input feed under a fresh instance
// of the named sanitizer. One-shot convenience over RunCaseOn; evaluation
// loops build an engine per tool and call RunCaseOn to benefit from the
// instrumentation cache.
func RunCase(p *prog.Program, inputs [][]byte, name sanitizers.Name) (Outcome, error) {
	eng, err := engine.New(name, engine.Options{})
	if err != nil {
		return OutcomeError, err
	}
	return RunCaseOn(eng, p, inputs)
}

// RunCaseOn executes one program through an engine (cached instrumentation,
// pooled resources, fresh sanitizer runtime) and classifies the outcome.
func RunCaseOn(eng *engine.Engine, p *prog.Program, inputs [][]byte) (Outcome, error) {
	res, err := eng.Run(p, inputs...)
	if err != nil {
		return OutcomeError, err
	}
	if o := Classify(res); o != OutcomeError {
		return o, nil
	}
	return OutcomeError, res.Err
}

// Classify maps a raw machine result to an Outcome: sanitizer report,
// machine-level crash, execution error, or clean completion. Shared by the
// Juliet evaluation and the differential fuzzer.
func Classify(res *interp.Result) Outcome {
	switch {
	case res.Violation != nil:
		return OutcomeDetected
	case res.Fault != nil:
		return OutcomeCrash
	case res.Err != nil:
		return OutcomeError
	default:
		return OutcomeClean
	}
}

// CWEStats aggregates one tool's results on one CWE.
type CWEStats struct {
	Total          int
	Detected       int // sanitizer report on the bad version
	Crashed        int // machine fault on the bad version (observable crash)
	FalsePositives int // report or crash on the good version
}

// Rate returns the detection rate in percent, counting crashes as
// observable detections (Juliet methodology: any abnormal termination of
// the bad version counts).
func (s CWEStats) Rate() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Detected+s.Crashed) / float64(s.Total)
}

// ToolResult is one Table II column.
type ToolResult struct {
	Name   sanitizers.Name
	Cases  int // size of the tool's evaluated subset
	PerCWE map[juliet.CWE]CWEStats
	// Engine is the tool's pipeline counters: cache hit rate, cases/sec,
	// instrument vs execute time split.
	Engine engine.Stats
}

// TotalFalsePositives sums FPs across CWEs.
func (t *ToolResult) TotalFalsePositives() int {
	n := 0
	for _, s := range t.PerCWE {
		n += s.FalsePositives
	}
	return n
}

// JulietEvaluation is the material of Table II.
type JulietEvaluation struct {
	Tools []*ToolResult
}

// subsetFor returns the case filter reproducing each tool's published
// evaluation subset (§IV.B): PACMem and CryptSan excluded external-input
// cases; SoftBound/CETS only compiles a fraction of the suite.
func subsetFor(name sanitizers.Name) func(*juliet.Case) bool {
	switch name {
	case sanitizers.PACMem:
		return juliet.SubsetPACMem
	case sanitizers.CryptSan:
		return juliet.SubsetCryptSan
	case sanitizers.SoftBound:
		return juliet.SubsetSoftBound
	default:
		return func(*juliet.Case) bool { return true }
	}
}

// Progress, when set, receives per-tool completion updates while
// EvaluateJuliet runs, every ProgressEvery cases and once per tool at the
// end.
var Progress func(tool sanitizers.Name, done, total int)

// ProgressEvery is the Progress callback stride.
var ProgressEvery = 200

// Obs, when set, is attached to every engine the harness builds (same
// package-level-hook convention as Progress). Observability only reads
// execution state, so evaluation results are identical with or without it.
var Obs *obs.Observer

// EvaluateJuliet runs the suite under every listed tool, in parallel across
// cases. workers <= 0 selects GOMAXPROCS. Each tool gets its own
// instrumentation cache: tools run one after another and no two share a
// profile, so a tool's instrumented programs are dead once its run loop ends.
// Each tool's case families are pre-instrumented before its run loop, and a
// tool's distinct programs (18,272 at most in the full suite) fit its cache,
// so the run path finds every program cached.
func EvaluateJuliet(suite []*juliet.Case, tools []sanitizers.Name, workers int) (*JulietEvaluation, error) {
	eval := &JulietEvaluation{}
	for _, tool := range tools {
		tr, err := evaluateTool(suite, tool, workers)
		if err != nil {
			return nil, err
		}
		eval.Tools = append(eval.Tools, tr)
	}
	return eval, nil
}

// evaluateTool runs one tool over its subset of the suite through one
// engine: the tool's cases share the engine's instrumentation cache and
// resource pool, and fan out across the worker scheduler. The bad and good
// variants of every case are pre-instrumented (single-flight, across the
// worker pool) before the run loop starts.
func evaluateTool(suite []*juliet.Case, tool sanitizers.Name, workers int) (*ToolResult, error) {
	include := subsetFor(tool)
	var cases []*juliet.Case
	for _, cs := range suite {
		if include(cs) {
			cases = append(cases, cs)
		}
	}
	tr := &ToolResult{Name: tool, Cases: len(cases), PerCWE: make(map[juliet.CWE]CWEStats)}

	eopts := engine.Options{Workers: workers, ProgressEvery: ProgressEvery, Obs: Obs}
	if Progress != nil {
		eopts.Progress = func(done, total int) { Progress(tool, done, total) }
	}
	eng, err := engine.New(tool, eopts)
	if err != nil {
		return nil, err
	}

	progs := make([]*prog.Program, 0, 2*len(cases))
	for _, cs := range cases {
		progs = append(progs, cs.Bad, cs.Good)
	}
	eng.Preinstrument(progs)

	type caseOut struct {
		cwe        juliet.CWE
		badOutcome Outcome
		fp         bool
	}
	outs := make([]caseOut, len(cases))
	err = eng.ForEach(len(cases), func(i int) error {
		cs := cases[i]
		bad, err := RunCaseOn(eng, cs.Bad, cs.BadInputs)
		if err != nil {
			return fmt.Errorf("%s bad: %w", cs.ID, err)
		}
		good, err := RunCaseOn(eng, cs.Good, cs.GoodInputs)
		if err != nil {
			return fmt.Errorf("%s good: %w", cs.ID, err)
		}
		outs[i] = caseOut{
			cwe:        cs.CWE,
			badOutcome: bad,
			fp:         good == OutcomeDetected || good == OutcomeCrash,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, o := range outs {
		s := tr.PerCWE[o.cwe]
		s.Total++
		switch o.badOutcome {
		case OutcomeDetected:
			s.Detected++
		case OutcomeCrash:
			s.Crashed++
		}
		if o.fp {
			s.FalsePositives++
		}
		tr.PerCWE[o.cwe] = s
	}
	tr.Engine = eng.Stats()
	return tr, nil
}

// FormatTable1 renders Table I (suite composition).
func FormatTable1(suite []*juliet.Case) string {
	counts := map[juliet.CWE]int{}
	for _, cs := range suite {
		counts[cs.CWE]++
	}
	var b strings.Builder
	b.WriteString("Table I: Description of the generated Juliet-style suite\n")
	fmt.Fprintf(&b, "%-10s %-24s %s\n", "CWE Name", "Vulnerability Type", "Number of Samples")
	total := 0
	for _, cwe := range juliet.AllCWEs() {
		fmt.Fprintf(&b, "%-10s %-24s %d\n", cwe, cwe.Description(), counts[cwe])
		total += counts[cwe]
	}
	fmt.Fprintf(&b, "%-10s %-24s %d\n", "Total", "-", total)
	return b.String()
}

// FormatTable2 renders Table II (per-CWE detection rates per tool).
func FormatTable2(eval *JulietEvaluation) string {
	var b strings.Builder
	b.WriteString("Table II: Comparison of Memory Violation Detection\n")
	b.WriteString(fmt.Sprintf("%-8s", "Name"))
	for _, tr := range eval.Tools {
		b.WriteString(fmt.Sprintf(" %16s", fmt.Sprintf("%s(%d)", tr.Name, tr.Cases)))
	}
	b.WriteString("\n")
	for _, cwe := range juliet.AllCWEs() {
		b.WriteString(fmt.Sprintf("%-8s", cwe))
		for _, tr := range eval.Tools {
			s := tr.PerCWE[cwe]
			if s.Total == 0 {
				b.WriteString(fmt.Sprintf(" %16s", "-"))
				continue
			}
			b.WriteString(fmt.Sprintf(" %15.2f%%", s.Rate()))
		}
		b.WriteString("\n")
	}
	b.WriteString(fmt.Sprintf("%-8s", "FPs"))
	for _, tr := range eval.Tools {
		b.WriteString(fmt.Sprintf(" %16d", tr.TotalFalsePositives()))
	}
	b.WriteString("\n")
	return b.String()
}
