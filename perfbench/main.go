// Command perfbench is the repository's benchmark. It drives one of four
// workloads through the public entry points the cmd/ tools use, checks the
// outputs against references, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload juliet|spec|fuzz|serve \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 the same untraced measurement runs first, then
// a traced pass replays the workload's per-run sequence through the public
// calls of each layer with spans around every call; the result carries the
// per-layer metrics. A failed output check sets correct to false in the
// result line and makes the exit code 1. Both modes print a human-readable
// ledger of every metric before the result line and write it, with the
// span summary, to .perfbench/<workload>-<mode>.json. README.md explains
// the workloads and the layer -> end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the one a runner reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared is the metric list of BENCHMARK.json, which names what the
// result line carries: end_to_end untraced, per_layer traced.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// ledger accumulates every metric a run measures, in insertion order, plus
// the output checks and anything worth writing beside the metrics.
type ledger struct {
	names     []string
	metrics   map[string]metric
	checks    []string // failed output checks
	attempted int64
	failed    int64
	notes     map[string]any
}

func newLedger() *ledger {
	return &ledger{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (l *ledger) set(name string, v float64, unit string) {
	if _, ok := l.metrics[name]; !ok {
		l.names = append(l.names, name)
	}
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check unless ok holds.
func (l *ledger) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	for _, c := range l.checks {
		if c == msg {
			return
		}
	}
	l.checks = append(l.checks, msg)
}

// workload runs one workload: the untraced measurement always, the traced
// pass when traced is set.
type workload func(l *ledger, seed int64, seconds float64, traced bool) error

var workloads = map[string]workload{
	"juliet": runJuliet,
	"spec":   runSpec,
	"fuzz":   runFuzz,
	"serve":  runServe,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "juliet | spec | fuzz | serve")
	seed := flag.Int64("seed", -1, "workload seed (fuzz and serve; -1 = the workload's default)")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = add the traced pass and report per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want, mode := decl.EndToEnd, "untraced"
	if *trace == 1 {
		want, mode = decl.PerLayer, "traced"
	}

	l := newLedger()
	if err := wl(l, *seed, *seconds, *trace == 1); err != nil {
		return err
	}
	res := result{Correct: len(l.checks) == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := l.metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", *name, d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("%s is measured in %s, BENCHMARK.json declares %s", d.Name, m.Unit, d.Unit)
		}
		res.Metrics[d.Name] = m
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}

	printLedger(*name, mode, l)
	if err := writeLedger(*name, mode, *seed, l); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(l.checks))
	}
	return nil
}

// printLedger writes every metric and failed check, one per line.
func printLedger(name, mode string, l *ledger) {
	fmt.Printf("perfbench %s (%s)\n", name, mode)
	for _, n := range l.names {
		m := l.metrics[n]
		fmt.Printf("  %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range l.checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
}

// writeLedger stores the full ledger beside the results, so a later change
// can name the layer that moved.
func writeLedger(name, mode string, seed int64, l *ledger) error {
	type entry struct {
		Name string `json:"name"`
		metric
	}
	doc := struct {
		Workload  string         `json:"workload"`
		Mode      string         `json:"mode"`
		Seed      int64          `json:"seed"`
		Time      string         `json:"time"`
		Metrics   []entry        `json:"metrics"`
		Checks    []string       `json:"failed_checks"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Notes     map[string]any `json:"notes,omitempty"`
	}{Workload: name, Mode: mode, Seed: seed, Time: time.Now().UTC().Format(time.RFC3339),
		Checks: l.checks, Attempted: l.attempted, Failed: l.failed, Notes: l.notes}
	if doc.Checks == nil {
		doc.Checks = []string{}
	}
	for _, n := range l.names {
		doc.Metrics = append(doc.Metrics, entry{Name: n, metric: l.metrics[n]})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	const dir = ".perfbench"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+"-"+mode+".json"), append(data, '\n'), 0o644)
}

// median returns the median of xs (0 for none).
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

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// loop runs unit repeatedly for about budget: it starts another unit only
// while the mean unit time so far still fits, and always runs min units.
func loop(budget time.Duration, min int, unit func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= min {
			spent := time.Since(start)
			if spent+spent/time.Duration(i) > budget {
				return nil
			}
		}
		if err := unit(i); err != nil {
			return err
		}
	}
}

// setupWarmup is how many set-up calls are discarded first: the first
// calls in a fresh process pay for page faults on a new heap.
const setupWarmup = 5

// setupTimer times a workload's set-up a few times before each unit of the
// measurement loop, so the samples spread over the whole run rather than
// its first milliseconds. Each group of samples starts from a collected
// heap, so no sample pays for a collection of the previous unit's garbage.
type setupTimer struct {
	setup   func() error
	perUnit int
	samples []float64
}

func newSetupTimer(perUnit int, setup func() error) (*setupTimer, error) {
	for i := 0; i < setupWarmup; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	return &setupTimer{setup: setup, perUnit: perUnit}, nil
}

func (t *setupTimer) sample() error {
	runtime.GC()
	for i := 0; i < t.perUnit; i++ {
		t0 := time.Now()
		if err := t.setup(); err != nil {
			return err
		}
		t.samples = append(t.samples, time.Since(t0).Seconds())
	}
	return nil
}

// seconds converts a --seconds value to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
