package engine

import (
	"reflect"
	"testing"

	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// resetPrograms are the runs TestPooledShadowReset chains: a 1.5 MiB
// allocation whose poisoning (ASan) or tagging (HWASan) spans several shadow
// chunks and crosses their boundaries; a probe that reads 1 MiB past a
// 16-byte allocation at the same heap base, where stale shadow would change
// the report; and a parfor whose workers tag or poison their own stacks and
// heap chunks concurrently.
func resetPrograms(t *testing.T) map[string]*prog.Program {
	t.Helper()
	big := prog.NewProgram()
	f := big.Function("main", 0)
	p := f.MallocBytes(3 << 19)
	f.Store(p, 0, f.Const(1), prog.Int64T())
	f.Free(p)
	f.Ret(f.Const(0))

	probe := prog.NewProgram()
	f = probe.Function("main", 0)
	p = f.MallocBytes(16)
	f.Ret(f.Load(f.OffsetPtr(p, 1<<20+8), 0, prog.Int64T()))

	par := prog.NewProgram()
	body := par.Function("body", 1)
	arr := body.Alloca(prog.ArrayOf(prog.Int64T(), 8))
	i := body.Arg(0)
	body.Store(body.ElemPtr(arr, prog.Int64T(), body.Bin(prog.BinAnd, i, body.Const(7))), 0, i, prog.Int64T())
	q := body.MallocBytes(64)
	body.Store(q, 0, i, prog.Int64T())
	body.Free(q)
	body.RetVoid()
	f = par.Function("main", 0)
	f.ParFor("body", f.Const(0), f.Const(64), 4)
	f.Ret(f.Const(0))

	out := map[string]*prog.Program{}
	for name, pb := range map[string]*prog.ProgramBuilder{"big": big, "probe": probe, "parfor": par} {
		built, err := pb.Build()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = built
	}
	return out
}

// TestPooledShadowReset pins the range-bounded shadow reset: a pooled ASan
// or HWASan runtime clears only the shadow its last run wrote, and the next
// run on it — Result, report and OverheadBytes — must match a freshly
// constructed runtime's, after a run that filled across chunk boundaries
// and after a parallel region.
func TestPooledShadowReset(t *testing.T) {
	progs := resetPrograms(t)
	sequence := []string{"big", "probe", "parfor", "parfor", "probe", "big", "big"}
	for _, tool := range []sanitizers.Name{sanitizers.ASan, sanitizers.HWASan} {
		pooled, err := New(tool, Options{Workers: 1})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		fresh, err := New(tool, Options{FreshRuntime: true})
		if err != nil {
			t.Fatalf("engine.New(%s, fresh): %v", tool, err)
		}
		run := func(e *Engine, p *prog.Program) (*interp.Result, int64, bool) {
			m, err := e.NewMachine(p)
			if err != nil {
				t.Fatalf("%s: NewMachine: %v", tool, err)
			}
			res := m.Run()
			over := m.Runtime().OverheadBytes()
			recycled := m.recycled
			m.Release()
			return res, over, recycled
		}
		for k := 1; k < len(sequence); k++ {
			prev, next := progs[sequence[k-1]], progs[sequence[k]]
			want, wantOver, _ := run(fresh, next)
			// sync.Pool may drop the bundle prev released (the race
			// detector makes it do so at random): run the pair again until
			// next lands on it.
			var recycled bool
			for try := 0; try < 50 && !recycled; try++ {
				run(pooled, prev)
				var got *interp.Result
				var gotOver int64
				got, gotOver, recycled = run(pooled, next)
				if !recycled {
					continue
				}
				if !reflect.DeepEqual(got, want) || gotOver != wantOver {
					t.Errorf("%s: %s after %s on a pooled runtime diverged from a fresh one:\n got %+v (overhead %d)\nwant %+v (overhead %d)",
						tool, sequence[k], sequence[k-1], got, gotOver, want, wantOver)
				}
			}
			if !recycled {
				t.Fatalf("%s: %s never ran on a pooled bundle", tool, sequence[k])
			}
		}
	}
}

// TestOutputSurvivesRelease pins Release's contract now that the
// interpreter machine is rebuilt in place: a released machine's Output and
// Result stay its own after the next machine reuses its resources.
func TestOutputSurvivesRelease(t *testing.T) {
	printer := func(v int64) *prog.Program {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		f.Libc("print_int", f.Const(v))
		f.Ret(f.Const(v))
		return pb.MustBuild()
	}
	eng, err := New(sanitizers.CECSan, Options{Workers: 1})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	first, err := eng.NewMachine(printer(11))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	res := first.Run()
	first.Release()
	for i := 0; i < 3; i++ {
		m, err := eng.NewMachine(printer(22))
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		m.Run()
		m.Release()
	}
	if out := first.Output(); !reflect.DeepEqual(out, []string{"11"}) {
		t.Errorf("released machine's Output = %q, want [11]", out)
	}
	if res.Ret != 11 {
		t.Errorf("released machine's Result.Ret = %d, want 11", res.Ret)
	}
}
