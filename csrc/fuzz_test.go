package csrc

import "testing"

// FuzzCompile feeds arbitrary source to the compiler: it must return a
// program or an error, never panic. The committed corpus under
// testdata/fuzz/FuzzCompile seeds it with valid programs and past
// crashers.
func FuzzCompile(f *testing.F) {
	f.Add(`func main() { var x = 1; return x; }`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err == nil && p == nil {
			t.Fatal("Compile returned neither a program nor an error")
		}
	})
}
