package traffic

import "testing"

// fuzzMaxVariants caps the variant programs a fuzzed spec may ask NewStream
// to compile. Validate does not bound variants yet, and NewStream compiles
// every one up front, so a spec asking for millions is valid but would stall
// the fuzzer; larger specs are still parsed and validated.
const fuzzMaxVariants = 64

// FuzzParse feeds arbitrary source to the spec parser: Parse must return a
// validated spec or an error, never panic, and an accepted spec must
// materialize into a stream whose first requests generate without panicking.
// The committed corpus under testdata/fuzz/FuzzParse seeds it with the
// shipped example specs and the malformed specs of TestParseErrors.
func FuzzParse(f *testing.F) {
	f.Add(minimalSpec)
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			if spec != nil {
				t.Fatalf("Parse returned a spec with error %v", err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", err)
		}
		variants := 0
		for _, c := range spec.Clients {
			variants += c.Program.Variants
		}
		if variants > fuzzMaxVariants {
			return
		}
		st, err := NewStream(spec, 0)
		if err != nil {
			t.Fatalf("NewStream rejected a valid spec: %v", err)
		}
		for i := 0; i < 64 && st.Next() != nil; i++ {
		}
	})
}
