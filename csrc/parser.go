package csrc

import (
	"fmt"

	"cecsan/prog"
)

// Compile translates C-like source into a prog.Program.
//
// Language summary:
//
//	struct Name { char buf[16]; int n; ptr next; }
//	global char src[4096];
//	global int flag = 1;
//	global char msg[] = "hello";
//
//	func main() {
//	    var p = malloc(64);          // byte buffer
//	    var s = new(Name);           // typed heap object
//	    var b = local char[16];      // stack array (alloca)
//	    p[3] = 'A';                  // typed indexing
//	    s->n = p[3];                 // scalar field access
//	    memcpy(s->buf, msg, 6);      // libc call (array fields decay)
//	    if (flag == 1) { ... } else { ... }
//	    for (i = 0; i < 16; i += 1) { b[i] = i; }
//	    while (x < 10) { x = x + 1; }
//	    var q = extern ext_identity(p);     // uninstrumented call
//	    var r = externret ext_identity(p);  // returns its first argument
//	    free(p); free(s);
//	    return 0;
//	}
//
// Types: char(1), short(2), int(4), long(8), wchar(4), ptr(8), declared
// structs, and `T[n]` arrays. Variables are 64-bit values; the compiler
// tracks the pointee type of pointer-producing expressions so indexing and
// field access emit properly typed and flagged IR (including the GEP
// sub-object flags CECSan's §II.D narrowing keys on).
func Compile(src string) (*prog.Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, structs: map[string]*prog.Type{}, funcs: map[string]int{}}
	return p.compile()
}

// MustCompile is Compile that panics on error, for tests and examples.
func MustCompile(src string) *prog.Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// libcNames are callable as bare identifiers.
var libcNames = map[string]bool{
	"memcpy": true, "memmove": true, "memset": true, "memcmp": true,
	"memchr": true, "strlen": true, "strnlen": true, "strcpy": true,
	"strncpy": true, "strcat": true, "strncat": true, "strcmp": true,
	"strncmp": true, "wcslen": true, "wcsncpy": true, "wmemcpy": true,
	"wmemset": true, "fgets": true, "recv": true, "rand": true,
	"print_int": true, "print_str": true, "calloc": true, "realloc": true,
}

// binding is a named value in a function scope.
type binding struct {
	reg prog.Reg
	// pointee is the type this value points at, when known (nil for plain
	// integers). For array pointees, indexing uses the element type.
	pointee *prog.Type
}

// parser holds compilation state.
type parser struct {
	toks []token
	pos  int

	pb      *prog.ProgramBuilder
	structs map[string]*prog.Type
	funcs   map[string]int // name -> arity
	globals map[string]*prog.Type

	fb   *prog.FuncBuilder
	vars map[string]*binding
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("csrc:%d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

// accept consumes the token if it matches.
func (p *parser) accept(kind tokKind, text string) bool {
	if p.cur().kind == kind && (text == "" || p.cur().text == text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.cur().kind != kind || (text != "" && p.cur().text != text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, p.errf("expected %q, found %q", want, p.cur().text)
	}
	return p.next(), nil
}

// compile runs two passes: declaration scan (function arities), then code
// generation.
func (p *parser) compile() (*prog.Program, error) {
	// Pass 1: function names and arities (for forward calls).
	save := p.pos
	for p.cur().kind != tokEOF {
		if p.cur().kind == tokIdent && p.cur().text == "func" {
			p.pos++
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			arity := 0
			for !p.accept(tokPunct, ")") {
				if arity > 0 {
					if _, err := p.expect(tokPunct, ","); err != nil {
						return nil, err
					}
				}
				if _, err := p.expect(tokIdent, ""); err != nil {
					return nil, err
				}
				arity++
			}
			if _, dup := p.funcs[name.text]; dup {
				return nil, fmt.Errorf("csrc:%d: function %q defined twice", name.line, name.text)
			}
			p.funcs[name.text] = arity
		} else {
			p.pos++
		}
	}
	p.pos = save

	p.pb = prog.NewProgram()
	p.globals = map[string]*prog.Type{}
	for p.cur().kind != tokEOF {
		switch {
		case p.cur().kind == tokIdent && p.cur().text == "struct":
			if err := p.structDecl(); err != nil {
				return nil, err
			}
		case p.cur().kind == tokIdent && p.cur().text == "global":
			if err := p.globalDecl(); err != nil {
				return nil, err
			}
		case p.cur().kind == tokIdent && p.cur().text == "func":
			if err := p.funcDecl(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected struct, global or func, found %q", p.cur().text)
		}
	}
	return p.pb.Build()
}

// parseType parses a scalar/struct name plus optional [n] suffix.
func (p *parser) parseType() (*prog.Type, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	var t *prog.Type
	switch name.text {
	case "char":
		t = prog.Char()
	case "short":
		t = prog.Short()
	case "int":
		t = prog.Int()
	case "long":
		t = prog.Int64T()
	case "wchar":
		t = prog.WChar()
	case "ptr":
		t = prog.VoidPtr()
	default:
		st, ok := p.structs[name.text]
		if !ok {
			return nil, fmt.Errorf("csrc:%d: unknown type %q", name.line, name.text)
		}
		t = st
	}
	if p.accept(tokPunct, "[") {
		return p.arraySuffix(t)
	}
	return t, nil
}

// maxArrayBytes bounds one array type's size. Simulated objects are far
// smaller; the bound only keeps size arithmetic from overflowing.
const maxArrayBytes = 1 << 32

// arraySuffix parses the `n]` of an array suffix whose `[` was just
// accepted and returns t as an n-element array. Hostile sources get an
// error for a length that is not positive or too large, instead of a
// prog.ArrayOf panic or an overflowing size.
func (p *parser) arraySuffix(t *prog.Type) (*prog.Type, error) {
	n, err := p.expect(tokInt, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "]"); err != nil {
		return nil, err
	}
	if n.val <= 0 || n.val > maxArrayBytes/max(t.Size(), 1) {
		return nil, fmt.Errorf("csrc:%d: array length %d out of range", n.line, n.val)
	}
	return prog.ArrayOf(t, n.val), nil
}

// structDecl parses `struct Name { fields }`.
func (p *parser) structDecl() error {
	p.next() // struct
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, dup := p.structs[name.text]; dup {
		return fmt.Errorf("csrc:%d: struct %q defined twice", name.line, name.text)
	}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	var fields []prog.FieldSpec
	for !p.accept(tokPunct, "}") {
		ft, err := p.parseType()
		if err != nil {
			return err
		}
		fname, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		// Allow the array suffix after the field name too (C style).
		if p.accept(tokPunct, "[") {
			if ft, err = p.arraySuffix(ft); err != nil {
				return err
			}
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return err
		}
		fields = append(fields, prog.FieldSpec{Name: fname.text, Type: ft})
	}
	if len(fields) == 0 {
		return fmt.Errorf("csrc:%d: struct %q has no fields", name.line, name.text)
	}
	p.structs[name.text] = prog.StructOf(name.text, fields...)
	return nil
}

// globalDecl parses `global type name[n]? (= int|string)? ;`.
func (p *parser) globalDecl() error {
	p.next() // global
	t, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if p.accept(tokPunct, "[") {
		if p.accept(tokPunct, "]") {
			// size from the string initializer below
			t = nil
		} else if t, err = p.arraySuffix(t); err != nil {
			return err
		}
	}
	if p.accept(tokPunct, "=") {
		switch p.cur().kind {
		case tokInt:
			v := p.next().val
			if t == nil {
				return p.errf("integer initializer needs a sized type")
			}
			p.pb.GlobalInit(name.text, t, v)
		case tokString:
			s := p.next().text
			p.pb.GlobalBytes(name.text, []byte(s))
			t = prog.ArrayOf(prog.Char(), int64(len(s))+1)
		default:
			return p.errf("bad global initializer")
		}
	} else {
		if t == nil {
			return p.errf("unsized global %q needs a string initializer", name.text)
		}
		p.pb.Global(name.text, t)
	}
	p.globals[name.text] = t
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	return nil
}

// funcDecl parses a function definition.
func (p *parser) funcDecl() error {
	p.next() // func
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	var params []string
	for !p.accept(tokPunct, ")") {
		if len(params) > 0 {
			if _, err := p.expect(tokPunct, ","); err != nil {
				return err
			}
		}
		pn, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		params = append(params, pn.text)
	}
	p.fb = p.pb.Function(name.text, len(params))
	p.vars = map[string]*binding{}
	for i, pn := range params {
		if _, dup := p.vars[pn]; dup {
			return fmt.Errorf("csrc: duplicate parameter %q", pn)
		}
		p.vars[pn] = &binding{reg: p.fb.Arg(i)}
	}
	return p.block()
}

// block parses `{ stmt* }`.
func (p *parser) block() error {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	for !p.accept(tokPunct, "}") {
		if p.cur().kind == tokEOF {
			return p.errf("unterminated block")
		}
		if err := p.stmt(); err != nil {
			return err
		}
	}
	return nil
}
