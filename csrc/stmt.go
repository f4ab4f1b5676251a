package csrc

import "cecsan/prog"

// stmt parses one statement.
func (p *parser) stmt() error {
	if p.cur().kind == tokIdent {
		switch p.cur().text {
		case "var":
			return p.varStmt()
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "for":
			return p.forStmt()
		case "return":
			return p.returnStmt()
		case "free":
			return p.freeStmt()
		}
	}
	return p.assignOrExprStmt()
}

// varStmt parses `var name = expr ;`.
func (p *parser) varStmt() error {
	p.next() // var
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, dup := p.vars[name.text]; dup {
		return p.errf("variable %q already declared", name.text)
	}
	if p.reservedName(name.text) {
		return p.errf("%q is reserved", name.text)
	}
	if _, err := p.expect(tokPunct, "="); err != nil {
		return err
	}
	v, err := p.expr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	// Bind a dedicated register so later assignment works.
	reg := p.fb.NewReg()
	p.fb.Assign(reg, v.reg)
	p.vars[name.text] = &binding{reg: reg, pointee: v.pointee}
	return nil
}

// reservedName rejects shadowing of callables and keywords.
func (p *parser) reservedName(n string) bool {
	if libcNames[n] {
		return true
	}
	if _, ok := p.funcs[n]; ok {
		return true
	}
	switch n {
	case "var", "if", "else", "while", "for", "return", "free", "malloc",
		"new", "local", "extern", "externret", "global", "struct", "func":
		return true
	}
	return false
}

// ifStmt parses `if (expr) block (else block)?`.
func (p *parser) ifStmt() error {
	p.next() // if
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	cond, err := p.expr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return err
	}
	var blockErr error
	// Builder layout note: If emits the else arm first; source order of
	// parsing must follow the emission order, so stash the then-tokens.
	thenStart := p.pos
	if err := p.skipBlock(); err != nil {
		return err
	}
	elseStart := -1
	afterThen := p.pos
	if p.cur().kind == tokIdent && p.cur().text == "else" {
		p.next()
		elseStart = p.pos
		if err := p.skipBlock(); err != nil {
			return err
		}
	}
	end := p.pos

	var elseFn func()
	if elseStart >= 0 {
		elseFn = func() {
			p.pos = elseStart
			if err := p.block(); err != nil && blockErr == nil {
				blockErr = err
			}
		}
	}
	p.fb.If(cond.reg, func() {
		p.pos = thenStart
		if err := p.block(); err != nil && blockErr == nil {
			blockErr = err
		}
	}, elseFn)
	_ = afterThen
	p.pos = end
	return blockErr
}

// skipBlock advances past a balanced `{ ... }` without emitting code.
func (p *parser) skipBlock() error {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		// Test before consuming: EOF is the last token, and errf reads it.
		if p.cur().kind == tokEOF {
			return p.errf("unterminated block")
		}
		switch t := p.next(); {
		case t.kind == tokPunct && t.text == "{":
			depth++
		case t.kind == tokPunct && t.text == "}":
			depth--
		}
	}
	return nil
}

// whileStmt parses `while (expr) block`.
func (p *parser) whileStmt() error {
	p.next() // while
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	condStart := p.pos
	// Pre-scan the condition so we can emit it inside the builder closure.
	if err := p.skipParenExpr(); err != nil {
		return err
	}
	bodyStart := p.pos
	if err := p.skipBlock(); err != nil {
		return err
	}
	end := p.pos

	var blockErr error
	p.fb.While(
		func() prog.Reg {
			p.pos = condStart
			v, err := p.expr()
			if err != nil && blockErr == nil {
				blockErr = err
				return p.fb.Const(0)
			}
			if _, err := p.expect(tokPunct, ")"); err != nil && blockErr == nil {
				blockErr = err
			}
			return v.reg
		},
		func() {
			p.pos = bodyStart
			if err := p.block(); err != nil && blockErr == nil {
				blockErr = err
			}
		},
	)
	p.pos = end
	return blockErr
}

// skipParenExpr advances past the remainder of a parenthesized expression
// (the opening parenthesis has been consumed).
func (p *parser) skipParenExpr() error {
	depth := 1
	for depth > 0 {
		// Test before consuming: EOF is the last token, and errf reads it.
		if p.cur().kind == tokEOF {
			return p.errf("unterminated ( )")
		}
		switch t := p.next(); {
		case t.kind == tokPunct && t.text == "(":
			depth++
		case t.kind == tokPunct && t.text == ")":
			depth--
		}
	}
	return nil
}

// forStmt parses `for (i = start; i < limit; i += step) block` where start
// and limit are integer literals or variables and step is a literal —
// exactly the counted-loop form whose scalar-evolution facts the builder
// records for §II.F.1.
func (p *parser) forStmt() error {
	p.next() // for
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	iv, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, dup := p.vars[iv.text]; dup {
		return p.errf("loop variable %q shadows an existing variable", iv.text)
	}
	if _, err := p.expect(tokPunct, "="); err != nil {
		return err
	}
	start, err := p.loopOperand()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	if _, err := p.expect(tokIdent, iv.text); err != nil {
		return err
	}
	cmp, err := p.expect(tokPunct, "")
	if err != nil {
		return err
	}
	if cmp.text != "<" && cmp.text != ">" {
		return p.errf("for condition must be %q or %q", "<", ">")
	}
	limit, err := p.loopOperand()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	if _, err := p.expect(tokIdent, iv.text); err != nil {
		return err
	}
	op, err := p.expect(tokPunct, "")
	if err != nil {
		return err
	}
	if op.text != "+=" && op.text != "-=" {
		return p.errf("for increment must be += or -=")
	}
	stepTok, err := p.expect(tokInt, "")
	if err != nil {
		return err
	}
	step := stepTok.val
	if op.text == "-=" {
		step = -step
	}
	if (cmp.text == "<" && step <= 0) || (cmp.text == ">" && step >= 0) {
		return p.errf("for step direction does not match the condition")
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return err
	}

	var blockErr error
	p.fb.ForRange(start, limit, step, func(i prog.Reg) {
		p.vars[iv.text] = &binding{reg: i}
		if err := p.block(); err != nil && blockErr == nil {
			blockErr = err
		}
	})
	delete(p.vars, iv.text)
	return blockErr
}

// loopOperand parses an integer literal or variable reference.
func (p *parser) loopOperand() (prog.Operand, error) {
	if p.cur().kind == tokInt {
		return prog.ConstOperand(p.next().val), nil
	}
	if p.cur().kind == tokPunct && p.cur().text == "-" {
		p.next()
		n, err := p.expect(tokInt, "")
		if err != nil {
			return prog.Operand{}, err
		}
		return prog.ConstOperand(-n.val), nil
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return prog.Operand{}, err
	}
	b, ok := p.vars[name.text]
	if !ok {
		return prog.Operand{}, p.errf("undefined variable %q", name.text)
	}
	return prog.RegOperand(b.reg), nil
}

// returnStmt parses `return expr? ;`.
func (p *parser) returnStmt() error {
	p.next() // return
	if p.accept(tokPunct, ";") {
		p.fb.RetVoid()
		return nil
	}
	v, err := p.expr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	p.fb.Ret(v.reg)
	return nil
}

// freeStmt parses `free(expr);`.
func (p *parser) freeStmt() error {
	p.next() // free
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	v, err := p.expr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	p.fb.Free(v.reg)
	return nil
}

// assignOrExprStmt parses either a store through a place or a bare
// expression statement.
func (p *parser) assignOrExprStmt() error {
	pl, err := p.parsePlace()
	if err != nil {
		return err
	}
	if pl != nil && p.accept(tokPunct, "=") {
		v, err := p.expr()
		if err != nil {
			return err
		}
		if err := p.storePlace(pl, v); err != nil {
			return err
		}
		_, err = p.expect(tokPunct, ";")
		return err
	}
	// Not an assignment: continue as an expression statement. If we parsed
	// a place, fold it into a value and keep parsing operators after it.
	var left value
	if pl != nil {
		left, err = p.loadPlace(pl)
		if err != nil {
			return err
		}
		left, err = p.continueExpr(left, 0)
		if err != nil {
			return err
		}
	} else {
		left, err = p.expr()
		if err != nil {
			return err
		}
	}
	_ = left
	_, err = p.expect(tokPunct, ";")
	return err
}
