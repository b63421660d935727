package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads an expression in the canonical Key() syntax:
//
//	0x1f               word
//	rdi0               variable
//	add(rdi0,0x8)      operator application
//	*[rsp0,8]          region read
//
// A join variable's name embeds its vertex's ID, and the ID of a vertex
// holding code pointers carries one part per pointer after the address
// (pred.CodePointerParts): "/<reg>=<hex>" for a register and
// "/m<expression>=<hex>" for a memory clause, as in
// j40129c/rax=40129e_rsi or j40100f/madd(rsp0,0xfffffffffffffff0)=401027_rdi.
// Register names never start with 'm'.
//
// Parsing re-applies the smart constructors, so Parse(e.Key()).Key() ==
// e.Key(): the serialised form round-trips.
func Parse(s string) (*Expr, error) {
	p := &parser{s: s}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("expr: trailing input %q", p.s[p.pos:])
	}
	return e, nil
}

type parser struct {
	s   string
	pos int
}

func (p *parser) fail(format string, args ...any) error {
	return fmt.Errorf("expr: %s at offset %d of %q", fmt.Sprintf(format, args...), p.pos, p.s)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.s) {
		return p.s[p.pos]
	}
	return 0
}

func (p *parser) eat(c byte) error {
	if p.peek() != c {
		return p.fail("expected %q", string(c))
	}
	p.pos++
	return nil
}

// opByName resolves operator mnemonics.
var opByName = func() map[string]Op {
	m := map[string]Op{}
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

func isIdent(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func (p *parser) expr() (*Expr, error) {
	p.skipSpace()
	switch {
	case p.peek() == '*':
		p.pos++
		if err := p.eat('['); err != nil {
			return nil, err
		}
		addr, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.eat(','); err != nil {
			return nil, err
		}
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
			p.pos++
		}
		size, err := strconv.Atoi(p.s[start:p.pos])
		if err != nil {
			return nil, p.fail("bad region size")
		}
		if err := p.eat(']'); err != nil {
			return nil, err
		}
		return Deref(addr, size), nil

	case strings.HasPrefix(p.s[p.pos:], "0x"):
		start := p.pos + 2
		end := start
		for end < len(p.s) && isHex(p.s[end]) {
			end++
		}
		w, err := strconv.ParseUint(p.s[start:end], 16, 64)
		if err != nil {
			return nil, p.fail("bad word: %v", err)
		}
		p.pos = end
		return Word(w), nil

	case isIdent(p.peek()):
		start := p.pos
		p.ident()
		for p.peek() == '/' { // a vertex ID's part, then the rest of the name
			if err := p.codePointerPart(); err != nil {
				return nil, err
			}
			p.ident()
		}
		name := p.s[start:p.pos]
		if p.peek() != '(' {
			return V(Var(name)), nil
		}
		op, ok := opByName[name]
		if !ok {
			return nil, p.fail("unknown operator %q", name)
		}
		p.pos++ // (
		var args []*Expr
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.eat(')'); err != nil {
			return nil, err
		}
		if min, max := opArity(op); len(args) < min || (max >= 0 && len(args) > max) {
			return nil, p.fail("operator %q applied to %d arguments", name, len(args))
		}
		return App(op, args...), nil
	}
	return nil, p.fail("unexpected input")
}

// ident reads an identifier, possibly empty.
func (p *parser) ident() {
	for p.pos < len(p.s) && isIdent(p.s[p.pos]) {
		p.pos++
	}
}

// codePointerPart reads one part of a vertex ID: "/", a register name or
// "m" and an expression, "=", and the pointer in hex.
func (p *parser) codePointerPart() error {
	p.pos++ // '/'
	if p.peek() == 'm' {
		p.pos++
		if _, err := p.expr(); err != nil {
			return err
		}
	} else {
		start := p.pos
		if p.ident(); p.pos == start {
			return p.fail("expected a register or memory part")
		}
	}
	if err := p.eat('='); err != nil {
		return err
	}
	start := p.pos
	for p.pos < len(p.s) && isHex(p.s[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return p.fail("expected a code pointer")
	}
	return nil
}

// opArity gives the argument counts the canonical syntax allows per
// operator (max -1 = unbounded). App assumes these hold; inputs from
// outside must be checked here before reaching it.
func opArity(op Op) (min, max int) {
	switch op {
	case OpAdd, OpMul:
		return 1, -1
	case OpNot, OpNeg, OpSExt8, OpSExt16, OpSExt32:
		return 1, 1
	default:
		return 2, 2
	}
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
}
