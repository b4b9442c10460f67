package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// SyntaxError is the typed error for parse failures, carrying the byte
// offset into the source and, when known, the relation name of the atom
// being parsed. Parse wraps it with the query name; unwrap with errors.As.
type SyntaxError struct {
	Offset int
	Atom   string // relation name of the enclosing atom, "" at top level
	Msg    string
}

func (e *SyntaxError) Error() string {
	if e.Atom != "" {
		return fmt.Sprintf("atom %s: %s at offset %d", e.Atom, e.Msg, e.Offset)
	}
	return fmt.Sprintf("%s at offset %d", e.Msg, e.Offset)
}

// Parse reads a query in the Datalog-style syntax the paper uses in §5.1,
// extended with projection, constants, comparison predicates, and
// aggregates. The body is a comma-separated list of atoms and predicates:
//
//	v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)
//	edge(a, 5), a < b, b != 7
//
// An optional rule head names the query and fixes the output: it may list
// any distinct subset of the body variables (a strict subset projects, with
// early duplicate elimination) and may end with aggregate terms count(v),
// sum(v), min(v), max(v), which group results by the plain head variables:
//
//	chain(a, d) :- v1(a), edge(a, b), edge(b, c), edge(c, d)
//	deg(a, count(b)) :- edge(a, b)
//
// Atom arguments are variables or integer constants. Predicates compare a
// variable against a variable or constant with =, !=, <, <=, >, >=.
// Relation and variable names are identifiers ([A-Za-z_][A-Za-z0-9_]*).
// Whitespace is insignificant. A trailing period is permitted. For a bare
// body the name argument names the query; a head overrides it. Parse errors
// are *SyntaxError values carrying the offending offset and atom.
func Parse(name, src string) (*Query, error) {
	p := &parser{src: src}
	var head *rawAtom
	var atoms []rawAtom
	var preds []rawPred
	p.skipSpace()
	for !p.done() {
		c := p.peek()
		switch {
		case c == '-' || unicode.IsDigit(rune(c)):
			// Constant-led predicate: 5 < a. Normalize to a > 5.
			off := p.pos
			v, err := p.number()
			if err != nil {
				return nil, wrapSyntax(name, err)
			}
			p.skipSpace()
			op, ok := p.cmpOp()
			if !ok {
				return nil, wrapSyntax(name, &SyntaxError{Offset: p.pos, Msg: "expected comparison operator after constant"})
			}
			p.skipSpace()
			id, err := p.ident()
			if err != nil {
				return nil, wrapSyntax(name, &SyntaxError{Offset: p.pos, Msg: "comparison must involve a variable"})
			}
			preds = append(preds, rawPred{Pred: Pred{Left: id, Op: op.flip(), Const: v}, off: off})
		default:
			rel, err := p.ident()
			if err != nil {
				return nil, wrapSyntax(name, err)
			}
			p.skipSpace()
			if p.peek() == '(' {
				ra, err := p.finishRawAtom(rel)
				if err != nil {
					return nil, wrapSyntax(name, err)
				}
				p.skipSpace()
				if head == nil && len(atoms) == 0 && len(preds) == 0 && p.hasRuleArrow() {
					head = &ra
					p.pos += 2
					p.skipSpace()
					continue
				}
				atoms = append(atoms, ra)
			} else if op, ok := p.cmpOp(); ok {
				pr := rawPred{Pred: Pred{Left: rel, Op: op}, off: p.pos}
				p.skipSpace()
				rc := p.peek()
				if rc == '-' || unicode.IsDigit(rune(rc)) {
					v, err := p.number()
					if err != nil {
						return nil, wrapSyntax(name, err)
					}
					pr.Const = v
				} else {
					id, err := p.ident()
					if err != nil {
						return nil, wrapSyntax(name, &SyntaxError{Offset: p.pos, Msg: "expected variable or constant after comparison operator"})
					}
					pr.Right = id
					pr.IsVar = true
				}
				preds = append(preds, pr)
			} else {
				return nil, wrapSyntax(name, &SyntaxError{Offset: p.pos, Atom: rel, Msg: "expected '(' or comparison operator"})
			}
		}
		p.skipSpace()
		if p.peek() == ',' {
			p.pos++
			p.skipSpace()
			continue
		}
		if p.peek() == '.' {
			p.pos++
			p.skipSpace()
		}
		break
	}
	p.skipSpace()
	if !p.done() {
		return nil, fmt.Errorf("query %q: %w", name,
			&SyntaxError{Offset: p.pos, Msg: fmt.Sprintf("trailing input: %q", p.src[p.pos:])})
	}
	q, err := assemble(name, head, atoms, preds)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

func wrapSyntax(name string, err error) error {
	return fmt.Errorf("query %q: %w", name, err)
}

// assemble desugars in-atom constants into placeholder variables pinned by
// equality predicates and builds the Query through the validating
// constructors.
func assemble(name string, head *rawAtom, atoms []rawAtom, preds []rawPred) (*Query, error) {
	if head != nil && len(atoms) == 0 && len(preds) == 0 {
		return nil, fmt.Errorf("query %q: rule %s has an empty body", name, head.Rel)
	}
	var bodyAtoms []Atom
	var constPreds []Pred
	next := 1
	for _, ra := range atoms {
		a := Atom{Rel: ra.Rel, Vars: make([]string, 0, len(ra.terms))}
		for _, t := range ra.terms {
			switch {
			case t.fn != "":
				return nil, wrapSyntax(name, &SyntaxError{Offset: t.off, Atom: ra.Rel,
					Msg: fmt.Sprintf("aggregate %s(%s) is only allowed in the rule head", t.fn, t.name)})
			case t.isConst:
				ph := "$" + strconv.Itoa(next)
				next++
				a.Vars = append(a.Vars, ph)
				constPreds = append(constPreds, Pred{Left: ph, Op: OpEq, Const: t.val})
			default:
				a.Vars = append(a.Vars, t.name)
			}
		}
		bodyAtoms = append(bodyAtoms, a)
	}
	allPreds := constPreds
	for _, rp := range preds {
		allPreds = append(allPreds, rp.Pred)
	}

	if head != nil {
		var outVars []string
		var aggs []Agg
		for _, t := range head.terms {
			switch {
			case t.isConst:
				return nil, wrapSyntax(name, &SyntaxError{Offset: t.off, Atom: head.Rel,
					Msg: "constants are not allowed in the rule head"})
			case t.fn != "":
				aggs = append(aggs, Agg{Func: t.fn, Var: t.name})
			default:
				if len(aggs) > 0 {
					return nil, wrapSyntax(name, &SyntaxError{Offset: t.off, Atom: head.Rel,
						Msg: "aggregate terms must follow every plain head variable"})
				}
				outVars = append(outVars, t.name)
			}
		}
		return NewRule(head.Rel, outVars, aggs, allPreds, bodyAtoms...)
	}
	if len(allPreds) == 0 {
		return New(name, bodyAtoms...), nil
	}
	// Bare body with constants or predicates: output the visible (non
	// placeholder) variables in first-appearance order.
	var outVars []string
	seen := make(map[string]bool)
	for _, a := range bodyAtoms {
		for _, v := range a.Vars {
			if !Placeholder(v) && !seen[v] {
				seen[v] = true
				outVars = append(outVars, v)
			}
		}
	}
	return NewRule(name, outVars, nil, allPreds, bodyAtoms...)
}

// term is one argument of a raw (pre-desugaring) atom: a variable, an
// integer constant, or — in rule heads only — an aggregate fn(var).
type term struct {
	name    string
	fn      AggFunc // non-empty for aggregate terms
	isConst bool
	val     int64
	off     int
}

type rawAtom struct {
	Rel   string
	terms []term
}

type rawPred struct {
	Pred
	off int
}

type parser struct {
	src string
	pos int
}

func (p *parser) done() bool { return p.pos >= len(p.src) }

// hasRuleArrow reports whether ":-" starts at the current position.
func (p *parser) hasRuleArrow() bool {
	return p.pos+1 < len(p.src) && p.src[p.pos] == ':' && p.src[p.pos+1] == '-'
}

func (p *parser) peek() byte {
	if p.done() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipSpace() {
	for !p.done() && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) ident() (string, error) {
	start := p.pos
	for !p.done() {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || c == '_' || (p.pos > start && unicode.IsDigit(c)) {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", &SyntaxError{Offset: start, Msg: "expected identifier"}
	}
	return p.src[start:p.pos], nil
}

// number parses an optionally negative integer constant.
func (p *parser) number() (int64, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for !p.done() && unicode.IsDigit(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start || (p.pos == start+1 && p.src[start] == '-') {
		return 0, &SyntaxError{Offset: start, Msg: "expected integer constant"}
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0, &SyntaxError{Offset: start, Msg: fmt.Sprintf("integer constant %q out of range", p.src[start:p.pos])}
	}
	return v, nil
}

// cmpOp consumes a comparison operator if one starts at the current
// position. "==" is accepted as "=".
func (p *parser) cmpOp() (CmpOp, bool) {
	if p.pos+1 < len(p.src) {
		switch p.src[p.pos : p.pos+2] {
		case "<=":
			p.pos += 2
			return OpLe, true
		case ">=":
			p.pos += 2
			return OpGe, true
		case "!=":
			p.pos += 2
			return OpNe, true
		case "==":
			p.pos += 2
			return OpEq, true
		}
	}
	switch p.peek() {
	case '<':
		p.pos++
		return OpLt, true
	case '>':
		p.pos++
		return OpGt, true
	case '=':
		p.pos++
		return OpEq, true
	}
	return "", false
}

// finishRawAtom parses the argument list of an atom (or prospective rule
// head) whose relation name has already been consumed and whose next byte is
// '('. Head-only aggregate terms are accepted here and rejected later if the
// unit turns out to be a body atom.
func (p *parser) finishRawAtom(rel string) (rawAtom, error) {
	p.pos++ // '('
	ra := rawAtom{Rel: rel}
	for {
		p.skipSpace()
		off := p.pos
		c := p.peek()
		switch {
		case c == '-' || unicode.IsDigit(rune(c)):
			v, err := p.number()
			if err != nil {
				return rawAtom{}, withAtom(err, rel)
			}
			ra.terms = append(ra.terms, term{isConst: true, val: v, off: off})
		default:
			id, err := p.ident()
			if err != nil {
				return rawAtom{}, withAtom(err, rel)
			}
			p.skipSpace()
			if p.peek() == '(' {
				// Aggregate term fn(var), legal only in rule heads.
				fn := AggFunc(id)
				if !ValidAgg(fn) {
					return rawAtom{}, &SyntaxError{Offset: off, Atom: rel,
						Msg: fmt.Sprintf("unknown aggregate function %q (want count, sum, min, or max)", id)}
				}
				p.pos++
				p.skipSpace()
				arg, err := p.ident()
				if err != nil {
					return rawAtom{}, withAtom(err, rel)
				}
				p.skipSpace()
				if p.peek() != ')' {
					return rawAtom{}, &SyntaxError{Offset: p.pos, Atom: rel, Msg: fmt.Sprintf("expected ')' closing %s(", id)}
				}
				p.pos++
				ra.terms = append(ra.terms, term{name: arg, fn: fn, off: off})
			} else {
				ra.terms = append(ra.terms, term{name: id, off: off})
			}
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return ra, nil
		default:
			return rawAtom{}, &SyntaxError{Offset: p.pos, Atom: rel, Msg: "expected ',' or ')'"}
		}
	}
}

func withAtom(err error, rel string) error {
	if se, ok := err.(*SyntaxError); ok && se.Atom == "" {
		se.Atom = rel
	}
	return err
}

// Format renders the query back to the paper's Datalog-style syntax.
// Extended queries (projection, constants, predicates, aggregates) render as
// a full rule and round-trip through Parse.
func Format(q *Query) string {
	var b strings.Builder
	b.WriteString(q.String())
	return b.String()
}
