// Package query defines the join-query representation used throughout the
// reproduction: a natural join query is a set of atoms over named variables
// (paper §2.1), optionally parsed from the Datalog-style syntax the paper
// uses in §5.1, extended with projection heads, constants, comparison
// predicates, and aggregate head terms.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrUnboundHeadVar reports a head term (variable or aggregate argument) of a
// rule-form query that no body atom binds; callers branch with errors.Is.
var ErrUnboundHeadVar = errors.New("head variable not bound by the body")

// ErrUnboundPredVar reports a comparison predicate over a variable that no
// body atom binds.
var ErrUnboundPredVar = errors.New("predicate variable not bound by the body")

// Atom is one relational atom R(x1, ..., xk). Vars are variable names; a
// variable may repeat within an atom (self-join on a column).
type Atom struct {
	Rel  string
	Vars []string
}

func (a Atom) String() string {
	return a.Rel + "(" + strings.Join(a.Vars, ", ") + ")"
}

// CmpOp is a comparison operator in a predicate.
type CmpOp string

const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// ValidOp reports whether op is one of the six comparison operators.
func ValidOp(op CmpOp) bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// flip maps op to the operator with swapped operands (5 < a  ≡  a > 5).
func (op CmpOp) flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // = and != are symmetric
}

// Pred is one comparison predicate in a query body: Left op Right where Left
// is always a variable and Right is either a variable (IsVar) or an int64
// constant. Constants appearing inside atoms — e(a, 5) — are desugared by the
// parser into a hidden placeholder variable plus an equality Pred pinning it.
type Pred struct {
	Left  string
	Op    CmpOp
	Right string // variable name when IsVar
	Const int64  // constant when !IsVar
	IsVar bool
}

func (p Pred) String() string {
	if p.IsVar {
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	}
	return fmt.Sprintf("%s %s %d", p.Left, p.Op, p.Const)
}

// AggFunc names one of the supported streaming aggregates.
type AggFunc string

const (
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
)

// ValidAgg reports whether fn is a supported aggregate function.
func ValidAgg(fn AggFunc) bool {
	switch fn {
	case AggCount, AggSum, AggMin, AggMax:
		return true
	}
	return false
}

// Merge folds v into the accumulator acc: count and sum add v, min and max
// keep the smaller or larger. For count, v is a contribution — 1 for a row,
// a partial count for a partial accumulator — so the same merge folds rows
// into an accumulator and accumulators into one another.
func (fn AggFunc) Merge(acc, v int64) int64 {
	switch fn {
	case AggMin:
		return min(acc, v)
	case AggMax:
		return max(acc, v)
	}
	return acc + v
}

// Agg is one aggregate head term fn(Var). Aggregates range over the distinct
// bindings of the grouped variables together with every aggregated variable
// (set semantics, matching the set semantics of the relations themselves).
type Agg struct {
	Func AggFunc
	Var  string
}

func (a Agg) String() string { return string(a.Func) + "(" + a.Var + ")" }

// Placeholder reports whether v is a parser-generated hidden variable
// standing in for an in-atom constant. Placeholder names start with '$',
// which the identifier grammar forbids, so they can never collide with a
// user-written variable.
func Placeholder(v string) bool { return strings.HasPrefix(v, "$") }

// Query is a natural join query: the join of all its atoms, optionally
// restricted by comparison predicates and projected/aggregated by a rule
// head.
type Query struct {
	Name  string
	Atoms []Atom
	Preds []Pred // conjunctive comparison predicates over body variables
	Aggs  []Agg  // aggregate head terms, emitted after the plain head vars

	// vars is the query's variable order. For plain queries it is
	// first-appearance (or head) order. For extended queries it is output
	// variables first (head order), then aggregated variables, then the
	// remaining body variables — the order engine rows are laid out in, and
	// the order the GAO planner stays closest to.
	vars []string
	// out is the projection: the plain head variables. nil means "all vars"
	// (no rule head, or legacy full-cover head).
	out []string
	// prefix is the number of leading vars that engines must emit: the
	// output variables plus any aggregated variables. Meaningful only when
	// out != nil.
	prefix int
}

// New returns a query over the given atoms. Variables are ordered by first
// appearance.
func New(name string, atoms ...Atom) *Query {
	q := &Query{Name: name, Atoms: atoms}
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				q.vars = append(q.vars, v)
			}
		}
	}
	return q
}

// NewRule is the general constructor: head lists the plain output variables
// (the group-by keys when aggs is non-empty), aggs the aggregate head terms,
// and preds the body comparison predicates. Result rows carry the head
// variables in head order followed by one value per aggregate, in order.
// Every head variable must be bound by some body atom (ErrUnboundHeadVar
// otherwise) and head variables must be distinct. A head naming a strict
// subset of the body variables is a projection: engines emit only the
// projected bindings, with duplicates eliminated early.
func NewRule(name string, head []string, aggs []Agg, preds []Pred, atoms ...Atom) (*Query, error) {
	base := New(name, atoms...)
	bound := make(map[string]bool, len(base.vars))
	for _, v := range base.vars {
		bound[v] = true
	}
	seen := make(map[string]bool, len(head))
	for _, v := range head {
		if seen[v] {
			return nil, fmt.Errorf("query %q: head repeats variable %s", name, v)
		}
		seen[v] = true
		if !bound[v] {
			return nil, fmt.Errorf("query %q: %w: %s", name, ErrUnboundHeadVar, v)
		}
	}
	for _, ag := range aggs {
		if !ValidAgg(ag.Func) {
			return nil, fmt.Errorf("query %q: unknown aggregate function %q", name, ag.Func)
		}
		if !bound[ag.Var] {
			return nil, fmt.Errorf("query %q: %w: %s(%s)", name, ErrUnboundHeadVar, ag.Func, ag.Var)
		}
	}
	for _, p := range preds {
		if !ValidOp(p.Op) {
			return nil, fmt.Errorf("query %q: unknown comparison operator %q", name, p.Op)
		}
		if !bound[p.Left] {
			return nil, fmt.Errorf("query %q: %w: %s", name, ErrUnboundPredVar, p.Left)
		}
		if p.IsVar && !bound[p.Right] {
			return nil, fmt.Errorf("query %q: %w: %s", name, ErrUnboundPredVar, p.Right)
		}
	}
	if len(head) == 0 && len(aggs) == 0 {
		return nil, fmt.Errorf("query %q: output names no variables (at least one output variable or aggregate is required)", name)
	}
	q := &Query{
		Name:  name,
		Atoms: atoms,
		Preds: append([]Pred(nil), preds...),
		Aggs:  append([]Agg(nil), aggs...),
	}
	if len(q.Preds) == 0 {
		q.Preds = nil
	}
	if len(q.Aggs) == 0 {
		q.Aggs = nil
	}
	// Execution order: output vars (head order), then aggregated vars not
	// already output, then the remaining body vars by first appearance.
	// out stays non-nil even for an aggregate-only head ("total(count(b))"),
	// where the empty slice means "no plain output columns" — a nil out
	// means "all vars" instead.
	q.out = make([]string, 0, len(head))
	q.out = append(q.out, head...)
	q.vars = append([]string(nil), head...)
	inVars := make(map[string]bool, len(base.vars))
	for _, v := range head {
		inVars[v] = true
	}
	for _, ag := range aggs {
		if !inVars[ag.Var] {
			inVars[ag.Var] = true
			q.vars = append(q.vars, ag.Var)
		}
	}
	q.prefix = len(q.vars)
	for _, v := range base.vars {
		if !inVars[v] {
			inVars[v] = true
			q.vars = append(q.vars, v)
		}
	}
	return q, nil
}

// Vars returns the query's variables: output variables first (head order),
// then aggregated variables, then the remaining body variables. For plain
// queries this is first-appearance (or head) order. It is the column order
// of engine rows, not necessarily the order execution binds them in (see
// hypergraph.ChooseGAO). The returned slice must not be modified.
func (q *Query) Vars() []string { return q.vars }

// NumVars returns n = |vars(Q)|.
func (q *Query) NumVars() int { return len(q.vars) }

// Out returns the output (projected) variables in head order. For a query
// without a projecting head it is all of Vars().
func (q *Query) Out() []string {
	if q.out == nil {
		return q.vars
	}
	return q.out
}

// Prefix returns the number of leading execution variables engines must
// emit: the output variables plus any aggregated variables. Equal to
// NumVars() for plain queries.
func (q *Query) Prefix() int {
	if q.out == nil {
		return len(q.vars)
	}
	return q.prefix
}

// Projected reports whether engines emit a strict prefix of the execution
// variables (projection or aggregation hiding at least one body variable).
func (q *Query) Projected() bool { return q.Prefix() < len(q.vars) }

// Emitted returns the variables of an engine row, in column order: the
// output variables, then any aggregated variables not already output. The
// returned slice must not be modified.
func (q *Query) Emitted() []string { return q.vars[:q.Prefix()] }

// PrefixOrdered reports whether the query's rows carry an order contract:
// projected and aggregate queries emit distinct rows of Emitted(), ascending
// lexicographically in that column order, under every attribute order.
func (q *Query) PrefixOrdered() bool { return len(q.Aggs) > 0 || q.Projected() }

// PartitionedBy reports whether splitting execution on the values of v
// partitions the output rows, so that per-part results concatenate (or, for
// a key-less aggregate, fold) into the whole: v must be pinned to a constant
// (one part then holds every row), an output variable, or an aggregated one
// when the head has no plain variables.
func (q *Query) PartitionedBy(v string) bool {
	if _, pinned := q.Pinned(v); pinned {
		return true
	}
	cols := q.Out()
	if len(cols) == 0 {
		cols = q.Emitted()
	}
	for _, w := range cols {
		if w == v {
			return true
		}
	}
	return false
}

// Extended reports whether the query uses any feature beyond a plain natural
// join — projection, comparison predicates (including desugared constants),
// or aggregation. Extended queries are supported by the LFTJ and Minesweeper
// engines only.
func (q *Query) Extended() bool {
	return len(q.Preds) > 0 || len(q.Aggs) > 0 || q.Projected()
}

// Pinned returns the constant an equality predicate fixes v to — an in-atom
// constant's placeholder and a written v = K alike — if any.
func (q *Query) Pinned(v string) (int64, bool) {
	for _, p := range q.Preds {
		if p.Left == v && p.Op == OpEq && !p.IsVar {
			return p.Const, true
		}
	}
	return 0, false
}

// bodyString renders the atoms (placeholder variables inlined back to their
// constants) followed by the non-desugared predicates.
func (q *Query) bodyString() string {
	var b strings.Builder
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for j, v := range a.Vars {
			if j > 0 {
				b.WriteString(", ")
			}
			if Placeholder(v) {
				if c, ok := q.Pinned(v); ok {
					b.WriteString(strconv.FormatInt(c, 10))
					continue
				}
			}
			b.WriteString(v)
		}
		b.WriteByte(')')
	}
	for _, p := range q.Preds {
		if Placeholder(p.Left) && p.Op == OpEq && !p.IsVar {
			continue // rendered inline as an atom constant
		}
		b.WriteString(", ")
		b.WriteString(p.String())
	}
	return b.String()
}

// String renders the query in the parseable Datalog-style syntax. Plain
// queries render as their atom list; extended queries render as a full rule
// with head, inlined constants, and predicates. Plan-cache keys incorporate
// this rendering, so it must distinguish every semantic dimension.
func (q *Query) String() string {
	if !q.Extended() {
		return q.bodyString()
	}
	var b strings.Builder
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, v := range q.Out() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v)
	}
	for i, ag := range q.Aggs {
		if i > 0 || len(q.Out()) > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ag.String())
	}
	b.WriteString(") :- ")
	b.WriteString(q.bodyString())
	return b.String()
}

// VarIndex returns a map from variable name to its index in Vars().
func (q *Query) VarIndex() map[string]int {
	idx := make(map[string]int, len(q.vars))
	for i, v := range q.vars {
		idx[v] = i
	}
	return idx
}

// AtomsWith returns the indices of atoms containing variable v.
func (q *Query) AtomsWith(v string) []int {
	var out []int
	for i, a := range q.Atoms {
		for _, w := range a.Vars {
			if w == v {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Validate checks structural well-formedness: at least one atom, non-empty
// atoms, every variable bound by some atom (trivially true here, but
// repeated-variable atoms are rejected because the storage layer indexes
// distinct columns; callers rewrite duplicates away first), and — for
// extended queries — well-formed predicates and aggregates over bound
// variables.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query %q: no atoms", q.Name)
	}
	bound := make(map[string]bool)
	for _, a := range q.Atoms {
		if len(a.Vars) == 0 {
			return fmt.Errorf("query %q: atom %s has no variables", q.Name, a.Rel)
		}
		seen := make(map[string]bool, len(a.Vars))
		for _, v := range a.Vars {
			if seen[v] {
				return fmt.Errorf("query %q: atom %s repeats variable %s", q.Name, a.Rel, v)
			}
			seen[v] = true
			bound[v] = true
		}
	}
	for _, p := range q.Preds {
		if !ValidOp(p.Op) {
			return fmt.Errorf("query %q: unknown comparison operator %q", q.Name, p.Op)
		}
		if !bound[p.Left] {
			return fmt.Errorf("query %q: %w: %s", q.Name, ErrUnboundPredVar, p.Left)
		}
		if p.IsVar && !bound[p.Right] {
			return fmt.Errorf("query %q: %w: %s", q.Name, ErrUnboundPredVar, p.Right)
		}
	}
	for _, ag := range q.Aggs {
		if !ValidAgg(ag.Func) {
			return fmt.Errorf("query %q: unknown aggregate function %q", q.Name, ag.Func)
		}
		if !bound[ag.Var] {
			return fmt.Errorf("query %q: %w: %s(%s)", q.Name, ErrUnboundHeadVar, ag.Func, ag.Var)
		}
	}
	if q.out != nil {
		for _, v := range q.out {
			if !bound[v] {
				return fmt.Errorf("query %q: %w: %s", q.Name, ErrUnboundHeadVar, v)
			}
		}
	}
	return nil
}

// Headed reports whether the query has a rule head: a written one, or the
// one a bare body with constants or predicates gets (its visible variables).
// A query without one emits every variable, and its rows come in the order
// of the global attribute order it runs under.
func (q *Query) Headed() bool { return q.out != nil }
