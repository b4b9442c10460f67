package query

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseTriangle(t *testing.T) {
	q, err := Parse("triangle", "edge(a,b), edge(b,c), edge(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 3 {
		t.Fatalf("got %d atoms, want 3", len(q.Atoms))
	}
	if !reflect.DeepEqual(q.Vars(), []string{"a", "b", "c"}) {
		t.Errorf("Vars = %v", q.Vars())
	}
	if got := q.Atoms[1]; got.Rel != "edge" || !reflect.DeepEqual(got.Vars, []string{"b", "c"}) {
		t.Errorf("atom 1 = %v", got)
	}
}

func TestParsePaperSyntax(t *testing.T) {
	// Exactly the 3-path query string from §5.1, with trailing period.
	q, err := Parse("3-path", "v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d).")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVars() != 4 || len(q.Atoms) != 5 {
		t.Errorf("NumVars=%d atoms=%d", q.NumVars(), len(q.Atoms))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"edge",
		"edge(",
		"edge()",
		"edge(a,)",
		"edge(a) garbage",
		"edge(a b)",
		"edge(a,a)", // repeated variable in one atom
		"1edge(a)",
	} {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	src := "v1(a), edge(a, b), edge(b, c)"
	q := mustParse("q", src)
	q2, err := Parse("q", Format(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Errorf("round trip mismatch: %v vs %v", q, q2)
	}
}

func TestAtomsWith(t *testing.T) {
	q := mustParse("q", "v1(a), edge(a,b), edge(b,c)")
	if got := q.AtomsWith("b"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("AtomsWith(b) = %v", got)
	}
	if got := q.AtomsWith("z"); got != nil {
		t.Errorf("AtomsWith(z) = %v", got)
	}
}

func TestCliqueBuilder(t *testing.T) {
	q := Clique(3)
	if len(q.Atoms) != 3 || q.NumVars() != 3 {
		t.Fatalf("3-clique: %v", q)
	}
	q4 := Clique(4)
	if len(q4.Atoms) != 6 || q4.NumVars() != 4 {
		t.Fatalf("4-clique: %v", q4)
	}
	for _, a := range q4.Atoms {
		if a.Rel != Fwd {
			t.Errorf("clique atom over %s, want %s", a.Rel, Fwd)
		}
	}
}

func TestCycleBuilder(t *testing.T) {
	q := Cycle(4)
	if len(q.Atoms) != 4 || q.NumVars() != 4 {
		t.Fatalf("4-cycle: %v", q)
	}
	last := q.Atoms[len(q.Atoms)-1]
	if !reflect.DeepEqual(last.Vars, []string{"a", "d"}) {
		t.Errorf("closing atom = %v, want fwd(a, d)", last)
	}
}

func TestPathBuilder(t *testing.T) {
	q := Path(3)
	want := mustParse("3-path", "v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)")
	if Format(q) != Format(want) {
		t.Errorf("3-path = %s, want %s", Format(q), Format(want))
	}
	if q4 := Path(4); q4.NumVars() != 5 || len(q4.Atoms) != 6 {
		t.Errorf("4-path shape: %v", q4)
	}
}

func TestTreeAndCombBuilders(t *testing.T) {
	if q := Tree(1); q.NumVars() != 3 || len(q.Atoms) != 4 {
		t.Errorf("1-tree shape: %v", q)
	}
	if q := Tree(2); q.NumVars() != 7 || len(q.Atoms) != 10 {
		t.Errorf("2-tree shape: %v", q)
	}
	if q := Comb(); q.NumVars() != 4 || len(q.Atoms) != 5 {
		t.Errorf("2-comb shape: %v", q)
	}
}

func TestLollipopBuilder(t *testing.T) {
	q := Lollipop(2)
	// (A)(AB)(BC)(CD)(DE)(CE) — 1 sample atom + 2 path edges + 3 clique edges.
	if q.NumVars() != 5 || len(q.Atoms) != 6 {
		t.Fatalf("2-lollipop shape: %v", q)
	}
	if !strings.Contains(Format(q), "edge(c, e)") {
		t.Errorf("2-lollipop missing closing triangle edge: %s", Format(q))
	}
	q3 := Lollipop(3)
	// 1 sample + 3 path edges + 6 clique edges over 7 vars.
	if q3.NumVars() != 7 || len(q3.Atoms) != 10 {
		t.Fatalf("3-lollipop shape: %v", q3)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	for name, fn := range map[string]func(){
		"Clique(2)":   func() { Clique(2) },
		"Cycle(2)":    func() { Cycle(2) },
		"Path(0)":     func() { Path(0) },
		"Tree(3)":     func() { Tree(3) },
		"Lollipop(4)": func() { Lollipop(4) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestValidate(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Error("empty query should fail validation")
	}
	q := New("dup", Atom{Rel: "R", Vars: []string{"a", "a"}})
	if err := q.Validate(); err == nil {
		t.Error("repeated-variable atom should fail validation")
	}
	if err := Clique(3).Validate(); err != nil {
		t.Errorf("Clique(3) invalid: %v", err)
	}
}

func TestParseRuleHead(t *testing.T) {
	q, err := Parse("ignored", "rev(b, a) :- e(a, b).")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "rev" {
		t.Errorf("name = %q, want rev", q.Name)
	}
	if vars := q.Vars(); len(vars) != 2 || vars[0] != "b" || vars[1] != "a" {
		t.Errorf("vars = %v, want [b a]", vars)
	}
	if len(q.Atoms) != 1 || q.Atoms[0].Rel != "e" {
		t.Errorf("atoms = %v", q.Atoms)
	}
}

func TestParseRuleHeadErrors(t *testing.T) {
	if _, err := Parse("q", "out(a, z) :- e(a, b)"); !errors.Is(err, ErrUnboundHeadVar) {
		t.Errorf("unbound head var: %v, want ErrUnboundHeadVar", err)
	}
	q, err := Parse("q", "out(a) :- e(a, b)")
	if err != nil {
		t.Errorf("projection head should parse: %v", err)
	} else if !q.Projected() || q.Prefix() != 1 {
		t.Errorf("out(a) :- e(a, b): Projected=%v Prefix=%d, want true 1", q.Projected(), q.Prefix())
	}
	if _, err := Parse("q", "out(a, a) :- e(a, b)"); err == nil {
		t.Error("duplicate head variable should fail")
	}
	if _, err := Parse("q", "out(a, b) :- "); err == nil {
		t.Error("empty body should fail")
	}
	// ":-" after a later atom is trailing garbage, not a second head.
	if _, err := Parse("q", "e(a, b), out(a, b) :- e(b, a)"); err == nil {
		t.Error("mid-query rule arrow should fail")
	}
}

// mustParse is Parse that panics on error, for statically known queries.
func mustParse(name, src string) *Query {
	q, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return q
}
