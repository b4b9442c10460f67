package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func TestDBAddAndLookup(t *testing.T) {
	db := NewDB()
	r := relation.FromTuples("R", 2, [][]int64{{1, 2}, {3, 4}})
	db.Add(r)
	got, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples(), r.Tuples()) {
		t.Errorf("lookup returned %v, want %v", got.Tuples(), r.Tuples())
	}
	if _, err := db.Relation("S"); err == nil {
		t.Error("missing relation should error")
	}
	names := db.Names()
	if len(names) != 1 || names[0] != "R" {
		t.Errorf("Names = %v", names)
	}
}

func TestIndexCaching(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("R", 2, [][]int64{{1, 2}, {3, 4}}))
	a, err := db.TrieIndex("R", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.TrieIndex("R", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("index not cached")
	}
	if got := db.Pin().Overlay(a).Flat().Tuple(0); !reflect.DeepEqual(got, []int64{2, 1}) {
		t.Errorf("permuted index tuple = %v", got)
	}
	// Replacing the relation invalidates its cached indexes.
	db.Add(relation.FromTuples("R", 2, [][]int64{{9, 9}}))
	c, err := db.TrieIndex("R", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("stale index survived relation replacement")
	}
	if _, err := db.TrieIndex("missing", []int{0}); err == nil {
		t.Error("indexing a missing relation should error")
	}
}

func TestBindAtoms(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}, {2, 3}}))
	q := query.New("q",
		query.Atom{Rel: "edge", Vars: []string{"a", "b"}},
		query.Atom{Rel: "edge", Vars: []string{"b", "c"}},
	)
	// GAO c,b,a: the first atom's index order must become (b,a), the
	// second's (c,b) -> wait: positions c=0,b=1,a=2, so atom1 (a,b) sorts to
	// (b,a) and atom2 (b,c) sorts to (c,b).
	atoms, err := BindAtoms(q, db, []string{"c", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(atoms[0].VarPos, []int{1, 2}) {
		t.Errorf("atom0 VarPos = %v, want [1 2]", atoms[0].VarPos)
	}
	if !reflect.DeepEqual(atoms[1].VarPos, []int{0, 1}) {
		t.Errorf("atom1 VarPos = %v, want [0 1]", atoms[1].VarPos)
	}
	// atom0's index is edge permuted to (b,a): sorted tuples (2,1),(3,2).
	if got := collect(t, db.Pin().Overlay(atoms[0].Index)); !reflect.DeepEqual(got[0], []int64{2, 1}) {
		t.Errorf("atom0 index tuple = %v", got[0])
	}
	// A GAO missing a variable fails.
	if _, err := BindAtoms(q, db, []string{"a", "b"}); err == nil {
		t.Error("short GAO should fail")
	}
}

// TestBindArityMismatch: an atom wider or narrower than its relation fails
// to bind with ErrArityMismatch, through every entry point, and binds only
// the canonical index Add built.
func TestBindArityMismatch(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}, {2, 3}}))
	wide := query.New("wide", query.Atom{Rel: "edge", Vars: []string{"a", "b", "c"}})
	if _, err := NewPlan(wide, db, "lftj", []string{"a", "b", "c"}, nil, false, "", nil); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("NewPlan over a 3-variable atom of a 2-ary relation: %v, want ErrArityMismatch", err)
	}
	narrow := query.New("narrow", query.Atom{Rel: "edge", Vars: []string{"a"}})
	if _, err := BindAtoms(narrow, db, []string{"a"}); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("BindAtoms over a 1-variable atom of a 2-ary relation: %v, want ErrArityMismatch", err)
	}
	if _, err := db.TrieIndex("edge", []int{0, 1, 2}); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("TrieIndex with a 3-column order: %v, want ErrArityMismatch", err)
	}
	if len(db.tries) != 1 || len(db.Pin().ovs) != 1 {
		t.Errorf("a failed bind left %d cached indexes behind, want the canonical one", len(db.tries))
	}
}

// TestOneCopyOfEveryRelation: the database stores each relation once, as
// trie indexes. After a load of two relations, plans over the identity and
// the swapped attribute order of each, a write to one, a compaction and a
// flat-view request, nothing reachable from the database — its maps, cached
// plans and published generation — is a flat relation except an overlay's
// small logs.
func TestOneCopyOfEveryRelation(t *testing.T) {
	db := NewDB()
	var tuples [][]int64
	for i := int64(0); i < 40; i++ {
		tuples = append(tuples, []int64{i, (i * 7) % 40})
	}
	db.Add(relation.FromTuples("edge", 2, tuples))
	db.Add(relation.FromTuples("fwd", 2, tuples[:10]))
	for _, rel := range []string{"edge", "fwd"} {
		for _, gao := range [][]string{{"a", "b"}, {"b", "a"}} {
			q := query.New("q", query.Atom{Rel: rel, Vars: []string{"a", "b"}})
			p, err := NewPlan(q, db, "lftj", gao, nil, false, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			key := rel + "|" + gao[0]
			_, version, _ := db.CachedPlan(key)
			db.StorePlan(key, p, version)
		}
	}
	if err := db.ApplyDelta("edge", [][]int64{{50, 1}}, [][]int64{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	compactions := relation.OverlayCompactions()
	var batch [][]int64
	for i := int64(0); i < 20; i++ {
		batch = append(batch, []int64{100 + i, i})
	}
	if err := db.ApplyDelta("edge", batch, nil); err != nil {
		t.Fatal(err)
	}
	if relation.OverlayCompactions() == compactions {
		t.Fatal("the batch compacted no overlay")
	}
	if r, _ := db.Relation("edge"); r.Len() != 60 {
		t.Fatalf("flat view holds %d tuples, want 60", r.Len())
	}
	seen := map[uintptr]bool{}
	for root, v := range map[string]any{"db": db, "generation": db.Pin()} {
		for _, path := range flatCopies(reflect.ValueOf(v), root, seen) {
			t.Errorf("the database keeps a flat relation at %s", path)
		}
	}
}

var flatType = reflect.TypeOf((*relation.Relation)(nil))

// flatCopies walks v (slices up to their capacity, maps by key and value)
// and returns the path of every non-nil *relation.Relation it reaches
// outside an overlay's adds and dels logs.
func flatCopies(v reflect.Value, path string, seen map[uintptr]bool) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		if v.Type() == flatType {
			if strings.HasSuffix(path, ".adds") || strings.HasSuffix(path, ".dels") {
				return nil
			}
			return []string{path}
		}
		if seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		return flatCopies(v.Elem(), path, seen)
	case reflect.Interface:
		if !v.IsNil() {
			return flatCopies(v.Elem(), path, seen)
		}
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, flatCopies(v.Field(i), path+"."+v.Type().Field(i).Name, seen)...)
		}
		return out
	case reflect.Slice:
		var out []string
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			out = append(out, flatCopies(full.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
		return out
	case reflect.Array:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, flatCopies(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
		return out
	case reflect.Map:
		var out []string
		for i, it := 0, v.MapRange(); it.Next(); i++ {
			key := fmt.Sprintf("%s[#%d]", path, i)
			if it.Key().Kind() == reflect.String {
				key = fmt.Sprintf("%s[%s]", path, it.Key())
			}
			out = append(out, flatCopies(it.Key(), key+".key", seen)...)
			out = append(out, flatCopies(it.Value(), key, seen)...)
		}
		return out
	}
	return nil
}

func TestTicker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tick := NewTicker(ctx)
	for i := 0; i < CheckEvery-1; i++ {
		if err := tick.Tick(); err != nil {
			t.Fatalf("unexpected early error: %v", err)
		}
	}
	cancel()
	var got error
	for i := 0; i < CheckEvery+1; i++ {
		if err := tick.Tick(); err != nil {
			got = err
			break
		}
	}
	if got == nil {
		t.Error("ticker never surfaced the cancellation")
	}
}
