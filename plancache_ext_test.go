package repro

import (
	"testing"

	"repro/internal/dataset"
)

// TestExtendedPlanCacheDimensions pins the new plan-cache key dimensions:
// queries sharing one body but differing in projection head, predicate,
// predicate constant, or aggregate function must compile to distinct cached
// plans, and re-preparing any of them must hit its own entry.
func TestExtendedPlanCacheDimensions(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.ErdosRenyi, 100, 300, 2), 1, 2)
	srcs := []string{
		"edge(a, b)",
		"out(a) :- edge(a, b)",
		"out(b) :- edge(a, b)",
		"edge(a, b), a < 5",
		"edge(a, b), a < 6",
		"edge(a, b), a <= 5",
		"edge(a, b), a != 5",
		"deg(a, count(b)) :- edge(a, b)",
		"deg(a, sum(b)) :- edge(a, b)",
		"edge(3, b)",
		"edge(4, b)",
	}
	queries := make([]*Query, len(srcs))
	before := s.DB().CachedPlanCount()
	for i, src := range srcs {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		queries[i] = q
		if _, err := s.Prepare(q, Options{Algorithm: LFTJ}); err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
	}
	if got := s.DB().CachedPlanCount() - before; got != len(srcs) {
		t.Fatalf("%d distinct query shapes cached %d plans — the key fails to distinguish projection/predicate/aggregate dimensions", len(srcs), got)
	}
	for i, q := range queries {
		p, err := s.Prepare(q, Options{Algorithm: LFTJ})
		if err != nil {
			t.Fatalf("re-prepare %q: %v", srcs[i], err)
		}
		if st := p.Stats(); st.PlanCacheHits != 1 {
			t.Errorf("re-prepare %q: PlanCacheHits = %d, want 1", srcs[i], st.PlanCacheHits)
		}
	}
}

// TestExtendedPlanCacheInvalidation is the invalidation regression test:
// replacing a relation an extended query's cached plan reads must drop the
// entry, and the re-prepared plan must see the new data.
func TestExtendedPlanCacheInvalidation(t *testing.T) {
	s := NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("e", [][]int64{{1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	q, err := s.ParseQuery("deg", "deg(a, count(b)) :- e(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Prepare(q, Options{Algorithm: LFTJ})
	if err != nil {
		t.Fatal(err)
	}
	if st := p1.Stats(); st.PlanCacheMisses != 1 || st.PlanCacheHits != 0 {
		t.Fatalf("first prepare: hits=%d misses=%d, want 0/1", st.PlanCacheHits, st.PlanCacheMisses)
	}
	// Bulk-replace the relation: the cached plan reads it and must drop.
	if err := s.Load("e", [][]int64{{5, 6}, {5, 7}, {8, 9}}); err != nil {
		t.Fatal(err)
	}
	p2, err := s.Prepare(q, Options{Algorithm: LFTJ})
	if err != nil {
		t.Fatal(err)
	}
	if st := p2.Stats(); st.PlanCacheMisses != 1 || st.PlanCacheHits != 0 {
		t.Errorf("post-replace prepare: hits=%d misses=%d, want a fresh compile (0/1)", st.PlanCacheHits, st.PlanCacheMisses)
	}
	rows := collectRows(t, p2)
	sortedRows(rows)
	requireSameRows(t, "post-replace aggregate", rows, [][]int64{{5, 2}, {8, 1}})
}
