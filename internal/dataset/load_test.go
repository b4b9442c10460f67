package dataset_test

import (
	"slices"
	"sort"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// TestLoadMatchesDB: the schema Load writes into a store through a Querier
// is DB's, relation by relation and tuple by tuple.
func TestLoadMatchesDB(t *testing.T) {
	g := dataset.Generate(dataset.HolmeKim, 300, 1200, 5)
	db := dataset.DB(g, 10, 42)
	st := repro.NewStore()
	if err := dataset.Load(repro.Local(st), g, 10, 42); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	sort.Strings(names)
	if got := st.Relations(); !slices.Equal(got, names) {
		t.Fatalf("store relations %v, DB relations %v", got, names)
	}
	for _, name := range names {
		want, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.DB().Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Arity() != want.Arity() || !slices.EqualFunc(got.Tuples(), want.Tuples(), slices.Equal) {
			t.Errorf("%s: store holds %d tuples of arity %d, DB %d of arity %d (or different tuples)",
				name, got.Len(), got.Arity(), want.Len(), want.Arity())
		}
	}
}
