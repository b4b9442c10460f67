package client_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// TestExtendedRemoteDifferential is the local/remote leg of the extended
// differential wall: every query-language feature — projection heads, inline
// constants, comparison predicates, streaming aggregation — must produce the
// same count and the byte-identical row stream whether executed in-process
// or through graphjoind over the wire. The same engine runs on both sides,
// so the comparison is exact, order included.
func TestExtendedRemoteDifferential(t *testing.T) {
	ctx := context.Background()
	st := repro.NewStore()
	local := repro.Local(st)
	if err := dataset.Load(local, dataset.Generate(dataset.BarabasiAlbert, 60, 240, 11), 1, 11); err != nil {
		t.Fatal(err)
	}
	remote := dial(t, serve(t, st))

	srcs := []string{
		"edge(a, b), edge(b, c)",
		"out(a) :- edge(a, b), edge(b, c)",
		"out(c, a) :- edge(a, b), edge(b, c)",
		"edge(3, b), edge(b, c)",
		"edge(a, b), a < 10, b >= 2",
		"edge(a, b), edge(b, c), a != c",
		"deg(a, count(b)) :- edge(a, b)",
		"stats(a, sum(c), min(c), max(c)) :- edge(a, b), edge(b, c)",
		"total(count(a)) :- edge(a, b), a >= 5",
		"hot(b, count(c)) :- edge(2, b), edge(b, c)",
		"agg(a, count(c)) :- edge(a, b), edge(b, c), a < 40",
		"hop3(a, d) :- edge(a, b), edge(b, c), edge(c, d)",
		"out(a, c) :- edge(a, b), edge(b, c), edge(c, d)",
		"edge(a, 3), edge(7, b)",
		"both(count(a), count(c)) :- edge(a, b), edge(b, c)",
	}
	for _, src := range srcs {
		for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
			t.Run(fmt.Sprintf("%s/%s", src, alg), func(t *testing.T) {
				run := func(qr repro.Querier) (int64, [][]int64) {
					q, err := qr.ParseQuery("q", src)
					if err != nil {
						t.Fatalf("parse: %v", err)
					}
					p, err := qr.Prepare(q, repro.Options{Algorithm: alg, Workers: 1})
					if err != nil {
						t.Fatalf("prepare: %v", err)
					}
					defer p.Close()
					n, err := p.Count(ctx)
					if err != nil {
						t.Fatalf("count: %v", err)
					}
					var rows [][]int64
					err = p.Enumerate(ctx, func(row []int64) bool {
						rows = append(rows, append([]int64(nil), row...))
						return true
					})
					if err != nil {
						t.Fatalf("enumerate: %v", err)
					}
					return n, rows
				}
				ln, lrows := run(local)
				rn, rrows := run(remote)
				if ln != rn {
					t.Fatalf("count: local %d, remote %d", ln, rn)
				}
				if len(lrows) != len(rrows) {
					t.Fatalf("rows: local %d, remote %d", len(lrows), len(rrows))
				}
				for i := range lrows {
					if fmt.Sprint(lrows[i]) != fmt.Sprint(rrows[i]) {
						t.Fatalf("row %d: local %v, remote %v", i, lrows[i], rrows[i])
					}
				}
			})
		}
	}
}
