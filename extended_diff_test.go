package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// extendedCase is one entry of the query-language corpus: the query text
// and, for the entries that pin one, a user-supplied attribute order.
type extendedCase struct {
	src string
	gao []string
}

func (c extendedCase) String() string {
	if c.gao == nil {
		return c.src
	}
	return fmt.Sprintf("%s under %v", c.src, c.gao)
}

// extendedCorpus is the query-language corpus: projection, in-atom
// constants, comparison predicates, aggregation, and combinations — the
// shapes the plain corpus in backend_diff_test.go cannot express.
func extendedCorpus() []extendedCase {
	var corpus []extendedCase
	for _, src := range []string{
		// Projection.
		"out(a) :- edge(a, b)",
		"mid(b) :- edge(a, b), edge(b, c)",
		"pair(a, c) :- edge(a, b), edge(b, c)",
		"rev(c, a) :- edge(a, b), edge(b, c)",
		// Projection whose join variables precede projected ones in the
		// GAO: buffered per key group, with and without an existence probe
		// below the deepest emitted level.
		"hop3(a, d) :- edge(a, b), edge(b, c), edge(c, d)",
		"out(a, c) :- edge(a, b), edge(b, c), edge(c, d)",
		// In-atom constants (desugared to placeholder equality bounds,
		// which lead the GAO).
		"edge(3, b)",
		"edge(a, 7), edge(7, b)",
		"edge(3, b), edge(b, c)",
		"edge(a, 3), edge(7, b)",
		"out(b) :- edge(a, b), a = 3",
		"out(c) :- edge(3, b), edge(b, c)",
		// Comparison predicates: bounds and residuals.
		"edge(a, b), a < b",
		"edge(a, b), a >= 10, b < 100",
		"edge(a, b), edge(b, c), a != c",
		"two(a, c) :- edge(a, b), edge(b, c), b >= 10, c < 100",
		// Aggregation.
		"deg(a, count(b)) :- edge(a, b)",
		"deg2(a, count(c)) :- edge(a, b), edge(b, c)",
		"stats(a, min(b), max(b), sum(b)) :- edge(a, b)",
		"total(count(a)) :- edge(a, b)",
		"agg(a, count(c)) :- edge(a, b), edge(b, c), a < 40",
		"both(count(a), count(c)) :- edge(a, b), edge(b, c)",
		// Everything at once.
		"hot(a, count(b)) :- edge(a, b), b > 20, a != 5",
		"sel(a) :- edge(a, b), edge(b, c), c >= 2, a < 200",
	} {
		corpus = append(corpus, extendedCase{src: src})
	}
	// User-supplied orders that do not lead with the head: every
	// permutation is a valid order, and the output contract holds under it.
	return append(corpus,
		extendedCase{"pair(a, c) :- edge(a, b), edge(b, c)", []string{"b", "a", "c"}},
		extendedCase{"rev(c, a) :- edge(a, b), edge(b, c)", []string{"a", "b", "c"}},
		extendedCase{"deg2(a, count(c)) :- edge(a, b), edge(b, c)", []string{"c", "b", "a"}},
		extendedCase{"edge(3, b), edge(b, c)", []string{"c", "b", "$1"}},
	)
}

// referenceEval evaluates an extended query by brute force: enumerate the
// plain natural join of the query's atoms with the oracle engine
// (naive.Engine, over the flat rows), post-filter every predicate,
// project with duplicate elimination, and aggregate over the distinct
// projected bindings — the semantics the engines' pushed-down execution must
// reproduce exactly.
func referenceEval(t *testing.T, s *Store, q *Query) [][]int64 {
	t.Helper()
	ctx := context.Background()
	plain := query.New("ref", q.Atoms...)
	pos := make(map[string]int, plain.NumVars())
	for i, v := range plain.Vars() {
		pos[v] = i
	}
	evalPred := func(row []int64, p query.Pred) bool {
		l := row[pos[p.Left]]
		r := p.Const
		if p.IsVar {
			r = row[pos[p.Right]]
		}
		switch p.Op {
		case query.OpEq:
			return l == r
		case query.OpNe:
			return l != r
		case query.OpLt:
			return l < r
		case query.OpLe:
			return l <= r
		case query.OpGt:
			return l > r
		case query.OpGe:
			return l >= r
		}
		t.Fatalf("unknown op %q", p.Op)
		return false
	}
	// Distinct bindings of the engine-level output prefix (output vars then
	// aggregated vars), in the extended query's own column order.
	prefixVars := q.Vars()[:q.Prefix()]
	seen := make(map[string]bool)
	var prefixRows [][]int64
	err := naive.Engine{}.Enumerate(ctx, plain, s.DB(), func(row []int64) bool {
		for _, p := range q.Preds {
			if !evalPred(row, p) {
				return true
			}
		}
		proj := make([]int64, len(prefixVars))
		for i, v := range prefixVars {
			proj[i] = row[pos[v]]
		}
		key := fmt.Sprint(proj)
		if !seen[key] {
			seen[key] = true
			prefixRows = append(prefixRows, proj)
		}
		return true
	})
	if err != nil {
		t.Fatalf("reference enumerate: %v", err)
	}
	if len(q.Aggs) == 0 {
		sortedRows(prefixRows)
		return prefixRows
	}
	// Aggregate over the distinct prefix bindings, grouped by the plain
	// output columns.
	qpos := make(map[string]int, q.Prefix())
	for i, v := range prefixVars {
		qpos[v] = i
	}
	keys := len(q.Out())
	groups := make(map[string][]int64) // key -> [keys..., accs...]
	var order []string
	for _, pr := range prefixRows {
		key := fmt.Sprint(pr[:keys])
		acc, ok := groups[key]
		if !ok {
			acc = append([]int64(nil), pr[:keys]...)
			for _, ag := range q.Aggs {
				v := pr[qpos[ag.Var]]
				if ag.Func == query.AggCount {
					v = 1
				}
				acc = append(acc, v)
			}
			groups[key] = acc
			order = append(order, key)
			continue
		}
		for i, ag := range q.Aggs {
			v := pr[qpos[ag.Var]]
			switch ag.Func {
			case query.AggCount:
				acc[keys+i]++
			case query.AggSum:
				acc[keys+i] += v
			case query.AggMin:
				acc[keys+i] = min(acc[keys+i], v)
			case query.AggMax:
				acc[keys+i] = max(acc[keys+i], v)
			}
		}
	}
	rows := make([][]int64, 0, len(order))
	for _, k := range order {
		rows = append(rows, groups[k])
	}
	sortedRows(rows)
	return rows
}

func collectRows(t *testing.T, p *Prepared) [][]int64 {
	t.Helper()
	var rows [][]int64
	if err := p.Enumerate(context.Background(), func(tuple []int64) bool {
		rows = append(rows, append([]int64(nil), tuple...))
		return true
	}); err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	return rows
}

func requireSameRows(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestExtendedDifferential runs the extended corpus under both trie-driven
// engines and requires identical counts and rows — checked against an
// independent brute-force reference (enumerate-then-filter-then-group), not
// just engine-vs-engine. The order contract is part of the wall: projected
// and aggregate rows must arrive ascending in head order, so only
// full-binding rows are sorted first.
//
// Each case and engine runs two subtests: csr checks the handle's own
// contract (count equals rows, row width, head order, and the same count on
// four workers), and flat checks its rows against the reference over the
// flat rows.
func TestExtendedDifferential(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 250, 900, 3), 1, 3)
	for _, c := range extendedCorpus() {
		q, err := s.ParseQuery("q", c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		want := referenceEval(t, s, q)
		for _, alg := range []Algorithm{LFTJ, MS} {
			p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1, GAO: c.gao})
			if err != nil {
				t.Fatalf("%s/%s prepare: %v", c, alg, err)
			}
			t.Run(fmt.Sprintf("%s/%s/csr", c, alg), func(t *testing.T) {
				n, err := p.Count(ctx)
				if err != nil {
					t.Fatalf("count: %v", err)
				}
				rows := collectRows(t, p)
				if int64(len(rows)) != n {
					t.Fatalf("count %d != enumerated %d", n, len(rows))
				}
				for i, r := range rows {
					if len(r) != q.OutWidth() {
						t.Fatalf("row width %d, want OutWidth %d", len(r), q.OutWidth())
					}
					if q.PrefixOrdered() && i > 0 && relation.CompareTuples(rows[i-1], r) >= 0 {
						t.Fatalf("row %d = %v after %v: not ascending in head order", i, r, rows[i-1])
					}
				}
				// Parallel counting splits on the leading attribute (or not
				// at all when that would split a row's duplicates).
				par, err := s.Prepare(q, Options{Algorithm: alg, Workers: 4, GAO: c.gao})
				if err != nil {
					t.Fatalf("prepare Workers=4: %v", err)
				}
				if pn, err := par.Count(ctx); err != nil || pn != n {
					t.Fatalf("Workers=4 count %d (%v), sequential %d", pn, err, n)
				}
			})
			t.Run(fmt.Sprintf("%s/%s/flat", c, alg), func(t *testing.T) {
				if n, err := p.Count(ctx); err != nil || n != int64(len(want)) {
					t.Fatalf("count %d (%v), reference %d", n, err, len(want))
				}
				rows := collectRows(t, p)
				if !q.PrefixOrdered() {
					sortedRows(rows)
				}
				requireSameRows(t, string(alg), rows, want)
			})
		}
	}
}

// TestExtendedDifferentialChurn re-runs a slice of the extended corpus after
// every step of a randomized 15-step Apply churn, across both engines,
// sequentially and on four workers, against the brute-force reference
// recomputed per step. The handles are prepared once, before the churn:
// every handle follows the writes through its overlay-advanced indexes.
func TestExtendedDifferentialChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewStore()
	if err := s.DefineRelation("edge", 2); err != nil {
		t.Fatal(err)
	}
	var init [][]int64
	for i := 0; i < 200; i++ {
		init = append(init, []int64{int64(rng.Intn(30)), int64(rng.Intn(30))})
	}
	if err := s.Load("edge", init); err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		"out(a) :- edge(a, b)",
		"edge(a, b), a < b",
		"edge(3, b)",
		"deg(a, count(b)) :- edge(a, b)",
		"hot(a, sum(b)) :- edge(a, b), b >= 5",
		"pair(a, c) :- edge(a, b), edge(b, c)",
		"edge(3, b), edge(b, c)",
		"deg2(a, count(c)) :- edge(a, b), edge(b, c)",
	}
	queries := make([]*Query, len(srcs))
	// handles[qi][alg][w] is query qi prepared for algs[alg] on workers[w].
	algs, workers := []Algorithm{LFTJ, MS}, []int{1, 4}
	handles := make([][][]*Prepared, len(srcs))
	for i, src := range srcs {
		q, err := s.ParseQuery(fmt.Sprintf("q%d", i), src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		queries[i] = q
		handles[i] = make([][]*Prepared, len(algs))
		for a, alg := range algs {
			for _, w := range workers {
				p, err := s.Prepare(q, Options{Algorithm: alg, Workers: w})
				if err != nil {
					t.Fatalf("%s/%s/Workers=%d prepare: %v", src, alg, w, err)
				}
				handles[i][a] = append(handles[i][a], p)
			}
		}
	}
	for step := 0; step < 15; step++ {
		var ins, del [][]int64
		for k := 0; k < 1+rng.Intn(5); k++ {
			tu := []int64{int64(rng.Intn(30)), int64(rng.Intn(30))}
			if rng.Intn(2) == 0 {
				ins = append(ins, tu)
			} else {
				del = append(del, tu)
			}
		}
		if err := s.Apply("edge", ins, del); err != nil {
			t.Fatalf("step %d apply: %v", step, err)
		}
		for qi, q := range queries {
			want := referenceEval(t, s, q)
			for a, alg := range algs {
				for w, p := range handles[qi][a] {
					label := fmt.Sprintf("step %d %s/%s/Workers=%d", step, srcs[qi], alg, workers[w])
					rows := collectRows(t, p)
					if !q.PrefixOrdered() {
						sortedRows(rows)
					}
					requireSameRows(t, label, rows, want)
					if n, err := p.Count(context.Background()); err != nil || n != int64(len(want)) {
						t.Fatalf("%s: count %d (%v), want %d", label, n, err, len(want))
					}
				}
			}
		}
	}
}

// TestExtendedTxnAndBatch runs aggregate and projected queries through the
// snapshot paths: ReadTxn executions and Batch requests must apply the same
// streaming aggregation as direct Prepared executions.
func TestExtendedTxnAndBatch(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 150, 600, 4), 1, 4)
	for _, src := range []string{"deg(a, count(b)) :- edge(a, b)", "out(a) :- edge(a, b), a < 100"} {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, p)
		wantN, err := p.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		txn := s.ReadTxn()
		n, err := txn.Count(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN {
			t.Errorf("%s: txn count %d, want %d", src, n, wantN)
		}
		var got [][]int64
		for row := range txn.Rows(ctx, p) {
			got = append(got, row)
		}
		requireSameRows(t, "txn rows "+src, got, want)
		res := s.Batch(ctx, []Request{{Prepared: p, Rows: true}, {Prepared: p}})
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: batch req %d: %v", src, i, r.Err)
			}
			if r.Count != wantN {
				t.Errorf("%s: batch req %d count %d, want %d", src, i, r.Count, wantN)
			}
		}
		requireSameRows(t, "batch rows "+src, res[0].Rows, want)
	}
}

// TestShardOnPinnedLeadingVariable covers the shard restriction when the
// planner leads the GAO with a variable pinned to a constant — a placeholder
// that is not an output column at all, or a hidden head-less variable: the
// part holding the constant has the whole result and every other part
// nothing, so the union over 3 parts (and over 7, more parts than the pinned
// bound leaves keys) is the unsharded stream, each row exactly once.
// Parallel counting splits on the same attribute and must agree with the
// sequential answer.
func TestShardOnPinnedLeadingVariable(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 250, 900, 3), 1, 3)
	partitions := map[string][]Shard{}
	for _, of := range []uint64{3, 7} {
		for i := uint64(0); i < of; i++ {
			name := fmt.Sprintf("of=%d", of)
			partitions[name] = append(partitions[name], Shard{Part: i, Of: of})
		}
	}
	for _, src := range []string{
		"edge(3, b), edge(b, c)",
		"out(b) :- edge(a, b), a = 3",
		"hot(b, count(c)) :- edge(3, b), edge(b, c)",
	} {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			whole, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s: prepare: %v", src, alg, err)
			}
			want := collectRows(t, whole)
			if len(want) == 0 {
				t.Fatalf("%s/%s: empty result makes the test vacuous", src, alg)
			}
			for name, shards := range partitions {
				var got [][]int64
				owners := 0
				for _, sh := range shards {
					p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1, Shard: &sh})
					if err != nil {
						t.Fatalf("%s/%s/%s: prepare shard %+v: %v", src, alg, name, sh, err)
					}
					rows := collectRows(t, p)
					n, err := p.Count(ctx)
					if err != nil {
						t.Fatalf("%s/%s/%s: count: %v", src, alg, name, err)
					}
					if n != int64(len(rows)) {
						t.Errorf("%s/%s/%s: shard %+v counts %d, streams %d rows", src, alg, name, sh, n, len(rows))
					}
					par, err := s.Prepare(q, Options{Algorithm: alg, Workers: 4, Shard: &sh})
					if err != nil {
						t.Fatal(err)
					}
					if np, err := par.Count(ctx); err != nil || np != n {
						t.Errorf("%s/%s/%s: shard %+v counts %d on 4 workers (%v), %d on 1", src, alg, name, sh, np, err, n)
					}
					if len(rows) > 0 {
						owners++
					}
					got = append(got, rows...)
				}
				if owners != 1 {
					t.Errorf("%s/%s/%s: %d shards hold rows, want exactly the part holding the constant", src, alg, name, owners)
				}
				requireSameRows(t, fmt.Sprintf("%s/%s/%s union", src, alg, name), got, want)
			}
			par, err := s.Prepare(q, Options{Algorithm: alg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			n, err := par.Count(ctx)
			if err != nil {
				t.Fatalf("%s/%s: parallel count: %v", src, alg, err)
			}
			if n != int64(len(want)) {
				t.Errorf("%s/%s: Workers=4 counts %d, sequential %d", src, alg, n, len(want))
			}
			requireSameRows(t, fmt.Sprintf("%s/%s Workers=4 rows", src, alg), collectRows(t, par), want)
		}
	}

	// A user order leading with a variable outside the output has no
	// attribute that partitions the rows: sharding it is refused, typed.
	q, err := s.ParseQuery("q", "pair(a, c) :- edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Prepare(q, Options{GAO: []string{"b", "a", "c"}, Shard: &Shard{Part: 0, Of: 2}})
	if !errors.Is(err, ErrUnsupportedQuery) {
		t.Errorf("shard on a hidden leading variable: error %v, want ErrUnsupportedQuery", err)
	}
	// Unsharded, the same order counts in parallel without splitting on it.
	p, err := s.Prepare(q, Options{GAO: []string{"b", "a", "c"}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceEval(t, s, q); n != int64(len(want)) {
		t.Errorf("Workers=4 under a hidden leading variable counts %d, want %d", n, len(want))
	}
}
