package repro

import (
	"context"
	"fmt"
	"testing"
)

// TestShardCutFromLogicalContents pins the invariant the router relies on:
// two stores holding the same relation cut the same parts, even when one was
// loaded fresh and the other reached the contents through Apply batches and
// still carries them in its overlay log. Every (Part, Of) yields identical
// rows on both, the parts concatenate into the unsharded stream, and a
// sharded Workers: 4 count equals the part's Workers: 1 count.
func TestShardCutFromLogicalContents(t *testing.T) {
	ctx := context.Background()
	var edges, extra [][]int64
	for a := int64(0); a < 60; a++ {
		for _, d := range []int64{1, 3, 7} {
			edges = append(edges, []int64{a, (a*d + 11) % 60})
		}
	}
	// The applied store starts without keys 10-13 and 40 and with keys 70-74
	// it must delete, so its base trie's level 0 differs from the logical one.
	var base, inserts [][]int64
	for _, e := range edges {
		if (e[0] >= 10 && e[0] < 14) || e[0] == 40 {
			inserts = append(inserts, e)
		} else {
			base = append(base, e)
		}
	}
	for a := int64(70); a < 75; a++ {
		extra = append(extra, []int64{a, a % 60})
	}
	build := func(tuples [][]int64) *Store {
		s := NewStore()
		if err := s.DefineRelation("edge", 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Load("edge", tuples); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fresh := build(edges)
	applied := build(append(base, extra...))

	srcs := []string{
		"edge(a, b), edge(b, c)",
		"out(a, c) :- edge(a, b), edge(b, c)",
		"deg(a, count(b)) :- edge(a, b)",
		"total(count(b)) :- edge(a, b), edge(b, c)",
		"edge(a, b), edge(b, c), a >= 20, a < 23",
	}
	// Prepare before the writes, so the writes land in the bound indexes'
	// overlay logs instead of in freshly built tries.
	for _, src := range srcs {
		q, err := applied.ParseQuery("q", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := applied.Prepare(q, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := applied.Apply("edge", inserts[:len(inserts)/2], extra); err != nil {
		t.Fatal(err)
	}
	if err := applied.Apply("edge", inserts[len(inserts)/2:], nil); err != nil {
		t.Fatal(err)
	}
	if applied.OverlayDepth() == 0 {
		t.Fatal("the applied store compacted its log: the test needs a pending overlay")
	}

	for _, src := range srcs {
		q, err := fresh.ParseQuery("q", src)
		if err != nil {
			t.Fatal(err)
		}
		// A global aggregate's parts each emit a partial, to be folded.
		partials := len(q.Out()) == 0 && len(q.Aggs) > 0
		for _, alg := range []Algorithm{LFTJ, MS} {
			whole, err := fresh.Prepare(q, Options{Algorithm: alg, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := collectRows(t, whole)
			for _, of := range []uint64{1, 2, 3, 7} {
				name := fmt.Sprintf("%s/%s/of=%d", src, alg, of)
				var union [][]int64
				var sum int64
				empty := 0
				for part := uint64(0); part < of; part++ {
					var rows [2][][]int64
					for i, s := range []*Store{fresh, applied} {
						opts := Options{Algorithm: alg, Workers: 1, Shard: &Shard{Part: part, Of: of}}
						p, err := s.Prepare(q, opts)
						if err != nil {
							t.Fatalf("%s: part %d: %v", name, part, err)
						}
						rows[i] = collectRows(t, p)
						opts.Workers = 4
						par, err := s.Prepare(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						n, err := par.Count(ctx)
						if err != nil {
							t.Fatalf("%s: part %d: Workers=4 count: %v", name, part, err)
						}
						if n != int64(len(rows[i])) {
							t.Errorf("%s: part %d: Workers=4 counts %d, Workers=1 streams %d", name, part, n, len(rows[i]))
						}
					}
					requireSameRows(t, fmt.Sprintf("%s: part %d fresh vs applied", name, part), rows[1], rows[0])
					if len(rows[0]) == 0 {
						empty++
					}
					sum += int64(len(rows[0]))
					union = append(union, rows[0]...)
				}
				if partials {
					continue
				}
				if sum != int64(len(want)) {
					t.Errorf("%s: parts hold %d rows, whole %d", name, sum, len(want))
				}
				requireSameRows(t, name+": parts in order", union, want)
				// Three level-0 keys admit at most three non-empty parts.
				if src == srcs[len(srcs)-1] && of == 7 && empty < 4 {
					t.Errorf("%s: %d empty parts, want at least 4", name, empty)
				}
			}
		}
	}
}

// TestShardWorkIsSplitNotRepeated is the counted work check on the
// benchmark's data shape (Holme–Kim, 5 242 nodes, 28 980 edges, seed 107):
// three parts of the triangle over fwd do, between them, the seeks of one
// unsharded run — each part walks only its own range of the leading
// attribute — and their counts sum to the unsharded count.
func TestShardWorkIsSplitNotRepeated(t *testing.T) {
	ctx := context.Background()
	s := GenerateGraph(HolmeKim, 5242, 28980, 107).Store()
	q, err := s.ParseQuery("triangle", "fwd(a,b), fwd(b,c), fwd(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sh *Shard) (int64, int64) {
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1, Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return n, p.Stats().Seeks
	}
	want, wholeSeeks := run(nil)
	var count, seeks int64
	for part := uint64(0); part < 3; part++ {
		n, k := run(&Shard{Part: part, Of: 3})
		count += n
		seeks += k
	}
	if count != want {
		t.Errorf("parts count %d triangles, whole %d", count, want)
	}
	if float64(seeks) > 1.01*float64(wholeSeeks) {
		t.Errorf("parts seek %d times, whole %d: %.2fx, want <= 1.01x", seeks, wholeSeeks, float64(seeks)/float64(wholeSeeks))
	}
}
