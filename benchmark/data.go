package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/dataset"
)

// The data set is the ca-GrQc stand-in exactly as internal/dataset's catalog
// defines it — model, sizes, and one seed for the generator and the samples —
// or a tiny graph under -quick. It does not change with -seed: like the
// paper's graphs it is fixed, so that allocations and rows per operation are
// properties of the code and repeat exactly. -seed drives the request
// streams: which pooled query an operation runs, the order of a mix, the
// tuples of a write batch.
const (
	dataSeed                                 = 107
	fullNodes, fullEdges, fullSelectivity    = 5242, 28980, 80
	quickNodes, quickEdges, quickSelectivity = 500, 2764, 10

	pointPool = 64 // pinned vertices K the point query is prepared for
	churnRing = 8  // client-owned vertices a durable_churn client cycles through
	churnSize = 64 // inserts (and deletes) per durable_churn batch
)

// inputs is the data the program under test is loaded with and the
// constants its queries are pinned to.
type inputs struct {
	nodes int
	// rels holds the five relations as Load-ready tuples: edge (symmetric),
	// fwd (u<v) and the samples v1..v3 (each vertex with probability 1/80,
	// the paper's small-set protocol).
	rels map[string][][]int64
	// pointKs is the pool of pinned vertices for the point query; missKs is
	// a disjoint pool never prepared by a workload, so preparing one is a
	// plan-cache miss; pinK pins pinned_projected.
	pointKs []int64
	missKs  []int64
	pinK    int64
}

var relationOrder = []struct {
	name  string
	arity int
}{{"edge", 2}, {"fwd", 2}, {"v1", 1}, {"v2", 1}, {"v3", 1}}

func generate(quick bool) *inputs {
	nodes, edges, sel := fullNodes, fullEdges, fullSelectivity
	if quick {
		nodes, edges, sel = quickNodes, quickEdges, quickSelectivity
	}
	g := dataset.Generate(dataset.HolmeKim, nodes, edges, dataSeed)
	in := &inputs{nodes: g.N, rels: make(map[string][][]int64, len(relationOrder))}
	edge := make([][]int64, 0, 2*len(g.Edges))
	fwd := make([][]int64, 0, len(g.Edges))
	for _, e := range g.Edges {
		edge = append(edge, []int64{e[0], e[1]}, []int64{e[1], e[0]})
		fwd = append(fwd, []int64{e[0], e[1]})
	}
	in.rels["edge"], in.rels["fwd"] = edge, fwd
	rng := rand.New(rand.NewSource(dataSeed))
	for _, name := range []string{"v1", "v2", "v3"} {
		var ts [][]int64
		for _, v := range g.Sample(rng, sel) {
			ts = append(ts, []int64{v})
		}
		in.rels[name] = ts
	}
	perm := rng.Perm(g.N)
	for _, v := range perm[:pointPool] {
		in.pointKs = append(in.pointKs, int64(v))
	}
	for _, v := range perm[pointPool : 2*pointPool] {
		in.missKs = append(in.missKs, int64(v))
	}
	in.pinK = int64(perm[2*pointPool])
	return in
}

// load defines and bulk-loads the five relations through the public write
// surface.
func (in *inputs) load(q repro.Querier) error {
	for _, r := range relationOrder {
		if err := q.DefineRelation(r.name, r.arity); err != nil {
			return err
		}
		if err := q.Load(r.name, in.rels[r.name]); err != nil {
			return err
		}
	}
	return nil
}

// queryDef is one named query of the benchmark: its Datalog text (part of
// the definition — a later change that rewrites the text measures another
// query) and the engine the workloads run it on.
type queryDef struct {
	name string
	text string // "" for comb2, which is repro.Comb()
	alg  repro.Algorithm
}

const (
	pointText                = "out(a,b,c) :- edge(a,b), edge(b,c), a = %d"
	pinnedProjectedText      = "edge(%d,b), edge(b,c)"
	churnReadText            = "out(a,b) :- edge(a,b), a = %d"
	edgeCardinalityText      = "edge(a,b)"
	range2hopLo, range2hopHi = 100, 110
)

func queryDefs(in *inputs) []queryDef {
	return []queryDef{
		{"triangle", "fwd(a,b), fwd(b,c), fwd(a,c)", repro.LFTJ},
		{"clique4", "fwd(a,b), fwd(a,c), fwd(a,d), fwd(b,c), fwd(b,d), fwd(c,d)", repro.LFTJ},
		{"path3", "v1(a), edge(a,b), edge(b,c), edge(c,d), v2(d)", repro.MS},
		{"comb2", "", repro.MS},
		{"groupby", "agg(a, count(c)) :- v1(a), edge(a,b), edge(b,c)", repro.LFTJ},
		{"pinned_projected", fmt.Sprintf(pinnedProjectedText, in.pinK), repro.LFTJ},
		{"range2hop", fmt.Sprintf("out(a,b,c) :- edge(a,b), edge(b,c), a >= %d, a < %d", range2hopLo, range2hopHi), repro.LFTJ},
	}
}

func (d queryDef) parse(q repro.Querier) (*repro.Query, error) {
	if d.text == "" {
		pq := repro.Comb()
		pq.Name = d.name
		return pq, nil
	}
	return parseNamed(q, d.name, d.text)
}

// parseNamed parses text and names the query name. A rule's head would name
// it otherwise ("out", "agg"); the benchmark's names are what spans, on both
// sides of the wire, are labelled with.
func parseNamed(q repro.Querier, name, text string) (*repro.Query, error) {
	pq, err := q.ParseQuery(name, text)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	pq.Name = name
	return pq, nil
}

// options is the execution configuration every workload uses: sequential
// engines, so one operation costs one core and the client count alone sets
// the load.
func options(alg repro.Algorithm) repro.Options {
	return repro.Options{Algorithm: alg, Workers: 1}
}

func otherEngine(alg repro.Algorithm) repro.Algorithm {
	if alg == repro.LFTJ {
		return repro.MS
	}
	return repro.LFTJ
}

// answer is what one execution must produce: the cardinality, and for row
// streams a digest of the rows in stream order.
type answer struct {
	count  int64
	digest uint64
}

// rowDigest folds a row stream into an order-sensitive digest (ordered) and
// an order-insensitive one (bag), so a stream can be compared in order
// against the same engine and as a multiset against the other engine.
type rowDigest struct {
	n       int64
	ordered uint64
	bag     uint64
}

// add hashes the row with FNV-1a, inline so that checking a stream allocates
// nothing per row.
func (d *rowDigest) add(row []int64) {
	const offset, prime = 14695981039346656037, 1099511628211
	s := uint64(offset)
	for _, v := range row {
		for i := 0; i < 64; i += 8 {
			s = (s ^ uint64(byte(v>>i))) * prime
		}
	}
	d.n++
	d.ordered = d.ordered*prime + s
	d.bag += s
}

func (d *rowDigest) answer() answer { return answer{count: d.n, digest: d.ordered} }

// expected holds the verified answers of every named query and of every
// pooled point query on the generated data.
type expected struct {
	byQuery map[string]answer
	point   []answer
}

// computeExpected runs every query on an embedded store twice: on the engine
// the workloads use, which fixes the count and the in-order stream digest,
// and on the other engine, whose count and row multiset must agree. The
// served and routed deployments are then checked against these.
func computeExpected(ctx context.Context, in *inputs) (*expected, error) {
	st := repro.NewStore()
	local := repro.Local(st)
	if err := in.load(local); err != nil {
		return nil, err
	}
	exp := &expected{byQuery: make(map[string]answer)}
	check := func(name string, q *repro.Query, alg repro.Algorithm) (answer, error) {
		own, err := digestOf(ctx, local, q, alg)
		if err != nil {
			return answer{}, fmt.Errorf("%s [%s]: %w", name, alg, err)
		}
		other, err := digestOf(ctx, local, q, otherEngine(alg))
		if err != nil {
			return answer{}, fmt.Errorf("%s [%s]: %w", name, otherEngine(alg), err)
		}
		if own.n != other.n || own.bag != other.bag {
			return answer{}, fmt.Errorf("%s: %s gives %d rows, %s gives %d (or different rows)",
				name, alg, own.n, otherEngine(alg), other.n)
		}
		return own.answer(), nil
	}
	for _, d := range queryDefs(in) {
		q, err := d.parse(local)
		if err != nil {
			return nil, err
		}
		if exp.byQuery[d.name], err = check(d.name, q, d.alg); err != nil {
			return nil, err
		}
	}
	for _, k := range in.pointKs {
		q, err := parseNamed(local, "point", fmt.Sprintf(pointText, k))
		if err != nil {
			return nil, err
		}
		a, err := check(q.String(), q, repro.LFTJ)
		if err != nil {
			return nil, err
		}
		exp.point = append(exp.point, a)
	}
	return exp, nil
}

// digestOf drains the query's row stream on one engine. The count an
// operation's Count must give is the stream's length.
func digestOf(ctx context.Context, qr repro.Querier, q *repro.Query, alg repro.Algorithm) (rowDigest, error) {
	var d rowDigest
	p, err := qr.Prepare(q, options(alg))
	if err != nil {
		return d, err
	}
	defer p.Close()
	err = p.Enumerate(ctx, func(row []int64) bool { d.add(row); return true })
	return d, err
}
