package minesweeper

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/relation"
)

// Options toggle the paper's implementation ideas; every idea defaults to
// enabled so the ablation benchmarks (Tables 1–3) switch them off.
type Options struct {
	// DisableMemo turns off Idea 4 (avoid repeated seekGap calls).
	DisableMemo bool
	// DisableSkeleton turns off Idea 7; β-cyclic queries then insert gap
	// constraints from every atom and the CDS falls back to cache-free
	// fixpoint iteration wherever chains break. It shapes the plan
	// (engine.Compile hands it to Skeleton); Run ignores it.
	DisableSkeleton bool
	// DisableCountMemo turns off the #Minesweeper-style count mode (Idea 8;
	// see ARCHITECTURE.md, "Count-memo soundness"): the subtree reuse and
	// the leaf messages, which count the last attribute below a verified
	// prefix as one intersection instead of one free tuple per value.
	DisableCountMemo bool
}

// exec is one execution frame: the run's parameters plus every piece of
// state the run mutates — the CDS arena, the probe memos and their points,
// the scratch tuples, the count memo — in flat buffers. Frames live in a
// sync.Pool: a run takes one, resets it (lengths to zero, frontier and
// fingers re-seeded, capacity kept) and gives it back, so steady-state
// executions allocate nothing, every concurrent execution and every §4.10
// worker has its own, and an idle frame is the garbage collector's to drop —
// all but the one most recently released, which hotFrame keeps.
type exec struct {
	n     int
	atoms []core.AtomIndex
	// ovs[i] is atom i's index in the generation the run pinned.
	ovs    []*relation.Overlay
	inSkel []bool
	cds    CDS
	probes []probeMemo
	// points backs every probes[i].point, scratch the projection under test.
	points  []int64
	scratch []int64
	tick    core.Ticker
	emit    func([]int64) bool
	emitPos []int // GAO position of each emitted column
	last    int   // deepest column a row reads; the subtree below it is skipped
	out     []int64
	// adv and cand hold the best and the current Idea 7 frontier advance.
	adv, cand []int64
	counter   counter
	counting  bool // count-mode subtree reuse (Idea 8) is on for this run
	// leaf holds the leaf atoms, those whose last GAO position is n-1, when
	// this count run sends leaf messages (leafShape), and is empty when it
	// does not; lists is leafMessage's scratch.
	leaf   []int
	lists  [maxLeaf][]int64
	noMemo bool // Options.DisableMemo
	push   *core.Pushdown
	total  int64
	stats  core.Stats // this run's counters (the Minesweeper block)
	// sink restores the output order when the GAO does not provide it
	// (push.Buffered()).
	sink core.GroupSink
}

var frames = sync.Pool{New: func() any { return new(exec) }}

// hotFrame holds the most recently released frame by a strong reference. A
// sync.Pool alone loses a frame parked in another P's private slot, and
// empties within two collections: a steady stream of executions would then
// re-grow its frame (0.7 MiB on the benchmark's path3) whenever scheduling
// and GC cadence lined up, which made bytes allocated per operation depend
// on the heap size. One frame — at most maxPooledFrame bytes — stays
// reachable for the life of the process; every further concurrent frame is
// still the pool's, and the collector's.
var hotFrame atomic.Pointer[exec]

func takeFrame() *exec {
	if ex := hotFrame.Swap(nil); ex != nil {
		return ex
	}
	return frames.Get().(*exec)
}

// maxPooledFrame bounds the bytes a pooled frame may keep: a run that grew
// its slabs past it (a huge certificate) returns them to the collector
// instead of pinning them for the next, probably smaller, run.
const maxPooledFrame = 16 << 20

// reset prepares the frame for a run of plan on gen.
func (ex *exec) reset(ctx context.Context, plan *core.Plan, gen *core.Generation, emit func([]int64) bool, opts Options) {
	n, atoms, push := len(plan.GAO), plan.Atoms, plan.Push
	ex.n, ex.atoms, ex.inSkel, ex.push, ex.emit, ex.noMemo = n, atoms, plan.InSkel, push, emit, opts.DisableMemo
	ex.total, ex.stats = 0, core.Stats{}
	ex.emitPos, ex.last = core.EmitPositions(ex.emitPos[:0], plan.Query, plan.GAO, push), push.EmitDepth(n)-1
	if push.Buffered() {
		ex.sink.Reset(push, emit)
	}
	ex.tick = *core.NewTicker(ctx)
	ex.cds.reset(n)
	ex.cds.tick = &ex.tick

	arity, maxArity := 0, 0
	ex.ovs = ex.ovs[:0]
	for _, a := range atoms {
		arity += len(a.VarPos)
		maxArity = max(maxArity, len(a.VarPos))
		ex.ovs = append(ex.ovs, gen.Overlay(a.Index))
	}
	ex.points, ex.scratch = zeroed(ex.points, arity), zeroed(ex.scratch, maxArity)
	// Grow probes in place, so each memo keeps its finger's storage.
	if have := cap(ex.probes); have < len(atoms) {
		ex.probes = append(ex.probes[:have], make([]probeMemo, len(atoms)-have)...)
	}
	ex.probes = ex.probes[:len(atoms)]
	off := 0
	for i, a := range atoms {
		k := len(a.VarPos)
		pm := &ex.probes[i]
		*pm = probeMemo{point: ex.points[off : off+k : off+k], finger: pm.finger}
		pm.finger.Reset()
		off += k
	}
	ex.adv, ex.cand, ex.out = zeroed(ex.adv, n), zeroed(ex.cand, n), zeroed(ex.out, n)
	// The count-mode subtree reuse assumes plain full-binding semantics;
	// residual predicates and projection dedup both break its memo, so
	// extended queries always take the exact path.
	ex.counting = emit == nil && push == nil && !opts.DisableCountMemo
	ex.leaf = ex.leaf[:0]
	if ex.counting {
		ex.counter.reset(ex)
		ex.leafShape()
	}
}

// maxLeaf bounds the leaf atoms a leaf message intersects.
const maxLeaf = 8

// leafShape fills ex.leaf with the leaf atoms when leaf messages apply to
// this count run: n >= 2, every atom in the skeleton and free of repeated
// variables, and at most maxLeaf leaf atoms, each over a pristine overlay
// (LeafRange reads the base trie). Otherwise ex.leaf stays empty and every
// last-attribute value is its own free tuple.
func (ex *exec) leafShape() {
	if ex.n < 2 {
		return
	}
	for i, a := range ex.atoms {
		vp := a.VarPos
		leaf := vp[len(vp)-1] == ex.n-1
		if !ex.inSkel[i] || repeats(vp) || leaf && (len(ex.leaf) == maxLeaf || ex.ovs[i].LogLen() != 0) {
			ex.leaf = ex.leaf[:0]
			return
		}
		if leaf {
			ex.leaf = append(ex.leaf, i)
		}
	}
}

// repeats reports whether an atom's ascending GAO positions name one
// position twice.
func repeats(varPos []int) bool {
	for k := 1; k < len(varPos); k++ {
		if varPos[k] == varPos[k-1] {
			return true
		}
	}
	return false
}

// zeroed returns buf resized to n zeros, reusing its storage when it can.
func zeroed(buf []int64, n int) []int64 {
	return append(buf[:0], make([]int64, n)...)
}

// release drops the run's references and returns the frame to the pool
// unless it outgrew maxPooledFrame.
func (ex *exec) release() {
	ex.atoms, ex.inSkel, ex.push, ex.emit = nil, nil, nil, nil
	clear(ex.ovs)
	clear(ex.lists[:]) // they are slices of the generation's tries
	for i := range ex.probes {
		ex.probes[i].finger.Reset() // it names a trie of the run's generation
	}
	ex.sink.Release()
	ex.tick = core.Ticker{}
	if ex.cds.retained()+ex.counter.retained() > maxPooledFrame {
		return
	}
	if !hotFrame.CompareAndSwap(nil, ex) {
		frames.Put(ex)
	}
}

// Run executes a compiled plan over the first-variable values in r, on
// generation gen, and adds the run's counters to sc (which may be nil). The
// whole run reads gen, so a concurrent write can never mix two database
// states between probes (the CDS would otherwise accumulate gaps from
// different states). Each row goes to emit, which returns false to stop; a
// nil emit only counts, with #Minesweeper-style subtree reuse unless
// opts.DisableCountMemo. Run returns the number of rows.
func Run(ctx context.Context, plan *core.Plan, gen *core.Generation, opts Options, r core.Range, sc *core.StatsCollector, emit func([]int64) bool) (int64, error) {
	push := plan.Push
	ex := takeFrame()
	defer ex.release()
	ex.reset(ctx, plan, gen, emit, opts)
	if r.Lo > -1 {
		copy(ex.adv, ex.cds.Frontier())
		ex.adv[0] = r.Lo
		ex.cds.SetFrontier(ex.adv)
	}
	if r.Hi < posInf {
		ex.cds.InsConstraint(Constraint{Col: 0, Lo: r.Hi - 1, Hi: posInf})
	}
	if push != nil {
		// Seed the CDS with the compiled seek bounds: a lower bound lo at
		// column c covers [-1, lo-1], an upper bound hi covers [hi, +inf).
		// ComputeFreeTuple then never proposes a value outside [lo, hi), so
		// the gap probes start inside the admissible band — the Minesweeper
		// form of cursor pushdown.
		for c, b := range push.Bounds {
			if b.Lo > 0 {
				ex.cds.InsConstraint(Constraint{Col: c, Lo: -2, Hi: b.Lo})
			}
			if b.Hi < posInf {
				ex.cds.InsConstraint(Constraint{Col: c, Lo: b.Hi - 1, Hi: posInf})
			}
		}
	}
	err := ex.loop()
	ex.stats.FreeTupleSteps = int64(ex.cds.Steps())
	ex.stats.Outputs = ex.total
	sc.Add(ex.stats)
	if err != nil {
		return 0, err
	}
	return ex.total, nil
}

// Skeleton picks the atoms whose gaps become CDS constraints under gao
// (§4.8, §4.9), the compilation half of the engine. All atoms stay in the
// skeleton when the query is β-acyclic anyway (betaCyclic false; Table 4
// runs non-NEO orders through the cache-free fallback), when the order
// satisfies the chain condition, or when disable (Idea 7 off); otherwise a
// greedy chain-valid subset is used.
func Skeleton(q *query.Query, gao []string, betaCyclic, disable bool) []bool {
	inSkel := make([]bool, len(q.Atoms))
	if disable || !betaCyclic || hypergraph.IsChainGAO(gao, q.Atoms) {
		for i := range inSkel {
			inSkel[i] = true
		}
		return inSkel
	}
	var kept []query.Atom
	for i, a := range q.Atoms {
		trial := append(append([]query.Atom(nil), kept...), a)
		if hypergraph.IsChainGAO(gao, trial) {
			kept = trial
			inSkel[i] = true
		}
	}
	return inSkel
}

// loop is Minesweeper's outer algorithm (Algorithm 3) with Ideas 2, 4, 7 and
// the count-mode reuse wired in. With leaf messages on, a gap on the last
// column inserts nothing: when every gap lies there the prefix t[0..n-2] is
// verified and counted whole (leafMessage), and when some gap lies before
// it, that gap's constraint already rules the prefix out.
func (ex *exec) loop() error {
	lastCol := -1 // the GAO position whose gaps insert nothing, if any
	if len(ex.leaf) > 0 {
		lastCol = ex.n - 1
	}
	for ex.cds.ComputeFreeTuple() {
		if err := ex.tick.Tick(); err != nil {
			return err
		}
		t := ex.cds.Frontier()
		if ex.counting && ex.counter.visit(t) {
			continue
		}
		gapFound := false
		advanced := false // ex.adv holds an Idea 7 advance for this tuple
		done := false
		for i := range ex.atoms {
			gap, found := ex.probeAtom(i, t)
			if found || ex.atoms[i].VarPos[gap.Col] == lastCol {
				continue
			}
			gapFound = true
			if ex.inSkel[i] {
				pm := &ex.probes[i]
				if !pm.insertedCur {
					ex.cds.InsConstraint(ex.constraintFor(i, gap))
					ex.stats.Constraints++
					pm.insertedCur = true
				}
			} else {
				if ex.advanceFrom(t, ex.atoms[i].VarPos[gap.Col], gap.Hi) {
					done = true
					break
				}
				if !advanced || relation.CompareTuples(ex.cand, ex.adv) > 0 {
					ex.adv, ex.cand = ex.cand, ex.adv
					advanced = true
				}
			}
		}
		if done {
			break
		}
		if !gapFound {
			if lastCol >= 0 {
				ex.leafMessage()
				ex.cds.AdvancePast(ex.n - 2)
				continue
			}
			if !ex.residualsOK(t) {
				// Verified present in every atom but rejected by a residual
				// predicate: step past it without reporting.
				ex.cds.AdvanceOutput()
				continue
			}
			if !ex.output(t) {
				break
			}
			// Early duplicate elimination: every deeper tuple shares the
			// columns just reported, so skip the whole subtree below the
			// deepest of them (for full bindings, just the tuple itself —
			// Idea 2: no unit gap box is inserted).
			ex.cds.AdvancePast(ex.last)
			continue
		}
		if advanced && relation.CompareTuples(ex.adv, t) > 0 {
			ex.cds.SetFrontier(ex.adv)
		}
	}
	if ex.cds.Err != nil {
		return ex.cds.Err
	}
	if ex.counting {
		ex.counter.finish()
	}
	if ex.push.Buffered() {
		ex.sink.Flush()
		ex.total = ex.sink.Rows
	}
	return nil
}

// residualsOK evaluates the residual predicates against a full free tuple in
// GAO order.
func (ex *exec) residualsOK(t []int64) bool {
	if ex.push == nil {
		return true
	}
	for _, r := range ex.push.Residuals {
		if !r.Eval(t) {
			return false
		}
	}
	return true
}

// output reports the free tuple (verified to be in every atom). It returns
// false to stop enumeration.
func (ex *exec) output(t []int64) bool {
	if ex.push.Buffered() {
		return ex.sink.Add(t)
	}
	ex.total++
	if ex.counting {
		ex.counter.credit(1)
		return true
	}
	if ex.emit == nil {
		return true
	}
	out := ex.out[:len(ex.emitPos)]
	for i, g := range ex.emitPos {
		out[i] = t[g]
	}
	return ex.emit(out)
}

// leafMessage counts the outputs below the verified prefix t[0..n-2] — the
// last-attribute values common to every leaf atom's sibling range below its
// projection of the prefix — and credits them as outputs of the deepest
// subtree. Every other atom holds on the prefix, so these are exactly the
// prefix's completions (ARCHITECTURE.md, "Count-memo soundness").
func (ex *exec) leafMessage() {
	lists := ex.lists[:len(ex.leaf)]
	for j, i := range ex.leaf {
		pm := &ex.probes[i]
		lists[j] = ex.ovs[i].LeafRange(pm.point[:len(pm.point)-1], &pm.finger)
	}
	k := relation.IntersectCount(lists)
	ex.total += k
	ex.counter.credit(k)
}

// advanceFrom computes into ex.cand the Idea 7 frontier advance for a gap on
// global position pos with least present upper value hi: skip to
// (t[..pos-1], hi) or, when the atom has nothing above, past the enclosing
// prefix. exhausted == true means the whole remaining space is dead.
func (ex *exec) advanceFrom(t []int64, pos int, hi int64) (exhausted bool) {
	cand := ex.cand
	copy(cand, t)
	if hi >= posInf {
		if pos == 0 {
			return true
		}
		pos--
		hi = cand[pos] + 1
	}
	cand[pos] = hi
	for i := pos + 1; i < ex.n; i++ {
		cand[i] = -1
	}
	return false
}

// constraintFor builds the CDS constraint for atom i's current gap, using
// the probe memo's stored projection (paper §4.5). The slices are the plan's
// and the memo's own: InsConstraint only reads them.
func (ex *exec) constraintFor(i int, gap relation.Gap) Constraint {
	return Constraint{
		EqPos: ex.atoms[i].VarPos[:gap.Col],
		EqVal: ex.probes[i].point[:gap.Col],
		Col:   ex.atoms[i].VarPos[gap.Col],
		Lo:    gap.Lo,
		Hi:    gap.Hi,
	}
}

// probeMemo caches the last probe per atom (Idea 4): while the free tuple's
// projection stays inside the last gap band — or hits the band's upper
// endpoint on the last column, proving membership — no index seek is needed.
// When a seek is needed, finger starts it from the last seek's trie path.
type probeMemo struct {
	valid       bool
	found       bool
	gap         relation.Gap
	point       []int64
	insertedCur bool
	finger      relation.ProbeFinger
}

// probeAtom returns atom i's gap (or found == true) for free tuple t.
func (ex *exec) probeAtom(i int, t []int64) (relation.Gap, bool) {
	vp := ex.atoms[i].VarPos
	pm := &ex.probes[i]
	proj := ex.scratch[:len(vp)]
	same := pm.valid
	for k, p := range vp {
		proj[k] = t[p]
		if proj[k] != pm.point[k] {
			same = false
		}
	}
	if !ex.noMemo && pm.valid {
		if same {
			ex.stats.ProbeMemoHits++
			return pm.gap, pm.found
		}
		if !pm.found {
			j := pm.gap.Col
			prefixSame := true
			for k := 0; k < j; k++ {
				if proj[k] != pm.point[k] {
					prefixSame = false
					break
				}
			}
			if prefixSame {
				v := proj[j]
				if v > pm.gap.Lo && v < pm.gap.Hi {
					// Still inside the remembered gap: reuse it. The CDS
					// constraint for this pattern is unchanged.
					copy(pm.point, proj)
					ex.stats.ProbeMemoHits++
					return pm.gap, false
				}
				if v == pm.gap.Hi && j == len(vp)-1 && pm.gap.Hi < posInf {
					// The projection hits the gap's least upper bound on the
					// last column: it is a present tuple (the paper's §4.5
					// example — no seek needed).
					copy(pm.point, proj)
					pm.found = true
					ex.stats.ProbeMemoHits++
					return relation.Gap{}, true
				}
			}
		}
	}
	gap, found := ex.ovs[i].ProbeGapFinger(proj, &pm.finger)
	ex.stats.Probes++
	pm.valid = true
	pm.found = found
	pm.gap = gap
	pm.insertedCur = false
	copy(pm.point, proj)
	return gap, found
}
