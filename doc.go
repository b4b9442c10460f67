// Package repro is a from-scratch Go reproduction of "Join Processing for
// Graph Patterns: An Old Dog with New Tricks" (Nguyen, Aref, Bravenboer,
// Kollias, Ngo, Ré, Rudra; arXiv:1503.04169, 2015): the first practical
// implementation and empirical evaluation of worst-case-optimal (Leapfrog
// Triejoin) and beyond-worst-case (Minesweeper / #Minesweeper) join
// algorithms on graph-pattern workloads.
//
// # Prepare once, execute repeatedly
//
// The API follows the lifecycle the paper assumes of its host system
// (LogicBlox): a query is compiled once against a fixed physical design —
// validated, its global attribute order (GAO) fixed, every atom bound to a
// GAO-consistent index (§4.1) — and the compiled plan is then executed
// repeatedly. The paper's benchmark schema (edge, fwd, v1..v4) is ordinary
// data, loaded into a Store by internal/dataset:
//
//	s := repro.NewStore()
//	g := dataset.Generate(dataset.BarabasiAlbert, 10_000, 50_000, 1)
//	err := dataset.Load(repro.Local(s), g, 1, 1)
//	p, err := s.Prepare(repro.Triangles(), repro.Options{Algorithm: "lftj"})
//	n, err := p.Count(ctx)            // pure execution, no re-planning
//	for row := range p.Rows(ctx) {    // streaming iterator; each row is yours to keep; break stops early
//		...
//	}
//	fmt.Print(p.Explain())            // GAO, per-atom index, AGM bound
//	st := p.Stats()                   // unified counters across executions
//
// A Prepared handle is safe for concurrent use and follows incremental
// writes: its indexes advance in place, so the next execution counts the
// post-write state. Compiled plans are also cached on the store (keyed on
// query shape × algorithm × GAO, invalidated when a relation they read is
// replaced), so re-preparing an unchanged shape is cheap. A ReadTxn pins at
// begin: executions through it keep reading the state it opened on. One-shot
// helpers (Store.Count, Store.Enumerate) remain as thin wrappers over
// Prepare.
//
// # Schemas: Store
//
// Store is the one workload surface. The caller defines named relations of
// any arity, bulk-loads and incrementally mutates them, and queries them
// with schema-checked parsing over that schema. The paper's §5.1 benchmark
// schema is one such schema; directed graphs, edge-labeled graphs (one
// relation per label, or a ternary relation with the label as a column),
// and arbitrary n-ary relations are all ordinary schemas too:
//
//	s := repro.NewStore()
//	err := s.DefineRelation("follows", 2)
//	err = s.Load("follows", tuples)          // bulk load (replaces)
//	err = s.Apply("follows", ins, dels)      // incremental; plans stay valid
//	q, err := s.ParseQuery("fof", "follows(a, b), follows(b, c)")
//	p, err := s.Prepare(q, repro.Options{})
//
// ParseQuery accepts an optional rule head — "out(b, a) :- e(a, b)" — that
// names the query and fixes the output variable order; unknown relations,
// arity mismatches, and unbound head variables fail eagerly with typed
// errors.
//
// Store.ReadTxn returns a snapshot read-transaction: every execution
// through it observes the single index state pinned when the transaction
// began, regardless of concurrent Apply batches — several counts and row
// streams that must agree with each other run inside one transaction.
// Store.Batch executes many prepared queries concurrently against one
// shared snapshot under a worker budget (the serving regime: prepare once,
// batch the point lookups). Store.ApplyAll applies update batches to
// several relations as one atomic write — no snapshot ever observes the
// relations torn.
//
// # Local and remote deployment
//
// The Querier interface is the deployment seam: it covers the Store
// surface (schema operations, ParseQuery, Prepare, ReadTxn, Batch) with
// implementation-neutral handle types (PreparedQuery, QueryTxn), and has
// two constructors — repro.Local(store) for in-process use, and
// client.Dial (package repro/client) for a connection to a graphjoind
// server (package repro/server; cmd/graphjoind). Queries then execute
// server-side against shared indexes, with streaming flow-controlled Rows,
// remote snapshot transactions, and typed errors that survive the wire for
// errors.Is. Remote execution is differential-tested to produce
// byte-identical results to local execution.
//
// Package repro/router adds a third constructor over replicated hosts. It
// divides a query by one rule, the paper's §4.10 split lifted across
// processes: host i of n executes Options.Shard = part i of n, a contiguous
// range of the leading GAO attribute holding an equal share of its index
// keys, cut by each host from its own copy of the data. Counts sum, and row
// streams concatenate part by part into the single-store order.
//
// # Durability
//
// NewStore is in-memory; OpenStore roots a store in a directory and makes
// acknowledged writes crash-safe. Every mutation is appended to a
// write-ahead log and fsynced per DurabilityOptions.Sync before it
// returns — "group" (the default) shares fsyncs among concurrent writers
// through a group-commit leader, "always" syncs each commit, and "none"
// trades durability of the most recent writes for in-memory-like write
// latency (recovery is still never corrupted). Store.Checkpoint snapshots
// the relations and prunes the log; Store.Close ends persistence. On open,
// recovery loads the newest valid snapshot and replays the log tail
// through the same delta path live writes take, reporting what it found
// (and any dropped torn tail from an unclean shutdown) via RecoveryInfo.
//
// Deployment notes: give each store its own directory on a local
// filesystem (graphjoind -data-dir does this per tenant, with a
// -checkpoint-every background ticker and a final checkpoint on drain, so
// clean restarts replay nothing); checkpoint roughly as often as the
// replay time you can afford at startup; and treat RecoveryInfo.TailErr
// as an operational signal — the store is consistent, but the previous
// process died uncleanly.
//
// # Storage and the index
//
// Relations are immutable, lexicographically sorted tuple sets over int64
// domains (internal/relation). Every atom of a compiled query is bound to a
// GAO-consistent index — the relation with its columns permuted into global
// attribute order (§4.1) — and every such index is one structure, the trie
// contract the paper's engines assume: a materialized CSR attribute trie
// (one contiguous key array per level plus child-offset arrays, the
// TrieJax/EmptyHeaded layout) served through a delta overlay. Cursor
// Open/Next are O(1) array arithmetic, SeekGE gallops over a dense
// cache-resident array, and gap probes run one bounded binary search per
// level. The trie is built once per relation × attribute order at Prepare
// time, for up to ~1.5·arity·n extra keys of memory, and maintained
// incrementally: update batches (Store.Apply, DB.ApplyDelta) fold into a
// small sorted delta overlay — an adds log plus delete tombstones merged at
// cursor level and compacted past a threshold — so an update costs time
// proportional to the small log, not an O(arity·n) trie rebuild, and
// compiled plans stay valid and current across updates.
//
// The flat sorted rows remain the reference implementation: the relation
// package's cursor, seek and probe tests check the trie against them, and
// the engine-level differential (backend_diff_test.go) checks lftj and ms
// against a brute-force engine over the whole query corpus, including under
// parallel execution and write churn.
//
// # Engines
//
//   - "lftj" — Leapfrog Triejoin, worst-case optimal (paper §2.2);
//   - "ms" — Minesweeper with the constraint data structure and the paper's
//     Ideas 1–8 except Idea 6 (paper §2.3, §4), beyond-worst-case optimal
//     for β-acyclic queries.
//
// Both execute pinned compiled plans, inside read transactions and as one
// shard of a routed fan-out. The paper's outside systems and ablations —
// the psql and monetdb pairwise baselines, yannakakis, graphlab,
// genericjoin (Algorithm 1) and the §4.12 hybrid — are not served: they run
// in internal/bench, which regenerates Tables 6–7 and Figures 3–7 with them
// (go run ./cmd/benchtables -table 6).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// regenerated tables and figures.
package repro
