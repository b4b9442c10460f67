package wire

import (
	"context"
	"errors"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
)

// Error is a failure transported over the wire: the server encodes the
// request's error as a stable code plus its message, and the client rebuilds
// an error that still satisfies errors.Is against the public typed errors —
// so error-handling code behaves identically against a local Store and a
// remote one.
type Error struct {
	Code string
	Msg  string
}

// Error implements error with the server-rendered message.
func (e *Error) Error() string { return e.Msg }

// Unwrap resolves the code to its typed sentinel, so errors.Is sees through
// the network boundary.
func (e *Error) Unwrap() error { return sentinel(e.Code) }

// Stable error codes. The repro-level codes map 1:1 onto the public typed
// errors; the protocol-level codes have sentinels of their own below.
const (
	CodeUnknownRelation  = "unknown-relation"
	CodeArityMismatch    = "arity-mismatch"
	CodeRelationExists   = "relation-exists"
	CodeValueOutOfRange  = "value-out-of-range"
	CodeUnknownAlgorithm = "unknown-algorithm"
	CodeUnboundHeadVar   = "unbound-head-var"
	CodeUnboundVar       = "unbound-var"
	CodeUnboundPredVar   = "unbound-pred-var"
	CodeUnsupportedQuery = "unsupported-query"
	CodeForeignPrepared  = "foreign-prepared"
	CodeCancelled        = "cancelled"
	CodeDeadline         = "deadline-exceeded"
	CodeShuttingDown     = "shutting-down"
	CodeOverloaded       = "overloaded"
	CodeUnknownHandle    = "unknown-handle"
	CodeUnknownTxn       = "unknown-txn"
	CodeUnknownStore     = "unknown-store"
	CodeVersion          = "version-mismatch"
	CodeProtocol         = "protocol"
	CodeInternal         = "internal"
)

// Protocol-level sentinels (the repro-level ones are the public typed
// errors). The client package re-exports these.
var (
	// ErrShuttingDown reports a request received while the server drains.
	ErrShuttingDown = errors.New("server shutting down")
	// ErrOverloaded reports a request rejected by per-store admission
	// control: the store's in-flight budget is exhausted and its queue is
	// full. The request was never started; retrying after backoff is safe.
	ErrOverloaded = errors.New("store overloaded")
	// ErrUnknownHandle reports a prepared-statement handle the connection
	// does not hold (closed, or from another connection).
	ErrUnknownHandle = errors.New("unknown prepared-statement handle")
	// ErrUnknownTxn reports a transaction id the connection does not hold.
	ErrUnknownTxn = errors.New("unknown transaction")
	// ErrUnknownStore reports a Hello naming a store the server does not
	// host.
	ErrUnknownStore = errors.New("unknown store")
	// ErrVersion reports a protocol-version mismatch in the Hello exchange.
	ErrVersion = errors.New("protocol version mismatch")
	// ErrProtocol reports a malformed or out-of-order frame.
	ErrProtocol = errors.New("protocol error")
)

// codeTable pairs every code with its sentinel; ErrorCode scans it with
// errors.Is and sentinel() indexes it by code.
var codeTable = []struct {
	code string
	err  error
}{
	{CodeUnknownRelation, repro.ErrUnknownRelation},
	{CodeArityMismatch, repro.ErrArityMismatch},
	{CodeRelationExists, repro.ErrRelationExists},
	{CodeValueOutOfRange, repro.ErrValueOutOfRange},
	{CodeUnknownAlgorithm, repro.ErrUnknownAlgorithm},
	{CodeUnboundHeadVar, repro.ErrUnboundHeadVar},
	{CodeUnboundVar, repro.ErrUnboundVar},
	{CodeUnboundPredVar, repro.ErrUnboundPredVar},
	{CodeUnsupportedQuery, repro.ErrUnsupportedQuery},
	{CodeForeignPrepared, repro.ErrForeignPrepared},
	{CodeCancelled, context.Canceled},
	{CodeDeadline, context.DeadlineExceeded},
	{CodeShuttingDown, ErrShuttingDown},
	{CodeOverloaded, ErrOverloaded},
	{CodeUnknownHandle, ErrUnknownHandle},
	{CodeUnknownTxn, ErrUnknownTxn},
	{CodeUnknownStore, ErrUnknownStore},
	{CodeVersion, ErrVersion},
	{CodeProtocol, ErrProtocol},
}

// ErrorCode maps an error to its stable wire code (CodeInternal when no
// typed sentinel matches).
func ErrorCode(err error) string {
	for _, e := range codeTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return CodeInternal
}

func sentinel(code string) error {
	for _, e := range codeTable {
		if e.code == code {
			return e.err
		}
	}
	return nil
}

// EncodeErr renders an error as a TErr payload.
func EncodeErr(err error) []byte {
	var e Enc
	e.Str(ErrorCode(err))
	e.Str(err.Error())
	return e.Bytes()
}

// DecodeErr rebuilds the error from a TErr payload.
func DecodeErr(body []byte) error {
	d := NewDec(body)
	code, msg := d.Str(), d.Str()
	if d.Err() != nil {
		return d.Err()
	}
	return &Error{Code: code, Msg: msg}
}

// Atom is one query atom on the wire.
type Atom struct {
	Rel  string
	Vars []string
}

// Query is a join query on the wire: the name, the output variables (the
// plain head; empty for a query without a head, since protocol version 8),
// the body atoms, and — since protocol version 2 — the body comparison
// predicates and the aggregate head terms. It reconstructs losslessly via
// ToQuery: projection, constant-carrying atoms (their desugared placeholder
// variables travel as ordinary variables), predicates, aggregates and the
// absence of a head all survive the round trip.
type Query struct {
	Name  string
	Head  []string
	Atoms []Atom
	Preds []query.Pred
	Aggs  []query.Agg
}

// FromQuery converts the in-memory representation for transport.
func FromQuery(q *query.Query) Query {
	wq := Query{Name: q.Name, Preds: q.Preds, Aggs: q.Aggs}
	if q.Headed() {
		wq.Head = q.Out()
	}
	wq.Atoms = make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		wq.Atoms[i] = Atom{Rel: a.Rel, Vars: a.Vars}
	}
	return wq
}

// ToQuery rebuilds the in-memory query, re-validating structure, head
// coverage, operator and aggregate-function names (a hostile peer can send
// anything).
func (wq Query) ToQuery() (*query.Query, error) {
	atoms := make([]query.Atom, len(wq.Atoms))
	for i, a := range wq.Atoms {
		atoms[i] = query.Atom{Rel: a.Rel, Vars: a.Vars}
	}
	var q *query.Query
	if len(wq.Head) == 0 && len(wq.Aggs) == 0 && len(wq.Preds) == 0 {
		q = query.New(wq.Name, atoms...)
	} else {
		var err error
		if q, err = query.NewRule(wq.Name, wq.Head, wq.Aggs, wq.Preds, atoms...); err != nil {
			return nil, err
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Encode appends the query to a payload. Predicate constants ride the
// signed encoding: the storage domain is non-negative, but a hostile or
// merely careless peer may write literals like "a > -1", and clamping them
// would change the predicate's meaning.
func (wq Query) Encode(e *Enc) {
	e.Str(wq.Name)
	e.StrList(wq.Head)
	e.Int(len(wq.Atoms))
	for _, a := range wq.Atoms {
		e.Str(a.Rel)
		e.StrList(a.Vars)
	}
	e.Int(len(wq.Preds))
	for _, p := range wq.Preds {
		e.Str(p.Left)
		e.Str(string(p.Op))
		if p.IsVar {
			e.U64(1)
			e.Str(p.Right)
		} else {
			e.U64(0)
			e.I64(p.Const)
		}
	}
	e.Int(len(wq.Aggs))
	for _, a := range wq.Aggs {
		e.Str(string(a.Func))
		e.Str(a.Var)
	}
}

// DecodeQuery consumes a query from a payload.
func DecodeQuery(d *Dec) Query {
	var wq Query
	wq.Name = d.Str()
	wq.Head = d.StrList()
	n := d.Count()
	if d.Err() != nil {
		return Query{}
	}
	wq.Atoms = make([]Atom, n)
	for i := range wq.Atoms {
		wq.Atoms[i] = Atom{Rel: d.Str(), Vars: d.StrList()}
	}
	np := d.Count()
	if d.Err() != nil {
		return Query{}
	}
	for i := 0; i < np; i++ {
		p := query.Pred{Left: d.Str(), Op: query.CmpOp(d.Str())}
		if d.U64() != 0 {
			p.IsVar = true
			p.Right = d.Str()
		} else {
			p.Const = d.I64()
		}
		wq.Preds = append(wq.Preds, p)
	}
	na := d.Count()
	if d.Err() != nil {
		return Query{}
	}
	for i := 0; i < na; i++ {
		wq.Aggs = append(wq.Aggs, query.Agg{Func: query.AggFunc(d.Str()), Var: d.Str()})
	}
	return wq
}

// EncodeOptions appends engine options to a payload.
func EncodeOptions(e *Enc, o repro.Options) {
	e.Str(string(o.Algorithm))
	e.Int(o.Workers)
	e.StrList(o.GAO)
	// The shard spec: the per-host part of a distributed fan-out.
	if o.Shard == nil {
		e.U64(0)
		return
	}
	e.U64(1)
	e.U64(o.Shard.Part)
	e.U64(o.Shard.Of)
}

// DecodeOptions consumes engine options from a payload.
func DecodeOptions(d *Dec) repro.Options {
	var o repro.Options
	o.Algorithm = repro.Algorithm(d.Str())
	o.Workers = d.Int()
	o.GAO = d.StrList()
	if d.U64() != 0 {
		o.Shard = &repro.Shard{Part: d.U64(), Of: d.U64()}
	}
	return o
}

// EncodeStats appends the unified counter snapshot to a payload.
func EncodeStats(e *Enc, s core.Stats) {
	for _, v := range [...]int64{
		s.PlanCacheHits, s.PlanCacheMisses, s.GAODerivations, s.IndexBindings,
		s.Executions, s.Outputs, s.Seeks, s.Probes, s.ProbeMemoHits,
		s.Constraints, s.FreeTupleSteps, s.ReuseHits, s.MemoStores,
	} {
		e.I64(v)
	}
}

// DecodeStats consumes a counter snapshot from a payload.
func DecodeStats(d *Dec) core.Stats {
	var s core.Stats
	for _, p := range [...]*int64{
		&s.PlanCacheHits, &s.PlanCacheMisses, &s.GAODerivations, &s.IndexBindings,
		&s.Executions, &s.Outputs, &s.Seeks, &s.Probes, &s.ProbeMemoHits,
		&s.Constraints, &s.FreeTupleSteps, &s.ReuseHits, &s.MemoStores,
	} {
		*p = d.I64()
	}
	return s
}
