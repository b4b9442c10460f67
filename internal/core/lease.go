package core

import "sync/atomic"

// Lease is a pinned generation held across many executions: every execution
// handed the generation Pin returns reads the database as of the lease's
// begin, no matter how many writes land in between. It is the mechanism
// behind the public Store.ReadTxn and Store.Batch surfaces. This is the one
// freshness rule: an execution outside a lease pins the current generation
// at its start, an execution through a lease sees the generation current at
// the lease's begin.
//
// An index first bound after the lease began is missing from that
// generation. It is pinned at its first use through the lease instead, and
// the lease keeps the pin, so later executions through it still agree with
// each other.
//
// A lease needs no release: the pinned generation is ordinary immutable
// data the garbage collector reclaims once the lease is dropped.
type Lease struct {
	gen atomic.Pointer[Generation]
}

// NewLease pins the database's current generation.
func (db *DB) NewLease() *Lease {
	l := new(Lease)
	l.gen.Store(db.Pin())
	return l
}

// Pin returns the lease's generation for an execution of p, first extending
// the lease by any index of the plan it does not carry yet.
func (l *Lease) Pin(p *Plan) *Generation {
	for {
		g := l.gen.Load()
		ext := g.with(p.Atoms)
		if ext == g || l.gen.CompareAndSwap(g, ext) {
			return ext
		}
	}
}
