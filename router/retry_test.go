package router

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro"
	"repro/client"
)

// overloadedHost is a replica that rejects its first fails prepared counts
// as overloaded, the way a graphjoind host past its admission budget does,
// and answers every later one. cancel, when set, is called on each
// rejection, modelling a caller that gives up while the router backs off.
type overloadedHost struct {
	repro.Querier
	fails  atomic.Int64
	counts atomic.Int64 // counts asked for, rejected or not
	cancel context.CancelFunc
}

func (h *overloadedHost) ReadTxn() (repro.QueryTxn, error) {
	txn, err := h.Querier.ReadTxn()
	if err != nil {
		return nil, err
	}
	return &overloadedTxn{QueryTxn: txn, h: h}, nil
}

type overloadedTxn struct {
	repro.QueryTxn
	h *overloadedHost
}

func (t *overloadedTxn) Count(ctx context.Context, p repro.PreparedQuery) (int64, error) {
	t.h.counts.Add(1)
	if t.h.fails.Add(-1) >= 0 {
		if t.h.cancel != nil {
			t.h.cancel()
		}
		return 0, fmt.Errorf("admission: %w", client.ErrOverloaded)
	}
	return t.QueryTxn.Count(ctx, p)
}

// TestRetryUnaryOverloaded pins the bounded retry of an idempotent read: a
// host rejecting k counts as overloaded is retried k times when MaxRetries
// allows it, fails typed when it does not, and a caller's cancellation
// during the backoff ends the retry with the context's error.
func TestRetryUnaryOverloaded(t *testing.T) {
	const k = 3
	oracle, replicas := newReplicas(t, 2)
	q, err := oracle.ParseQuery("q", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Count(context.Background(), q, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// prepare routes q over host 0 and an overloaded host 1 rejecting k
	// counts, fanning out.
	prepare := func(t *testing.T, maxRetries int, cancel context.CancelFunc) (*Router, *overloadedHost, repro.PreparedQuery) {
		t.Helper()
		h := &overloadedHost{Querier: replicas[1], cancel: cancel}
		h.fails.Store(k)
		r, err := New([]repro.Querier{replicas[0], h}, nil, Config{MaxRetries: maxRetries})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		p, err := r.Prepare(q, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if p.(*Prepared).single {
			t.Fatal("query routed to one host; the test needs a fan-out")
		}
		return r, h, p
	}

	t.Run("retries succeed", func(t *testing.T) {
		r, h, p := prepare(t, k, nil)
		before := r.met.retries.Value()
		got, err := p.Count(context.Background())
		if err != nil {
			t.Fatalf("Count with %d retries over %d rejections: %v", k, k, err)
		}
		if got != want {
			t.Errorf("Count = %d, want %d", got, want)
		}
		if d := r.met.retries.Value() - before; d != k {
			t.Errorf("graphjoinrouter_retries_total rose by %v, want %d", d, k)
		}
		if n := h.counts.Load(); n != k+1 {
			t.Errorf("host 1 asked %d times, want %d", n, k+1)
		}
	})

	t.Run("retries exhausted", func(t *testing.T) {
		_, _, p := prepare(t, k-1, nil)
		_, err := p.Count(context.Background())
		var he *HostError
		if !errors.As(err, &he) || he.Index != 1 {
			t.Fatalf("Count with %d retries over %d rejections: %v, want a *HostError for host 1", k-1, k, err)
		}
		if !errors.Is(err, client.ErrOverloaded) {
			t.Errorf("%v does not match client.ErrOverloaded", err)
		}
	})

	t.Run("cancelled during backoff", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, h, p := prepare(t, k, cancel)
		_, err := p.Count(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Count cancelled during backoff: %v, want context.Canceled", err)
		}
		if n := h.counts.Load(); n != 1 {
			t.Errorf("host 1 asked %d times after the cancel, want 1", n)
		}
	})
}
