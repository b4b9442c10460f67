package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// TraceConfig configures per-request tracing and the slow-query log.
type TraceConfig struct {
	// BufferTraces is how many completed traces the server retains for the
	// TTrace wire request and /debug/traces (0 selects
	// trace.DefaultBufferTraces).
	BufferTraces int
	// SlowQuery, when positive, logs one JSON line per request that takes
	// longer than the threshold.
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query lines (one JSON object per line).
	// Nil with SlowQuery set routes the lines through Logf.
	SlowQueryLog io.Writer
	// SampleEvery traces one in N requests that arrive without a client
	// trace context, so slow-query lines carry span trees even for untraced
	// clients. 0 or 1 means every request while SlowQuery is set; requests
	// that arrive with a trace context are always traced.
	SampleEvery int
}

// traceSink is the server's tracing state, derived from TraceConfig at New.
type traceSink struct {
	buf       *trace.Buffer
	slowQuery time.Duration
	sampler   *trace.Sampler

	mu      sync.Mutex
	slowLog io.Writer
	logf    func(string, ...any)
	// open counts the client-traced requests still running under each trace
	// id, so a by-id fetch waits until every request of the trace is recorded.
	open map[trace.ID]int
}

func newTraceSink(cfg TraceConfig, logf func(string, ...any)) *traceSink {
	ts := &traceSink{
		buf:       trace.NewBuffer(cfg.BufferTraces),
		slowQuery: cfg.SlowQuery,
		slowLog:   cfg.SlowQueryLog,
		logf:      logf,
		open:      make(map[trace.ID]int),
	}
	if cfg.SlowQuery > 0 {
		every := cfg.SampleEvery
		if every < 1 {
			every = 1
		}
		ts.sampler = trace.NewSampler(every)
	}
	return ts
}

// slowQueryLine is one slow-query log entry: when, what, how long, and the
// span tree the request left behind (absent when the request was neither
// client-traced nor sampled).
type slowQueryLine struct {
	TS          string             `json:"ts"`
	Store       string             `json:"store"`
	Type        string             `json:"type"`
	TraceID     trace.ID           `json:"trace_id,omitempty"`
	DurMs       float64            `json:"dur_ms"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Err         string             `json:"err,omitempty"`
	Spans       []trace.SpanRecord `json:"spans,omitempty"`
}

// observe retains a completed request's trace and writes the slow-query line
// when the request crossed the threshold. tr may be nil (untraced request).
func (ts *traceSink) observe(store, typ string, tr *trace.Trace, dur time.Duration, err error) {
	var data trace.Data
	if tr != nil {
		data = tr.Data()
		ts.buf.Add(data)
	}
	if ts.slowQuery <= 0 || dur < ts.slowQuery {
		return
	}
	line := slowQueryLine{
		TS:    time.Now().UTC().Format(time.RFC3339Nano),
		Store: store,
		Type:  typ,
		DurMs: float64(dur) / float64(time.Millisecond),
	}
	if err != nil {
		line.Err = err.Error()
	}
	if tr != nil {
		line.TraceID = data.ID
		line.Spans = data.Spans
		line.Fingerprint = fingerprint(data.Spans)
	}
	b, jerr := json.Marshal(line)
	if jerr != nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.slowLog != nil {
		ts.slowLog.Write(append(b, '\n'))
		return
	}
	ts.logf("slow query: %s", b)
}

// fingerprint extracts the plan fingerprint the handlers attach to their
// spans: the query's source form plus the engine it compiled to.
func fingerprint(spans []trace.SpanRecord) string {
	for _, s := range spans {
		if q := s.Attr("query"); q != "" {
			if alg := s.Attr("algorithm"); alg != "" {
				return q + " [" + alg + "]"
			}
			return q
		}
	}
	return ""
}

// begin marks a client-traced request of trace id as running; end, called
// after observe recorded it, marks it done.
func (ts *traceSink) begin(id trace.ID) {
	ts.mu.Lock()
	ts.open[id]++
	ts.mu.Unlock()
}

func (ts *traceSink) end(id trace.ID) {
	ts.mu.Lock()
	if ts.open[id]--; ts.open[id] == 0 {
		delete(ts.open, id)
	}
	ts.mu.Unlock()
}

// get returns the retained spans of trace id once it has some and no request
// of it is still running.
func (ts *traceSink) get(id trace.ID) ([]trace.SpanRecord, bool) {
	ts.mu.Lock()
	running := ts.open[id] > 0
	ts.mu.Unlock()
	if running {
		return nil, false
	}
	return ts.buf.Get(id)
}

// traceFetchWait bounds how long a by-id TTrace fetch waits for the trace to
// be complete in the buffer. A request's trace is recorded just *after* its
// response frame is sent, so a client that queries the moment its last
// response arrives can race the record by microseconds; waiting briefly for
// the trace's running requests makes the fetch deterministic without
// ordering the hot path around diagnostics.
const traceFetchWait = 2 * time.Second

// handleTrace answers a TTrace fetch: by trace id (merging spans from
// downstream hosts when the backend fronts any — the router capability), or
// the last-N retained traces when id is zero.
func (c *conn) handleTrace(ctx context.Context, reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	id := d.U64()
	n := d.Int()
	if d.Err() != nil {
		return decodeErr(d)
	}
	var e wire.Enc
	if id == 0 {
		wire.EncodeTraces(&e, c.srv.traces.buf.Last(n))
		return c.send(wire.TTraceOK, reqID, e.Bytes())
	}
	spans, ok := c.srv.traces.get(trace.ID(id))
	for deadline := time.Now().Add(traceFetchWait); !ok && time.Now().Before(deadline); {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		spans, ok = c.srv.traces.get(trace.ID(id))
	}
	if !ok {
		spans, _ = c.srv.traces.buf.Get(trace.ID(id))
	}
	if ds, hasDownstream := c.tenant.store.(interface {
		TraceSpans(context.Context, uint64) ([]trace.SpanRecord, error)
	}); hasDownstream {
		remote, err := ds.TraceSpans(ctx, id)
		if err != nil {
			return err
		}
		spans = append(spans, remote...)
	}
	wire.EncodeTraces(&e, []trace.Data{{ID: trace.ID(id), Spans: spans}})
	return c.send(wire.TTraceOK, reqID, e.Bytes())
}

// DebugTracesHandler serves the server's retained traces as JSON — mounted
// at /debug/traces on the daemons' metrics listeners.
func (s *Server) DebugTracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.traces.buf.Last(0))
	})
}
