package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// quickRun runs the benchmark under -quick and returns the parsed document,
// the result object (single-workload runs) and whether the run was correct.
func quickRun(t *testing.T, cfg *config) (document, outcome, bool) {
	t.Helper()
	cfg.quick, cfg.seconds, cfg.dir = true, defaultSeconds, t.TempDir()
	var buf bytes.Buffer
	ok, err := report(context.Background(), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var objects []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "{") {
			objects = append(objects, line)
		}
	}
	want := 1
	if cfg.workload != "" {
		want = 2
	}
	if len(objects) != want {
		t.Fatalf("output has %d JSON lines, want %d:\n%s", len(objects), want, buf.String())
	}
	var doc document
	if err := json.Unmarshal([]byte(objects[0]), &doc); err != nil {
		t.Fatal(err)
	}
	var last outcome
	if cfg.workload != "" {
		dec := json.NewDecoder(strings.NewReader(objects[1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("result object: %v", err)
		}
	}
	return doc, last, ok
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	return spans
}

// fullQuickRun is one traced -quick run of every workload on seed 107, shared
// by the tests that read it.
var fullQuickRun struct {
	once  sync.Once
	doc   document
	ok    bool
	spans []span
}

func sharedQuickRun(t *testing.T) (document, bool, []span) {
	t.Helper()
	r := &fullQuickRun
	r.once.Do(func() {
		traceOut := filepath.Join(t.TempDir(), "spans.jsonl")
		r.doc, _, r.ok = quickRun(t, &config{seed: 107, trace: true, traceOut: traceOut})
		r.spans = readSpans(t, traceOut)
	})
	return r.doc, r.ok, r.spans
}

// TestQuickRunReportsEverything: one traced -quick run produces every named
// workload and every named metric exactly once, finite, with no failed
// operation, and span trees that nest across the wire.
func TestQuickRunReportsEverything(t *testing.T) {
	doc, ok, spans := sharedQuickRun(t)
	if !ok {
		t.Error("run reported a failure")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads reported, want %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range workloads {
		d, found := doc.Workloads[w.name]
		if !found {
			t.Errorf("workload %s missing", w.name)
			continue
		}
		if !d.Correct || d.Failed != 0 || d.Attempted < 1 || d.Clients != w.clients {
			t.Errorf("%s: correct=%v attempted=%d failed=%d clients=%d", w.name, d.Correct, d.Attempted, d.Failed, d.Clients)
		}
		if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.name, len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, def := range endToEnd {
			v, found := d.EndToEnd[def.name]
			if !found || v.Unit != def.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (found %v)", w.name, def.name, v, found)
			}
		}
		for _, def := range perLayer {
			v, found := d.PerLayer[def.name]
			if !found || v.Unit != def.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (found %v)", w.name, def.name, v, found)
			}
		}
		// The layer matrix: a layer reads 0 where it does no work.
		for _, def := range perLayer {
			own := map[string]string{"router": "routed_fanout", "durable": "durable_churn"}[def.layer]
			probe := def.name == "durable.wal_overhead_us" || def.name == "durable.wal_bytes_per_user_byte"
			if own != "" && own != w.name && !probe && d.PerLayer[def.name].Value != 0 {
				t.Errorf("%s: %s = %v, want 0 outside %s", w.name, def.name, d.PerLayer[def.name].Value, own)
			}
		}
	}
	for _, name := range []string{"ladder.point.wire_us", "client.count_rtt_us", "server.store_us", "lftj.seeks_per_result.triangle", "durable.wal_bytes_per_user_byte"} {
		if doc.Workloads["served_point"].PerLayer[name].Value <= 0 {
			t.Errorf("served_point: %s is not positive", name)
		}
	}
	if v := doc.Workloads["routed_fanout"].PerLayer["router.pinned_single_host_ratio"].Value; v != 1 {
		t.Errorf("router.pinned_single_host_ratio = %v, want 1", v)
	}

	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// store.* spans are recorded on the server's side of the wire; their
	// parents must be the client-side spans of the same operation.
	under := map[string]int{}
	for _, s := range spans {
		if s.Op != 0 && strings.HasPrefix(s.Name, "store.") {
			p := byID[s.Parent]
			under[s.Workload+" "+strings.SplitN(p.Name, ".", 2)[0]]++
			if p.Op != s.Op || p.Host != s.Host {
				t.Fatalf("%s of op %d host %d hangs under %s of op %d host %d", s.Name, s.Op, s.Host, p.Name, p.Op, p.Host)
			}
		}
	}
	for _, want := range []string{"served_point client", "routed_fanout host", "durable_churn client"} {
		if under[want] == 0 {
			t.Errorf("no store.* span under a %s.* span (have %v)", want, under)
		}
	}
}

// TestSameSeedSameInputsAndCounters: the data and the seeded request streams
// repeat, and so do the counters that do not depend on timing.
func TestSameSeedSameInputsAndCounters(t *testing.T) {
	if a, b := generate(true), generate(true); !reflect.DeepEqual(a, b) {
		t.Error("generate is not deterministic")
	}
	batches := func(seed int64) [][][]int64 {
		ch := newChurner(rand.New(rand.NewSource(seed)), quickNodes, 0)
		var out [][][]int64
		for i := 0; i < 3*churnRing; i++ {
			_, ins, dels := ch.nextBatch()
			for _, side := range [][][]int64{ins, dels} {
				var cp [][]int64
				for _, tup := range side {
					cp = append(cp, append([]int64(nil), tup...))
				}
				out = append(out, cp)
			}
		}
		return out
	}
	if !reflect.DeepEqual(batches(5), batches(5)) {
		t.Error("the same seed gives different churn batches")
	}
	if reflect.DeepEqual(batches(5), batches(6)) {
		t.Error("different seeds give the same churn batches")
	}

	exact := []string{"lftj.seeks_per_result.triangle", "lftj.seeks_per_result.clique4", "lftj.seeks.pinned_projected",
		"server.requests_per_op", "durable.wal_bytes_per_user_byte"}
	doc, _, _ := sharedQuickRun(t)
	first := doc.Workloads["served_point"].PerLayer
	_, second, _ := quickRun(t, &config{workload: "served_point", seed: 107, trace: true})
	if len(second.Metrics) != len(perLayer) {
		t.Fatalf("traced result object has %d metrics, want the %d per-layer ones", len(second.Metrics), len(perLayer))
	}
	for _, name := range exact {
		a, b := first[name].Value, second.Metrics[name].Value
		if a != b || a <= 0 {
			t.Errorf("%s: %v then %v, want the same positive value", name, a, b)
		}
	}
	if got := second.Metrics["server.requests_per_op"].Value; got != servedRequestsPerOp {
		t.Errorf("server.requests_per_op = %v, want %d", got, servedRequestsPerOp)
	}
}

// TestWrongAnswerFailsTheRun: with a deliberately wrong expected count every
// operation is a failed operation and the run is not correct.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	doc, last, ok := quickRun(t, &config{workload: "embedded_joins", seed: 107, corrupt: true})
	d := doc.Workloads["embedded_joins"]
	if ok || d.Correct || last.Correct || d.Failed != d.Attempted || last.Failed != last.Attempted || d.Attempted < 1 {
		t.Errorf("ok=%v correct=%v attempted=%d failed=%d", ok, d.Correct, d.Attempted, d.Failed)
	}
	if len(last.Metrics) != len(endToEnd) {
		t.Errorf("untraced result object has %d metrics, want the %d end-to-end ones", len(last.Metrics), len(endToEnd))
	}
}

// TestWrappersUnwrapTheirHandles: a transaction or batch of the wrapped
// querier must be handed the querier's own handle, or it answers
// ErrForeignPrepared and a measurement would be an error path.
func TestWrappersUnwrapTheirHandles(t *testing.T) {
	ctx := context.Background()
	in := generate(true)
	st, err := loadedStore(in)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	q := traced(repro.Local(st), rec, "repro", -1)
	h, err := prepareAll(q, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h["triangle"].Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := q.ReadTxn()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Close()
	if n, err := txn.Count(ctx, h["triangle"]); err != nil || n != want {
		t.Errorf("txn.Count = %d, %v; want %d", n, err, want)
	}
	rows := 0
	for _, err := range txn.RowsErr(ctx, h["triangle"]) {
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if int64(rows) != want {
		t.Errorf("txn.RowsErr yields %d rows, want %d", rows, want)
	}
	res, err := q.Batch(ctx, []repro.BatchRequest{{Prepared: h["triangle"]}, {Prepared: h["range2hop"], Rows: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("batch request %d: %v", i, r.Err)
		}
	}
	if res[0].Count != want {
		t.Errorf("batch count = %d, want %d", res[0].Count, want)
	}
}

// TestOpsPerSecSetsStallsAside: a stall that hits a twentieth of the
// operations moves operations / wall time and leaves ops_per_s where it was;
// a failed operation lowers it; one operation is still a rate.
func TestOpsPerSecSetsStallsAside(t *testing.T) {
	loop := func(stalled int) loopResult {
		r := loopResult{clients: 2, attempted: 200}
		for i := 0; i < r.attempted; i++ {
			l := time.Millisecond
			if i < stalled {
				l = 50 * time.Millisecond
			}
			r.lat = append(r.lat, l)
			r.wall += l / 2 // two clients
		}
		return r
	}
	quiet, stalled := loop(0), loop(10)
	if got := quiet.opsPerSec(); math.Abs(got-2000) > 1e-6 {
		t.Errorf("quiet ops_per_s = %v, want 2000", got)
	}
	if got := stalled.opsPerSec(); math.Abs(got-2000) > 1e-6 {
		t.Errorf("ops_per_s with 10 of 200 operations stalled = %v, want 2000", got)
	}
	if got := stalled.wallOpsPerSec(); got > 600 {
		t.Errorf("wall ops/s with 10 of 200 operations stalled = %v, want it to show the stalls", got)
	}
	quiet.failed = 50
	if got := quiet.opsPerSec(); math.Abs(got-1500) > 1e-6 {
		t.Errorf("ops_per_s with a quarter of the operations failed = %v, want 1500", got)
	}
	one := loopResult{clients: 1, attempted: 1, lat: []time.Duration{time.Second}}
	if got := one.opsPerSec(); got != 1 {
		t.Errorf("ops_per_s of one one-second operation = %v, want 1", got)
	}
}

// TestBenchmarkJSONMatchesTheProgram: BENCHMARK.json names exactly what the
// program reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program has %s: %s", i, file.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the file, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: file has %+v, program has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd)
	same("per-layer", file.PerLayer, perLayer)
}
