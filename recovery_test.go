package repro

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
)

// TestOpenStoreRejectsOutOfDomainValues: a CRC-valid log record whose
// insert holds -1, a reserved sentinel, fails OpenStore with an error
// wrapping ErrValueOutOfRange that names the segment, where replaying it
// would have panicked in the storage layer.
func TestOpenStoreRejectsOutOfDomainValues(t *testing.T) {
	err := openLogged(t,
		durable.Record{Op: durable.OpDefine, Name: "e", Arity: 2},
		durable.Record{Op: durable.OpDeltas, Batches: []core.DeltaBatch{{Name: "e", Inserts: [][]int64{{-1, 2}}}}})
	if !errors.Is(err, ErrValueOutOfRange) || !strings.Contains(err.Error(), "wal-0000000000000001.log") {
		t.Fatalf("OpenStore over a record inserting -1: %v, want ErrValueOutOfRange naming the segment", err)
	}
}

// TestOpenStoreRejectsRecordsThatDoNotApply: a CRC-valid record no live
// write could have logged fails the function replay shares with the live
// writes, and OpenStore reports ErrCorruptLog.
func TestOpenStoreRejectsRecordsThatDoNotApply(t *testing.T) {
	define := durable.Record{Op: durable.OpDefine, Name: "e", Arity: 2}
	for name, recs := range map[string][]durable.Record{
		"load into an undefined relation": {{Op: durable.OpLoad, Name: "e", Tuples: [][]int64{{1, 2}}}},
		"define at another arity":         {define, {Op: durable.OpDefine, Name: "e", Arity: 3}},
		"load at another arity":           {define, {Op: durable.OpLoad, Name: "e", Tuples: [][]int64{{1, 2, 3}}}},
		"delta to an undefined relation":  {{Op: durable.OpDeltas, Batches: []core.DeltaBatch{{Name: "e"}}}},
	} {
		if err := openLogged(t, recs...); !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: OpenStore gave %v, want ErrCorruptLog", name, err)
		}
	}
}

// openLogged logs the records to a fresh directory and returns the error
// of opening it as a store.
func openLogged(t *testing.T, recs ...durable.Record) error {
	t.Helper()
	dir := t.TempDir()
	m, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lsn uint64
	for _, r := range recs {
		if lsn, err = m.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	m.Close()
	st, _, err := OpenStore(dir, DurabilityOptions{MetricsName: "-"})
	if st != nil {
		st.Close()
	}
	return err
}
