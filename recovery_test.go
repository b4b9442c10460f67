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
	dir := t.TempDir()
	m, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := m.AppendDefine("e", 2)
	if err == nil {
		lsn, err = m.AppendDeltas([]core.DeltaBatch{{Name: "e", Inserts: [][]int64{{-1, 2}}}})
	}
	if err == nil {
		err = m.Commit(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	st, _, err := OpenStore(dir, DurabilityOptions{MetricsName: "-"})
	if st != nil {
		st.Close()
	}
	if !errors.Is(err, ErrValueOutOfRange) || !strings.Contains(err.Error(), "wal-0000000000000001.log") {
		t.Fatalf("OpenStore over a record inserting -1: %v, want ErrValueOutOfRange naming the segment", err)
	}
}
