// Package cli holds the pieces the graphjoin and graphjoind commands share:
// repeatable flags, tuple-file loading, schema setup against any Querier
// (local store or remote connection), benchmark-graph construction, and the
// named query catalog.
package cli

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/dataset"
	"repro/internal/query"
)

// ListFlag collects a repeatable string flag.
type ListFlag []string

// String implements flag.Value.
func (l *ListFlag) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value.
func (l *ListFlag) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// SetupSchema applies -relation name:arity definitions and -load name=path
// file loads to a querier — an in-process store or a remote connection; the
// call is identical either way, which is what lets graphjoin's schema flags
// work under -connect.
func SetupSchema(q repro.Querier, relations, loads []string) error {
	for _, spec := range relations {
		name, arityStr, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("-relation %q: want name:arity", spec)
		}
		arity, err := strconv.Atoi(arityStr)
		if err != nil {
			return fmt.Errorf("-relation %q: bad arity: %v", spec, err)
		}
		if err := q.DefineRelation(name, arity); err != nil {
			return err
		}
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-load %q: want name=path", spec)
		}
		tuples, err := ReadTuples(path)
		if err != nil {
			return fmt.Errorf("-load %s: %w", name, err)
		}
		if err := q.Load(name, tuples); err != nil {
			return err
		}
	}
	return nil
}

// DescribeSchema renders a querier's schema as "name/arity" entries — one
// Schema call, which is a single round trip on a remote querier, bounded by
// the caller's context.
func DescribeSchema(ctx context.Context, q repro.Querier) string {
	infos, err := q.Schema(ctx)
	if err != nil {
		return "(schema unavailable)"
	}
	var parts []string
	for _, r := range infos {
		parts = append(parts, fmt.Sprintf("%s/%d", r.Name, r.Arity))
	}
	if len(parts) == 0 {
		return "(empty schema)"
	}
	return strings.Join(parts, ", ")
}

// ReadTuples reads integer rows, one tuple per line, columns separated by
// whitespace or commas; blank lines and #-comments are skipped.
func ReadTuples(path string) ([][]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tuples [][]int64
	sc := bufio.NewScanner(f)
	// Machine-generated rows can exceed bufio's default 64KB token cap.
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		tuple := make([]int64, 0, len(fields))
		for _, fld := range fields {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			tuple = append(tuple, v)
		}
		tuples = append(tuples, tuple)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tuples, nil
}

// BuildGraph constructs the benchmark graph from the catalog (datasetName
// non-empty) or a generator model ("er", "ba", or "hk"); dataset.Load puts
// its schema into a store.
func BuildGraph(datasetName, model string, nodes, edges int, seed int64) (*dataset.Graph, error) {
	if datasetName != "" {
		spec, err := dataset.Lookup(datasetName)
		if err != nil {
			return nil, err
		}
		return spec.Build(), nil
	}
	m := dataset.BarabasiAlbert
	switch model {
	case "er":
		m = dataset.ErdosRenyi
	case "hk":
		m = dataset.HolmeKim
	case "ba", "":
	default:
		return nil, fmt.Errorf("unknown model %q (want er, ba, or hk)", model)
	}
	return dataset.Generate(m, nodes, edges, seed), nil
}

// NamedQuery resolves the benchmark query catalog (§5.1 patterns).
func NamedQuery(name string) (*repro.Query, error) {
	switch name {
	case "3-clique", "triangle":
		return query.Clique(3), nil
	case "4-clique":
		return query.Clique(4), nil
	case "4-cycle":
		return query.Cycle(4), nil
	case "3-path":
		return query.Path(3), nil
	case "4-path":
		return query.Path(4), nil
	case "1-tree":
		return query.Tree(1), nil
	case "2-tree":
		return query.Tree(2), nil
	case "2-comb":
		return query.Comb(), nil
	case "2-lollipop":
		return query.Lollipop(2), nil
	case "3-lollipop":
		return query.Lollipop(3), nil
	default:
		return nil, fmt.Errorf("unknown query %q", name)
	}
}
