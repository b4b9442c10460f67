package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): families sorted by name with # HELP and
// # TYPE headers, histogram series expanded into cumulative _bucket / _sum /
// _count. Values are read at call time (func metrics are polled here).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type fam struct {
		family
		metrics []metric
	}
	fams := make([]fam, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := append([]string(nil), f.keys...)
		sort.Strings(keys)
		out := fam{family: *f}
		for _, k := range keys {
			out.metrics = append(out.metrics, r.series[k])
		}
		fams = append(fams, out)
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, m := range f.metrics {
			switch v := m.(type) {
			case *Counter:
				writeSample(bw, f.name, v.labels(), v.Value())
			case *Gauge:
				writeSample(bw, f.name, v.labels(), v.Value())
			case *funcMetric:
				writeSample(bw, f.name, v.labels(), v.value())
			case *Histogram:
				writeHistogram(bw, f.name, v)
			}
		}
	}
	return bw.Flush()
}

func writeSample(w io.Writer, name, lbls string, v float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, lbls, formatValue(v))
}

// writeHistogram expands one histogram into the cumulative exposition
// series. The le label is appended to the series' own labels.
func writeHistogram(w io.Writer, name string, h *Histogram) {
	counts := h.BucketCounts()
	bounds := h.Bounds()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = formatValue(bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(h.labels(), "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels(), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels(), h.Count())
}

// withLabel splices one more label pair into a rendered label set.
func withLabel(lbls, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if lbls == "" {
		return "{" + pair + "}"
	}
	return lbls[:len(lbls)-1] + "," + pair + "}"
}

// formatValue renders a float the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics (the graphjoind -metrics-addr
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the series name (histogram expansions keep their _bucket /
	// _sum / _count suffixes).
	Name string
	// Labels are the parsed label pairs (nil when the series has none).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParseText parses Prometheus text exposition output — the inverse of
// WritePrometheus, used to read server-side counters back, as the benchmark
// and `graphjoin -stats` do. Comment and blank lines are skipped; a
// malformed sample line is an error.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: parse %q: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value")
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		var err error
		s.Labels, err = parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("no value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `k="v",k2="v2"`. Escapes in values are unescaped.
func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		labels[key] = b.String()
		body = rest[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return labels, nil
}

// SumSamples sums the values of every sample with the given name whose
// labels include all the given pairs — the cross-check aggregation
// ("all graphjoind_requests_total for store X, any type").
func SumSamples(samples []Sample, name string, kv ...string) float64 {
	var total float64
samples:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue samples
			}
		}
		total += s.Value
	}
	return total
}
