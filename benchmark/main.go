// Command benchmark is the repository's benchmark: four closed-loop
// workloads, one per rung of the stack (engine, transport, router, durable
// write), eight numbers a user of the system would see for each, and on a
// traced pass the per-layer numbers that say where those come from. It
// drives the system through its public surface only, all in one process, so
// the CPU and allocations of client and server are accounted together.
//
//	go run ./benchmark                            every workload, human table + one JSON document
//	go run ./benchmark -workload served_point     one workload; the last line is the result object
//	go run ./benchmark -trace 1 -trace-out f      add the traced pass and the probes; spans to f
//
// See README.md in this directory for how to read the output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all, segments interleaved)")
	flag.Int64Var(&cfg.seed, "seed", 107, "seed of every generated input (107 is the ca-GrQc catalog seed)")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "measured seconds per workload, split over 3 segments")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans to this file, one JSON object per line")
	flag.BoolVar(&cfg.quick, "quick", false, "1 short segment on a 500-node graph, for the self-tests")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Everything the benchmark writes lives under .bench_build in the working
	// directory, beside the build outputs of run.sh.
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	cfg.dir = dir
	ok, err := report(context.Background(), cfg, os.Stdout)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// value is one metric as the result object carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result object of one workload: the last line of output
// when one workload is selected.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is one workload in the full document.
type detail struct {
	Deployment string                 `json:"deployment"`
	Clients    int                    `json:"clients"`
	Loop       string                 `json:"loop"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Samples    []int                  `json:"samples_per_segment"`
	EndToEnd   map[string]detailValue `json:"end_to_end"`
	PerLayer   map[string]value       `json:"per_layer,omitempty"`
}

type detailValue struct {
	value
	Segments []float64 `json:"segments"`
}

// document is the machine-readable form of one whole invocation.
type document struct {
	Seed      int64             `json:"seed"`
	Quick     bool              `json:"quick"`
	NumCPU    int               `json:"nproc"`
	Go        string            `json:"go"`
	Workloads map[string]detail `json:"workloads"`
}

// report runs the benchmark and prints the human table, the full document
// and, for a single workload, the result object as the last line. It returns
// whether every operation was answered correctly.
func report(ctx context.Context, cfg *config, w io.Writer) (bool, error) {
	results, err := run(ctx, cfg)
	if err != nil {
		return false, err
	}
	doc := document{Seed: cfg.seed, Quick: cfg.quick, NumCPU: runtime.NumCPU(), Go: runtime.Version(), Workloads: make(map[string]detail)}
	allOK := true
	var last outcome
	for _, r := range results {
		values, raw := r.endToEnd()
		attempted, failed := r.attempted()
		correct := failed == 0 && attempted > 0
		if r.traced != nil && r.traced.loop.failed > 0 {
			correct = false
		}
		allOK = allOK && correct
		d := detail{Deployment: r.def.deployment, Clients: r.def.clients, Loop: "closed", Correct: correct,
			Attempted: attempted, Failed: failed, EndToEnd: make(map[string]detailValue)}
		for _, s := range r.segments {
			d.Samples = append(d.Samples, s.loop.attempted)
		}
		last = outcome{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}

		fmt.Fprintf(w, "\n%s — %s, %d client(s), closed loop, seed %d\n", r.def.name, r.def.deployment, r.def.clients, cfg.seed)
		fmt.Fprintf(w, "  %d operations attempted, %d failed; per segment %v\n", attempted, failed, d.Samples)
		if err := r.firstErr(); err != nil {
			fmt.Fprintf(w, "  first failure: %v\n", err)
		}
		for _, def := range endToEnd {
			v := value{values[def.name], def.unit}
			d.EndToEnd[def.name] = detailValue{v, raw[def.name]}
			if !cfg.trace {
				last.Metrics[def.name] = v
			}
			fmt.Fprintf(w, "  %-44s %14.6g %-6s segments %s\n", def.name, v.Value, def.unit, formatValues(raw[def.name]))
		}
		if r.layer != nil {
			d.PerLayer = make(map[string]value)
			for _, def := range perLayer {
				v := value{r.layer[def.name], def.unit}
				d.PerLayer[def.name] = v
				last.Metrics[def.name] = v
				fmt.Fprintf(w, "  %-44s %14.6g %-6s moves %s\n", def.name, v.Value, def.unit, def.moves)
			}
		}
		doc.Workloads[r.def.name] = d
	}
	fmt.Fprintln(w)
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return false, err
	}
	if cfg.workload != "" {
		if err := enc.Encode(last); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	return strings.Join(parts, " ")
}
