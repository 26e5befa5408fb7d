// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload against the distributed pagerank library, checks
// the ranks it produces, and prints every metric by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With --trace 1 a separate, instrumented run reports
// the per-layer split: a CPU profile charged to the program's layers,
// socket counts, the wire telemetry, Go runtime counters, and spans the
// benchmark records around its calls into each layer.
//
// Usage, from the repository root (run.sh builds and runs this):
//
//	bash perfbench/run.sh --workload wire-100k --seed 1 --seconds 10 --trace 0
//
// The workloads, their metrics and what each layer metric should move
// are described in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Fixed computation parameters shared by every workload: the paper's
// operating point.
const (
	damping = 0.85
	epsilon = 1e-3
)

// spec names one reported metric and its unit.
type spec struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, for every
// workload. An "operation" is one full computation (wire-100k,
// pass-1m) or one edit (edits-100k).
var endToEnd = []spec{
	{"setup_s", "s"},          // generated graph in memory -> ready to run (median)
	{"converge_s", "s"},       // one operation, call -> converged (median)
	{"cpu_s", "s"},            // process CPU (user+sys, GC included) per operation (median)
	{"msgs_per_doc", "count"}, // cross-peer update messages per operation / docs
	{"err_avg", "ratio"},      // mean relative error vs the centralized solve
	{"err_p99", "ratio"},      // 99th percentile relative error
	{"peak_rss_mb", "MB"},     // peak resident memory while the program works
}

// layers are the CPU-profile attribution buckets, in report order.
var layers = []string{
	"wire.fold", "p2p.coalesce", "wire.codec", "wire.socket", "wire.peer",
	"wire.cluster", "graph", "core", "runtime.gc", "other",
}

// perLayer lists the metrics a traced run reports, for every workload;
// a layer the workload never drives reads 0.
var perLayer = func() []spec {
	var s []spec
	for _, l := range layers {
		s = append(s, spec{l + ".ns_per_update", "ns"}, spec{l + ".share", "ratio"})
	}
	return append(s,
		spec{"wire.socket.bytes_per_update", "B"},
		spec{"wire.socket.writes_per_update", "count"},
		spec{"wire.socket.reads_per_update", "count"},
		spec{"wire.socket.conns", "count"},
		spec{"wire.socket.observer_conns", "count"},
		spec{"wire.ack.rtt_p50_ms", "ms"},
		spec{"wire.ack.rtt_p99_ms", "ms"},
		spec{"p2p.coalesce.merge_ratio", "ratio"},
		spec{"wire.credit_stalls", "count"},
		spec{"wire.retries", "count"},
		spec{"wire.dup_dropped", "count"},
		spec{"wire.cluster.probes", "count"},
		spec{"runtime.allocs_per_update", "count"},
		spec{"runtime.alloc_bytes_per_update", "B"},
		spec{"runtime.gc.cpu_frac", "ratio"},
		spec{"runtime.gc.cycles", "count"},
		spec{"core.passes", "count"},
		spec{"core.pass.ns_per_processed_doc", "ns"},
		spec{"core.pass.ns_per_msg", "ns"},
		spec{"core.pass.first_ms", "ms"},
		spec{"core.pass.cpu_per_wall", "ratio"},
		spec{"core.pass.speedup_vs_1", "ratio"},
		spec{"p2p.place_s", "s"},
		spec{"core.new_engine_s", "s"},
		spec{"graph.mutable.ns_per_edit", "ns"},
		spec{"core.reseed.ns_per_edit", "ns"},
		spec{"core.passes_per_edit", "count"},
		spec{"core.docs_per_edit", "count"},
		spec{"core.pass.ns_per_pass", "ns"},
		spec{"edit.p99_us", "us"},
		spec{"trace.overhead_frac", "ratio"},
	)
}()

// params sizes a workload. The benchmark's workloads use the sizes in
// workloads; tests shrink them.
type params struct {
	docs, peers int
	edits       int // edits per session (edits-100k)
	minOps      int // operations measured even past the time budget
}

// workload is one named input set and the function that measures it.
type workload struct {
	name string
	p    params
	run  func(p params, seed uint64, budget time.Duration, trace bool, t *tally) (metrics, error)
}

var workloads = []workload{
	{"wire-100k", params{docs: 100_000, peers: 8, minOps: 5}, runWire},
	{"pass-1m", params{docs: 1_000_000, peers: 500, minOps: 3}, runPass},
	{"edits-100k", params{docs: 100_000, peers: 500, edits: 10_000, minOps: 3}, runEdits},
}

// metrics maps a metric name to its value; units come from the specs.
type metrics map[string]float64

// tally counts operations attempted and failed. An operation fails on
// an error, a timeout, non-convergence or a failed correctness check.
type tally struct {
	attempted, failed int
}

// check records one operation's outcome and reports whether it passed.
func (t *tally) check(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		return false
	}
	return true
}

// logOp prints one operation's figures to standard error.
func logOp(i int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: op %d: %s\n", i, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report attaches units to m and checks it against want: every named
// metric must be present, and nothing else may be.
func report(m metrics, want []spec) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(want))
	for _, s := range want {
		v, ok := m[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", s.name)
		}
		out[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	if len(m) != len(out) {
		var extra []string
		for k := range m {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics %s", strings.Join(extra, ","))
	}
	return out, nil
}

// fillLayers sets every per-layer metric the workload did not measure
// to 0: that layer did no work in this workload.
func fillLayers(m metrics) {
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 0
		}
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: wire-100k, pass-1m or edits-100k")
	seed := flag.Uint64("seed", 1, "seed for the generated graph, placement and edit stream")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 = instrumented run reporting the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {wire-100k|pass-1m|edits-100k}, --seed >= 1, --seconds >= 1, --trace {0|1}")
		os.Exit(2)
	}
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result line.
func execute(w workload, seed uint64, budget time.Duration, trace bool) (result, error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v GOMAXPROCS=%d\n",
		w.name, seed, trace, runtime.GOMAXPROCS(0))
	var t tally
	m, err := w.run(w.p, seed, budget, trace, &t)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	want := endToEnd
	if trace {
		fillLayers(m)
		want = perLayer
	}
	out, err := report(m, want)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return result{
		Correct:   t.attempted > 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   out,
	}, nil
}
