// Command optbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public packages, checks every
// output for correctness, and prints its metrics: one "name value unit"
// line per metric for people, then, as the last line of standard output,
// one JSON object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	optbench -workload tables|paper_scale|serve_mix -seed N -seconds S -trace 0|1
//
// Workloads:
//
//   - tables: every registered experiment at full size through
//     experiments.Run, as cmd/experiments -all runs them.
//   - paper_scale: one fresh protocol run of 2^16 dimension-order routes
//     on a 512x512 torus, on shardsim with one shard per CPU.
//   - serve_mix: an open-loop Poisson mix of cache hits, cold jobs,
//     forwarded requests and large sweeps against two in-process optnetd
//     cluster nodes, at one fixed offered rate.
//
// Every workload reports the same metrics, named in BENCHMARK.json.
// With -trace 0 these are the end-to-end metrics: setup_s, latency_s (the
// time a user waits for the workload's unit of work) and peak_rss_mb.
// With -trace 1 the run measures the workload once without tracing and
// once traced, and reports the per-layer metrics: each layer's share of
// the traced stretch's CPU profile, the Go runtime's GC share and
// allocation, and the tracing overhead. Figures that only one workload
// has (spans around each layer's public entry points, counters of the
// serving stack) are printed for people above the JSON line.
// bench/layers.json says what each metric means on each workload and
// which end-to-end metric each per-layer metric is expected to move.
//
// Inputs derive from -seed alone. Tables and paper_scale outputs are
// compared against digests recorded in bench/digests.json; for a seed
// without recorded digests (such as the held-out seed named in
// bench/layers.json) the runs are compared with each other instead,
// through digests kept in the -state directory.
//
// The harness self-test, go test in bench/, runs every workload at toy
// size in seconds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a declared metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares: every
// workload reports every end-to-end metric untraced and every per-layer
// metric traced.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"},
		{"latency_s", "s"},
		{"peak_rss_mb", "MB"},
	}
	perLayer = append(append([]metricSpec{
		{"sim.validate.cpu_share", "fraction"},
		{"sim.step.cpu_share", "fraction"},
		{"sim.dynamic.cpu_share", "fraction"},
		{"paths.congestion.cpu_share", "fraction"},
	}, layerShareSpecs()...),
		metricSpec{"runtime.gc.cpu_share", "fraction"},
		metricSpec{"runtime.alloc_mb", "MB"},
		metricSpec{"trace_overhead", "ratio"},
	)
)

// report is the benchmark's result: the metrics plus the count of
// operations attempted and failed. An operation fails when it returns an
// error, is refused, or produces output that does not match.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	shown map[string]metric // figures of this workload only, printed for people
	notes []string          // failure descriptions, printed for people only
	info  []string          // other lines for people, printed before the metrics
}

func newReport() *report { return &report{Metrics: map[string]metric{}, shown: map[string]metric{}} }

// set records one declared metric.
func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// show records a figure that is printed for people but is not one of the
// declared metrics.
func (r *report) show(name string, value float64, unit string) {
	r.shown[name] = metric{Value: value, Unit: unit}
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *report) op(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, err.Error())
	}
}

// declared checks that the report holds exactly the declared metrics,
// each in its declared unit.
func (r *report) declared(want []metricSpec) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, %d declared", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s (%s) not reported in its unit", m.name, m.unit)
		}
	}
	return nil
}

// write prints the human-readable lines and then the JSON line.
func (r *report) write(w io.Writer) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	printSorted(w, "  ", r.shown)
	printSorted(w, "", r.Metrics)
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s (attempted %d, failed %d)\n", "fail_frac", frac, "fraction", r.Attempted, r.Failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "failure: %s\n", n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSorted prints one "name value unit" line per metric, by name.
func printSorted(w io.Writer, indent string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-36s %14.6g %s\n", indent, n, ms[n].Value, ms[n].Unit)
	}
}

// options are the command-line settings shared by all workloads.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	state    string // directory for digests of seeds without recorded ones
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(o options, r *report) error

// workloads maps the names in BENCHMARK.json to their full-size runs.
var workloads = map[string]workloadFunc{
	"tables":      func(o options, r *report) error { return runTables(o, fullTables(), r) },
	"paper_scale": func(o options, r *report) error { return runPaperScale(o, fullPaperScale(), r) },
	"serve_mix":   func(o options, r *report) error { return runServeMix(o, fullServeMix(), r) },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: tables, paper_scale or serve_mix")
	flag.Uint64Var(&o.seed, "seed", 1, "seed all inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.state, "state", ".bench_build/state", "directory for run-to-run digests of unrecorded seeds")
	flag.Parse()
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "optbench: unknown workload %q (have tables, paper_scale, serve_mix)\n", o.workload)
		os.Exit(2)
	}
	if err := run(o, fn, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "optbench:", err)
		os.Exit(1)
	}
}

// errFailed marks a run whose report counted failed operations.
var errFailed = errors.New("output check failed")

// run executes the workload and writes the report. It returns errFailed
// after printing a report with failures, and any other error without
// printing one.
func run(o options, fn workloadFunc, w io.Writer) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v must be positive", o.seconds)
	}
	r := newReport()
	if err := fn(o, r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	want := perLayer
	if !o.trace {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		want = endToEnd
	}
	if err := r.declared(want); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := r.write(w); err != nil {
		return err
	}
	if !r.Correct {
		return errFailed
	}
	return nil
}

// peakRSSMB reports the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
