// Command perfbench is the repository benchmark: it drives the DJ Star
// engine, scheduler, graph and fleet through their public Go APIs and
// the /v1 HTTP control plane, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (untraced runs);
// with -trace 1 they are the per-layer ledger from a separate traced
// run. Lines before the JSON object report the host fingerprint, the
// paper reference block and diagnostics.
//
// Usage (from the repository root; see run.sh and README.md):
//
//	bash perfbench/run.sh --workload apc-paper --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Workload names (BENCHMARK.json "workloads").
const (
	wlPaper = "apc-paper"
	wlDSP   = "dsp-pure"
	wlFleet = "fleet-churn"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, counts and human-readable
// lines. Every workload fills the same metric names (e2eMetrics or
// layerMetrics), so a missing one is a benchmark bug, caught in finish.
type report struct {
	res   result
	notes []string
	// problems lists correctness failures (they also clear res.Correct).
	problems []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness problem.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds attempted/failed operations.
func (r *report) count(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// finish checks that exactly the declared metrics were produced with
// finite values, then prints the notes and the JSON line.
func (r *report) finish(want []metricSpec) error {
	for _, m := range want {
		got, ok := r.res.Metrics[m.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not produced", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is not finite (%v)", m.name, got.Value)
		}
	}
	if len(r.res.Metrics) != len(want) {
		return fmt.Errorf("produced %d metrics, want %d", len(r.res.Metrics), len(want))
	}
	if r.res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, p := range r.problems {
		fmt.Println("INCORRECT:", p)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("metric %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// options are the command-line inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	threads  int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join([]string{wlPaper, wlDSP, wlFleet}, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (deck tempos and positions, op schedules)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics (untraced); 1: per-layer ledger (traced)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	o.threads = min(4, runtime.NumCPU())

	host := newHostProbe()
	r := newReport()
	var err error
	switch {
	case o.workload == wlPaper || o.workload == wlDSP:
		if o.trace {
			err = runAPCTraced(o, r)
		} else {
			err = runAPC(o, r)
		}
	case o.workload == wlFleet:
		if o.trace {
			err = runFleetTraced(o, r)
		} else {
			err = runFleet(o, r)
		}
	default:
		fatalf("unknown workload %q (want %s, %s or %s)", o.workload, wlPaper, wlDSP, wlFleet)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	host.note(r)
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	if err := r.finish(want); err != nil {
		fatalf("%s: %v", o.workload, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
