package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
)

var testOpts = options{workload: wlDSP, seed: 7, seconds: 1, threads: 2}

func newTestEngine(t *testing.T, o options, scale float64, strategy string, tweak func(*engine.Config)) *engine.Engine {
	t.Helper()
	e, err := newAPCEngine(o, scale, strategy, tweak)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// The timed loops must not allocate: a growing buffer triggers garbage
// collections that stop the spinning busy workers mid-cycle.
func TestTimedLoopsDoNotAllocate(t *testing.T) {
	const runs = 300
	t.Run("closed loop", func(t *testing.T) {
		e := newTestEngine(t, testOpts, 0, sched.NameBusyWait, nil)
		warmUp(e, 50)
		l := newClosedLoop(e, newSamples(runs+10), runs+10)
		if a := testing.AllocsPerRun(runs, l.step); a != 0 {
			t.Fatalf("closedLoop.step allocates %.1f times per cycle", a)
		}
	})
	t.Run("hooked closed loop", func(t *testing.T) {
		rec := newStageRec(runs + 10)
		e := newTestEngine(t, testOpts, 0, sched.NameBusyWait, func(c *engine.Config) { c.Hooks.OnCycle = rec.onCycle })
		warmUp(e, 50)
		l := newClosedLoop(e, newSamples(runs+10), runs+10)
		l.after = rec.afterCycle
		rec.on = true
		if a := testing.AllocsPerRun(runs, l.step); a != 0 {
			t.Fatalf("hooked step allocates %.1f times per cycle", a)
		}
		if len(rec.post.v) == 0 || len(rec.tp.v) != len(rec.post.v) {
			t.Fatalf("stage recorder saw %d tp and %d post samples", len(rec.tp.v), len(rec.post.v))
		}
	})
	t.Run("graph loop with span observer", func(t *testing.T) {
		s, g, err := graph.BuildDJStar(graphConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		l := &graphLoop{s: s, obs: newSpanObserver(plan.Len(), runs+10), prepare: newSamples(runs + 10), execute: newSamples(runs + 10)}
		l.sch, err = sched.New(sched.NameBusyWait, plan, sched.Options{Threads: 2, Observer: l.obs})
		if err != nil {
			t.Fatal(err)
		}
		defer l.sch.Close()
		if a := testing.AllocsPerRun(runs, l.step); a != 0 {
			t.Fatalf("graphLoop.step allocates %.1f times per cycle", a)
		}
		if l.obs.cyc != runs+1 {
			t.Fatalf("observer saw %d cycles, want %d", l.obs.cyc, runs+1)
		}
	})
	t.Run("session recorders", func(t *testing.T) {
		shared := newSharedSamples(runs + 10)
		shared.on.Store(true)
		tr := newSessionTrace(runs + 10)
		if a := testing.AllocsPerRun(runs, func() { shared.add(1); tr.add(1) }); a != 0 {
			t.Fatalf("session recorders allocate %.1f times per cycle", a)
		}
	})
}

func TestSameSeedSameInputs(t *testing.T) {
	residents := []string{"res-0", "res-1", "res-2"}
	a := fleetOps(3, 20*time.Second, residents, "churn-")
	b := fleetOps(3, 20*time.Second, residents, "churn-")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fleetOps differs for the same seed")
	}
	if reflect.DeepEqual(a, fleetOps(4, 20*time.Second, residents, "churn-")) {
		t.Fatal("fleetOps is the same for different seeds")
	}
	if !reflect.DeepEqual(deckInputs(3, 4), deckInputs(3, 4)) || reflect.DeepEqual(deckInputs(3, 4), deckInputs(4, 4)) {
		t.Fatal("deckInputs is not a function of the seed")
	}
}

// The seed fixes the output: the same seed gives the same per-cycle hash
// stream, another seed a different one.
func TestSameSeedSameOutputHash(t *testing.T) {
	stream := func(seed uint64) []uint64 {
		o := testOpts
		o.seed = seed
		e := newTestEngine(t, o, 0, sched.NameBusyWait, nil)
		l := newClosedLoop(e, newSamples(300), 300)
		l.run(time.Minute)
		return l.hashes
	}
	a, b := stream(7), stream(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different output")
	}
	if reflect.DeepEqual(a, stream(8)) {
		t.Fatal("different seeds, same output")
	}
}

// Scale only adds spin top-ups, so a paper-scale parallel run must
// produce the scale-0 sequential reference stream bit for bit; this is
// what lets every workload check against the cheap reference.
func TestScaleDoesNotChangeOutput(t *testing.T) {
	const warm, n = 20, 100
	e := newTestEngine(t, testOpts, 1, sched.NameBusyWait, nil)
	warmUp(e, warm)
	l := newClosedLoop(e, newSamples(n), n)
	l.run(time.Minute)
	ref, err := referenceHashes(testOpts, warm, n)
	if err != nil {
		t.Fatal(err)
	}
	if bad := mismatches(l.hashes, ref); bad != 0 {
		t.Fatalf("%d of %d paper-scale busy cycles differ from the scale-0 seq reference", bad, n)
	}
}

func TestFamiliesCoverStandardGraph(t *testing.T) {
	_, g, err := graph.BuildDJStar(graphConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range g.Nodes() {
		seen[family(n.Name)] = true
	}
	var got []string
	for f := range seen {
		got = append(got, f)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, nodeFamilies) {
		t.Fatalf("node families %v, declared %v", got, nodeFamilies)
	}
}

func TestFleetOpsDependencies(t *testing.T) {
	const window = 20 * time.Second
	ops := fleetOps(9, window, []string{"a", "b"}, "c-")
	counts := map[string]int{}
	for i, o := range ops {
		counts[o.Route]++
		if i > 0 && o.Due < ops[i-1].Due {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
		if o.After >= i {
			t.Fatalf("op %d waits for a later op %d", i, o.After)
		}
		switch o.Route {
		case "delete":
			if p := ops[o.After]; p.Route != "create" || p.Target != o.Target {
				t.Fatalf("delete %s does not follow its create", o.Target)
			}
		case "undrain":
			if ops[o.After].Route != "drain" {
				t.Fatal("undrain does not follow the drain")
			}
		case "edit":
			want := "insert-delay:A"
			if o.After >= 0 && ops[o.After].Patch == "insert-delay:A" {
				want = "remove-delay:A"
			}
			if o.Patch != want || (o.After >= 0 && ops[o.After].Target != o.Target) {
				t.Fatalf("edit %d: patch %q after %d, want %q on the same session", i, o.Patch, o.After, want)
			}
		}
	}
	if counts["create"] != counts["delete"] || counts["create"] < 2 || counts["drain"] != 1 || counts["undrain"] != 1 {
		t.Fatalf("unexpected mix %v", counts)
	}
	if n := len(ops) - counts["delete"]; n != int(fleetRate*window.Seconds()) {
		t.Fatalf("%d base ops, want %v", n, fleetRate*window.Seconds())
	}
}

// BENCHMARK.json at the repository root declares the same workloads and
// metrics this program reports.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if want := []string{wlPaper, wlDSP, wlFleet}; !reflect.DeepEqual(wl, want) {
		t.Errorf("workloads %v, want %v", wl, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
