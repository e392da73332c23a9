package main

import (
	"fmt"
	"strings"
	"time"

	"djstar/internal/admission"
	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// The traced run (-trace 1) builds the per-layer ledger. Every span is
// recorded by the benchmark around its calls into a layer (the engine's
// OnCycle hook, a sched.Observer, direct timed calls); nothing inside
// the program is instrumented. Each probe runs on its own, one engine at
// a time, because busy-wait workers spin between cycles.

// runAPCTraced is the traced run of an APC workload: the engine,
// scheduler, node and graph probes on the workload's scale, then the
// fleet and /v1 probes on a shortened fleet-churn schedule.
func runAPCTraced(o options, r *report) error {
	sh := shapeOf(o.workload)
	if err := engineProbe(o, r, sh, phaseLength(o)); err != nil {
		return err
	}
	if err := schedProbe(o, r, sh.scale, 2*phaseLength(o)); err != nil {
		return err
	}
	if err := graphProbe(o, r, sh.scale); err != nil {
		return err
	}
	return fleetLayer(o, r, fleetProbeWindow)
}

// runFleetTraced is the traced fleet-churn run: the engine, scheduler,
// node and graph probes on one session's configuration (scale 0.05)
// running alone, then the fleet layer over the full window.
func runFleetTraced(o options, r *report) error {
	sh := apcShape{scale: fleetScale, warmup: 1000}
	if err := engineProbe(o, r, sh, phaseLength(o)); err != nil {
		return err
	}
	if err := schedProbe(o, r, sh.scale, 2*phaseLength(o)); err != nil {
		return err
	}
	if err := graphProbe(o, r, sh.scale); err != nil {
		return err
	}
	return fleetLayer(o, r, time.Duration(o.seconds*float64(time.Second)))
}

// fleetProbeWindow is the fleet-churn schedule length inside the APC
// workloads' traced runs.
const fleetProbeWindow = 6 * time.Second

// phaseLength is the measured length of one engine-probe phase.
func phaseLength(o options) time.Duration {
	return time.Duration(max(1, o.seconds/8) * float64(time.Second))
}

// engineVariant is one engine-probe phase configuration.
type engineVariant struct {
	name  string
	tweak func(*engine.Config, *stageRec)
}

// stageRec records the OnCycle stage split of the hooked phase while on
// (warm-up cycles pass through the hook too).
type stageRec struct {
	on                           bool
	tp, gp, graph, vc, apc, post *samples
	lastAPCUS                    float64
}

func newStageRec(capacity int) *stageRec {
	return &stageRec{
		tp: newSamples(capacity), gp: newSamples(capacity), graph: newSamples(capacity),
		vc: newSamples(capacity), apc: newSamples(capacity), post: newSamples(capacity),
	}
}

func (s *stageRec) onCycle(ci engine.CycleInfo) {
	if !s.on {
		return
	}
	s.tp.add(ci.TPMS * 1e3)
	s.gp.add(ci.GPMS * 1e3)
	s.graph.add(ci.GraphMS * 1e3)
	s.vc.add(ci.VCMS * 1e3)
	s.apc.add(ci.APCMS * 1e3)
	s.lastAPCUS = ci.APCMS * 1e3
}

// afterCycle records the bookkeeping after the last stage: the outer
// Engine.Cycle time minus the engine's own APC time.
func (s *stageRec) afterCycle(outerUS float64) {
	if s.on {
		s.post.add(outerUS - s.lastAPCUS)
	}
}

var engineVariants = []engineVariant{
	{"plain", nil},
	{"hooked", func(c *engine.Config, s *stageRec) { c.Hooks.OnCycle = s.onCycle }},
	{"obs-off", func(c *engine.Config, _ *stageRec) { c.Obs.Disable = true }},
	{"tel-off", func(c *engine.Config, _ *stageRec) { c.Telemetry.Disable = true }},
}

// engineProbe measures the engine layer: the stage split from
// Hooks.OnCycle, the post-stage bookkeeping, the cost of the obs and
// telemetry sinks (against runs with each disabled), Snapshot, and the
// tracing overhead (hooked minus plain). The variants run in ABAB order,
// two rounds, one engine at a time.
func engineProbe(o options, r *report, sh apcShape, phase time.Duration) error {
	capacity := int(phase.Seconds() * maxCyclesPerSecond)
	outer := map[string]*samples{}
	for _, v := range engineVariants {
		outer[v.name] = newSamples(2 * capacity)
	}
	rec := newStageRec(2 * capacity)
	var snapUS []float64
	var streams [][]uint64 // each phase's output hashes
	for round := 0; round < 2; round++ {
		for _, v := range engineVariants {
			var tweak func(*engine.Config)
			if v.tweak != nil {
				tweak = func(c *engine.Config) { v.tweak(c, rec) }
			}
			e, err := newAPCEngine(o, sh.scale, sched.NameBusyWait, tweak)
			if err != nil {
				return err
			}
			warmUp(e, sh.warmup)
			loop := newClosedLoop(e, outer[v.name], capacity)
			if v.name == "hooked" {
				loop.after = rec.afterCycle
				rec.on = true
			}
			loop.run(phase)
			rec.on = false
			if v.name == "hooked" {
				for i := 0; i < 20; i++ {
					t0 := time.Now()
					_ = e.Snapshot()
					snapUS = append(snapUS, float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
			r.count(int64(len(loop.hashes)), checkFaults(r, e, "engine probe "+v.name))
			e.Close()
			streams = append(streams, loop.hashes)
		}
	}
	bad, err := checkStreams(o, r, sh.warmup, streams)
	if err != nil {
		return err
	}
	r.count(0, bad)
	p50 := func(s *samples) float64 { return median(s.v) }
	plain, hooked := p50(outer["plain"]), p50(outer["hooked"])
	stages := map[string]float64{
		"tp": p50(rec.tp), "gp": p50(rec.gp), "graph": p50(rec.graph), "vc": p50(rec.vc), "post": p50(rec.post),
	}
	sum := 0.0
	for _, name := range []string{"tp", "gp", "graph", "vc", "post"} {
		r.set("engine."+name+"_us", "us", stages[name])
		sum += stages[name]
	}
	r.set("engine.sink_obs_us", "us", plain-p50(outer["obs-off"]))
	r.set("engine.sink_tel_us", "us", plain-p50(outer["tel-off"]))
	r.set("engine.snapshot_us", "us", median(snapUS))
	r.set("ledger.apc_p50_us", "us", hooked)
	r.set("ledger.remainder_us", "us", hooked-sum)
	r.set("trace.overhead_us", "us", hooked-plain)
	r.notef("ledger: tp+gp+graph+vc+post = %.1f us against traced apc_p50 %.1f us (untraced %.1f us): remainder %.1f us (busy/%d, scale %.2f)",
		sum, hooked, plain, hooked-sum, o.threads, sh.scale)
	return nil
}

// spanObserver is the benchmark's sched.Observer: it records every
// node's execution window of every cycle into preallocated arrays.
// BeginCycle and EndCycle run on the Execute caller; Record on the
// worker that ran the node, which the scheduler releases only after
// the caller's BeginCycle.
type spanObserver struct {
	n          int
	cyc        int
	begin      []int64 // per cycle
	start, end []int64 // cycle*n + node
}

func newSpanObserver(nodes, cycles int) *spanObserver {
	return &spanObserver{
		n: nodes, begin: make([]int64, cycles),
		start: make([]int64, nodes*cycles), end: make([]int64, nodes*cycles),
	}
}

// reset discards every recorded cycle; call between cycles only.
func (s *spanObserver) reset() {
	s.cyc = 0
	clear(s.begin)
	clear(s.start)
	clear(s.end)
}

func (s *spanObserver) full() bool { return s.cyc == len(s.begin) }

func (s *spanObserver) BeginCycle() {
	if s.cyc < len(s.begin) {
		s.begin[s.cyc] = sched.NowNanos()
	}
}

func (s *spanObserver) Record(node, _ int32, start, end int64) {
	if s.cyc < len(s.begin) {
		i := s.cyc*s.n + int(node)
		s.start[i], s.end[i] = start, end
	}
}

func (s *spanObserver) EndCycle() {
	if s.cyc < len(s.begin) {
		s.cyc++
	}
}

// family strips a node name's deck letter and index: "SPA1" -> "SP",
// "CtrlBeatGridB2" -> "CtrlBeatGrid", "AudioOut1" -> "AudioOut".
func family(name string) string {
	name = strings.TrimRight(name, "0123456789")
	if n := len(name); n > 2 && name[n-1] >= 'A' && name[n-1] <= 'D' {
		return name[:n-1]
	}
	return name
}

// graphLoop is the scheduler probe's graph-only cycle: Session.Prepare
// then Execute, each timed into preallocated buffers.
type graphLoop struct {
	s       *graph.Session
	sch     sched.Scheduler
	obs     *spanObserver
	prepare *samples // µs
	execute *samples // µs
}

func (l *graphLoop) step() {
	t0 := time.Now()
	l.s.Prepare()
	t1 := time.Now()
	l.sch.Execute()
	t2 := time.Now()
	l.prepare.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
	l.execute.add(float64(t2.Sub(t1).Nanoseconds()) / 1e3)
}

// schedProbe measures the scheduler layer and the node bodies: a
// graph-only loop under busy/threads with the span observer, reduced to
// per-cycle work, waiting (each node's start minus its latest
// predecessor's end, or the cycle start for sources), makespan against
// the critical path under the measured mean node times, idle share, and
// each node family's self time.
func schedProbe(o options, r *report, scale float64, d time.Duration) error {
	s, g, err := graph.BuildDJStar(graphConfig(scale))
	if err != nil {
		return err
	}
	applyDeckInputs(s, deckInputs(o.seed, len(s.Decks)))
	plan, err := g.Compile()
	if err != nil {
		return err
	}
	capacity := min(20000, int(d.Seconds()*maxCyclesPerSecond))
	n := plan.Len()
	l := &graphLoop{s: s, obs: newSpanObserver(n, capacity), prepare: newSamples(capacity), execute: newSamples(capacity)}
	l.sch, err = sched.New(sched.NameBusyWait, plan, sched.Options{Threads: o.threads, Observer: l.obs})
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ { // warm-up; the observer keeps the last capacity cycles only
		l.step()
	}
	l.obs.reset()
	l.prepare.reset()
	l.execute.reset()
	start := time.Now()
	for !l.obs.full() && time.Since(start) < d {
		l.step()
	}
	faults := l.sch.Faults().Recovered
	l.sch.Close()
	cycles := l.obs.cyc

	fam := map[string][]float64{}
	famOf := make([]string, n)
	for i, name := range plan.Names {
		famOf[i] = family(name)
	}
	work := make([]float64, cycles)
	wait := make([]float64, cycles)
	mean := make([]float64, n)
	missing := 0
	famCycle := map[string]float64{}
	for c := 0; c < cycles; c++ {
		clear(famCycle)
		for id := 0; id < n; id++ {
			i := c*n + id
			st, en := l.obs.start[i], l.obs.end[i]
			if en == 0 {
				missing++
				continue
			}
			self := float64(en-st) / 1e3
			work[c] += self
			mean[id] += self
			famCycle[famOf[id]] += self
			ready := l.obs.begin[c]
			for _, p := range plan.PredsOf(int32(id)) {
				ready = max(ready, l.obs.end[c*n+int(p)])
			}
			wait[c] += float64(max(0, st-ready)) / 1e3
		}
		for f, v := range famCycle {
			fam[f] = append(fam[f], v)
		}
	}
	if missing > 0 {
		r.fail("sched probe: %d node executions missing from the spans", missing)
	}
	if faults > 0 {
		r.fail("sched probe: %d node faults", faults)
	}
	r.count(int64(cycles), int64(missing)+faults)
	for id := range mean {
		mean[id] /= float64(max(1, cycles))
	}
	cp := obs.CriticalPath(plan, mean).LengthUS
	exec := median(l.execute.v)
	w := median(work)
	threads := float64(l.sch.Threads())
	r.set("sched.execute_us", "us", exec)
	r.set("sched.work_us", "us", w)
	r.set("sched.cp_us", "us", cp)
	r.set("sched.makespan_over_cp", "ratio", exec/cp)
	r.set("sched.wait_us", "us", median(wait))
	r.set("sched.idle_frac", "frac", 1-w/(exec*threads))
	r.set("sched.gap_ns_per_node", "ns", (exec*threads-w)/float64(n)*1e3)
	r.set("graph.prepare_us", "us", median(l.prepare.v))
	for _, f := range nodeFamilies {
		r.set("node."+f+".self_us", "us", median(fam[f]))
	}
	r.notef("paper: sched.cp_us %.1f (busy/%d, scale %.2f, mean node times over %d cycles) vs 295 us", cp, o.threads, scale, cycles)
	return nil
}

// graphProbe times graph construction (BuildDJStar of the standard
// graph, which synthesizes its tracks), Compile and the admission
// analysis of the compiled plan.
func graphProbe(o options, r *report, scale float64) error {
	cfg := graphConfig(scale)
	var buildMS, compileUS, analyzeMS []float64
	var g *graph.Graph
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		_, g, err = graph.BuildDJStar(cfg)
		if err != nil {
			return err
		}
		buildMS = append(buildMS, time.Since(t0).Seconds()*1e3)
	}
	var plan *graph.Plan
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		var err error
		plan, err = g.Compile()
		if err != nil {
			return err
		}
		compileUS = append(compileUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	// Analyze with the static paper costs at paper scale, so every
	// workload analyzes the same non-trivial cost model.
	costs := rescon.PaperCostsUS(plan)
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		if _, err := admission.Analyze(plan, costs, sched.NameBusyWait, o.threads, "static", admission.Config{}); err != nil {
			return fmt.Errorf("admission: %w", err)
		}
		analyzeMS = append(analyzeMS, time.Since(t0).Seconds()*1e3)
	}
	r.count(int64(len(buildMS)+len(compileUS)+len(analyzeMS)), 0)
	r.set("graph.build_ms", "ms", median(buildMS))
	r.set("graph.compile_us", "us", median(compileUS))
	r.set("admission.analyze_ms", "ms", median(analyzeMS))
	return nil
}

// fleetLayer measures the fleet, pool and /v1 layers on the fleet-churn
// configuration: direct AddSession, RemoveSession and Drain timings, the
// migration gap, pacing, pool interference and per-route /v1 latency.
func fleetLayer(o options, r *report, window time.Duration) error {
	const alone = 1500 * time.Millisecond
	apcCap := int((window.Seconds() + 20) * 400 * float64(fleetResidents()+4))
	rig, err := newFleetRig(o, apcCap, true, alone)
	if err != nil {
		return err
	}
	defer rig.close()
	time.Sleep(fleetWarmup)

	c0 := rig.residentCycles()
	from := graph.NowNanos()
	ops, res, elapsed := rig.churn(o, window)
	to := graph.NowNanos()
	c1 := rig.residentCycles()
	due := elapsed.Seconds() / rig.f.Period().Seconds() * float64(len(rig.residents))
	r.set("fleet.pace_ratio", "ratio", float64(c1-c0)/due)
	r.set("pool.interference", "ratio", median(rig.traces[0].window(from, to))/median(rig.aloneUS))
	for _, route := range v1Routes {
		st := summarizeOps(ops, res, route)
		r.set("v1."+route+"_p50_ms", "ms", st.p50ms)
		r.set("v1."+route+"_p95_ms", "ms", st.p95ms)
	}
	all := summarizeOps(ops, res, "")
	if all.failed > 0 {
		r.fail("%d of %d /v1 ops failed, first: %v", all.failed, all.n, all.firstErr)
	}
	r.count(int64(all.n), int64(all.failed))
	r.set("v1.all_p50_ms", "ms", all.p50ms)
	r.set("v1.all_p95_ms", "ms", all.p95ms)
	noteRoutes(r, ops, res)

	// HTTP overhead: a snapshot over loopback /v1 against a direct
	// Snapshot() call on the same session, sequentially.
	client := newV1Client(rig.srv.Addr(), 1)
	defer client.close()
	target := rig.residents[0]
	eng := rig.f.Session(target).Engine()
	var httpMS, directMS []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if err := client.exec(op{Route: "snapshot", Target: target, After: -1}); err != nil {
			r.fail("snapshot: %v", err)
			r.count(0, 1)
		}
		httpMS = append(httpMS, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		_ = eng.Snapshot()
		directMS = append(directMS, time.Since(t0).Seconds()*1e3)
	}
	r.count(int64(len(httpMS)), 0)
	r.set("v1.http_overhead_ms", "ms", median(httpMS)-median(directMS))

	// Direct drain of the shard hosting resident 0 (the scheduled drain
	// left every resident on one shard): its duration, and the longest
	// gap between consecutive cycles of each migrated session.
	shard := rig.f.Session(target).Shard()
	var moved []int
	for i, id := range rig.residents {
		if rig.f.Session(id).Shard() == shard {
			moved = append(moved, i)
		}
	}
	t0 := time.Now()
	dFrom := graph.NowNanos()
	dr, err := rig.f.Drain(shard)
	dTo := graph.NowNanos()
	drainMS := time.Since(t0).Seconds() * 1e3
	if err != nil || dr.Failed > 0 || dr.Moved != len(moved) {
		r.fail("direct drain: moved %d of %d, failed %d, err %v", dr.Moved, len(moved), dr.Failed, err)
		r.count(0, 1)
	}
	time.Sleep(50 * time.Millisecond) // let every migrated session complete cycles after the move
	gap := 0.0
	for _, i := range moved {
		gap = max(gap, rig.traces[i].maxGapUS(dFrom, dTo+int64(20*time.Millisecond)))
	}
	if err := rig.f.Undrain(shard); err != nil {
		return err
	}
	r.set("fleet.drain_ms", "ms", drainMS)
	r.set("fleet.migration_gap_us", "us", gap)
	r.set("fleet.add_ms", "ms", median(rig.addMS))

	rig.check(r)
	var removeMS []float64
	for _, id := range rig.residents {
		t0 := time.Now()
		if err := rig.f.RemoveSession(id); err != nil {
			r.fail("remove %s: %v", id, err)
			r.count(0, 1)
		}
		removeMS = append(removeMS, time.Since(t0).Seconds()*1e3)
	}
	// The residents' adds and removals, the drain and the undrain.
	r.count(int64(2*len(rig.residents)+2), 0)
	r.set("fleet.remove_ms", "ms", median(removeMS))
	r.notef("fleet: %d residents, schedule %.1f s, %d migrated by the direct drain", len(rig.residents), window.Seconds(), len(moved))
	return nil
}
