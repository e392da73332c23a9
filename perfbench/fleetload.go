package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"djstar/internal/audio"
	"djstar/internal/engine"
	"djstar/internal/fleet"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/synth"
)

// Fleet-churn shape: about 4 resident sessions per core at scale 0.05
// (the sessions-per-core knee measured for the fleet), on 2 CPU-pinned
// shards, each session paced at the 2.902 ms packet clock by its fleet
// driver.
const (
	fleetScale       = 0.05
	fleetShards      = 2
	residentsPerCore = 4
	fleetWarmup      = 500 * time.Millisecond
	fleetClientConns = 2
	// churnTrackBars is the synthesized track length (bars) of sessions
	// created over /v1, as in the fleet load generator (R8,
	// internal/exp/loadgen.go); the standard graph uses 16.
	churnTrackBars = 4
)

func fleetResidents() int { return residentsPerCore * min(runtime.NumCPU(), 4) }

// sessionTrace records one resident session's cycles (APC time and
// completion stamp) from its OnCycle hook. Only the session's driver
// goroutine writes; n publishes the written prefix to readers.
type sessionTrace struct {
	apcUS []float64
	stamp []int64 // graph.NowNanos at the hook
	n     atomic.Int64
}

func newSessionTrace(capacity int) *sessionTrace {
	return &sessionTrace{apcUS: make([]float64, capacity), stamp: make([]int64, capacity)}
}

func (t *sessionTrace) add(apcUS float64) {
	i := t.n.Load()
	if i < int64(len(t.apcUS)) {
		t.apcUS[i] = apcUS
		t.stamp[i] = graph.NowNanos()
		t.n.Store(i + 1)
	}
}

// window returns the APC samples recorded in [from, to) (graph.NowNanos).
func (t *sessionTrace) window(from, to int64) []float64 {
	n := t.n.Load()
	var out []float64
	for i := int64(0); i < n; i++ {
		if t.stamp[i] >= from && t.stamp[i] < to {
			out = append(out, t.apcUS[i])
		}
	}
	return out
}

// maxGapUS is the longest gap between consecutive cycles that completed
// in [from, to], in µs.
func (t *sessionTrace) maxGapUS(from, to int64) float64 {
	n := t.n.Load()
	var gap int64
	for i := int64(1); i < n; i++ {
		if t.stamp[i] >= from && t.stamp[i-1] <= to {
			gap = max(gap, t.stamp[i]-t.stamp[i-1])
		}
	}
	return float64(gap) / 1e3
}

// fleetRig is one set-up fleet: shards, resident sessions, the /v1
// server and the recorders.
type fleetRig struct {
	f         *fleet.Fleet
	srv       *fleet.Server
	residents []string
	apc       *sharedSamples // every session's APCMS (µs) while on
	faults    atomic.Int64
	traces    []*sessionTrace // per resident; nil untraced
	addMS     []float64       // direct AddSession times of every resident but the first
	aloneUS   []float64       // resident 0's APC alone on the fleet (traced)
}

// newFleetRig sets up the fleet-churn system: the shared track library,
// the fleet, the resident sessions and the /v1 server. Callers let the
// sessions run for fleetWarmup before measuring. With
// traced set, residents record per-session traces and resident 0 first
// runs alone for aloneFor.
func newFleetRig(o options, apcCap int, traced bool, aloneFor time.Duration) (*fleetRig, error) {
	rig := &fleetRig{apc: newSharedSamples(apcCap)}
	// The residents share one track library, read-only, synthesized once
	// during set-up. Sessions created over /v1 use the fleet's base
	// config and synthesize their own tracks, as the standard graph
	// does, but only churnTrackBars long: a churned session lives about
	// a second.
	g := graphConfig(fleetScale)
	shared := g
	tracks := synth.StandardDeckTracks(g.TrackBars)
	shared.Tracks = tracks[:]
	g.TrackBars = churnTrackBars
	base := engine.Config{
		Graph: g,
		Hooks: engine.Hooks{
			OnCycle: func(ci engine.CycleInfo) { rig.apc.add(ci.APCMS * 1e3) },
			OnFault: func(sched.FaultRecord) { rig.faults.Add(1) },
		},
	}
	f, err := fleet.New(fleet.Config{Shards: fleetShards, Engine: base})
	if err != nil {
		return nil, err
	}
	rig.f = f
	n := fleetResidents()
	// A paced session completes about 345 cycles/s; the traced run
	// records from creation through the schedule, the drain and removal.
	capPer := int((aloneFor.Seconds() + o.seconds + 60) * 400)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("res-%d", i)
		spec := engine.SessionSpec{ID: id, Graph: &shared}
		if traced {
			tr := newSessionTrace(capPer)
			rig.traces = append(rig.traces, tr)
			spec.Hooks.OnCycle = func(ci engine.CycleInfo) {
				us := ci.APCMS * 1e3
				rig.apc.add(us)
				tr.add(us)
			}
		}
		t0 := time.Now()
		if _, _, err := f.AddSession(spec); err != nil {
			rig.close()
			return nil, fmt.Errorf("resident %s: %w", id, err)
		}
		if i > 0 {
			rig.addMS = append(rig.addMS, time.Since(t0).Seconds()*1e3)
		}
		if i == 0 && traced {
			time.Sleep(fleetWarmup)
			from := graph.NowNanos()
			time.Sleep(aloneFor)
			rig.aloneUS = rig.traces[0].window(from, graph.NowNanos())
		}
		rig.residents = append(rig.residents, id)
	}
	rig.srv, err = f.Serve("127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// close stops the server, every session and the shards; it may be
// called more than once.
func (rig *fleetRig) close() {
	if rig.srv != nil {
		_ = rig.srv.Close() // the server goes down with the fleet: nothing to report
	}
	rig.f.Close()
}

// residentCycles sums the residents' engine cycle counts.
func (rig *fleetRig) residentCycles() uint64 {
	var n uint64
	for _, id := range rig.residents {
		if s := rig.f.Session(id); s != nil {
			n += s.Engine().Cycles()
		}
	}
	return n
}

// churn runs the seeded open-loop /v1 schedule over the window while
// recording every session's APC.
func (rig *fleetRig) churn(o options, window time.Duration) (ops []op, res []opResult, elapsed time.Duration) {
	ops = fleetOps(o.seed, window, rig.residents, "churn-")
	client := newV1Client(rig.srv.Addr(), fleetClientConns)
	defer client.close()
	rig.apc.on.Store(true)
	start := time.Now()
	res = runOpenLoop(ops, fleetClientConns, client.exec)
	elapsed = time.Since(start)
	rig.apc.on.Store(false)
	return ops, res, elapsed
}

// check verifies the fleet after the churn: no node faults (each a
// failed cycle), every resident still hosted, no dropped samples.
func (rig *fleetRig) check(r *report) {
	if n := rig.faults.Load(); n > 0 {
		r.fail("%d node faults in fleet sessions", n)
		r.count(0, n)
	}
	for _, id := range rig.residents {
		if rig.f.Session(id) == nil {
			r.fail("resident %s is gone", id)
			r.count(0, 1)
		}
	}
	if d := rig.apc.dropped(); d > 0 {
		r.fail("%d APC samples dropped", d)
	}
}

// runFleet is the untraced fleet-churn run.
func runFleet(o options, r *report) error {
	window := time.Duration(o.seconds * float64(time.Second))
	apcCap := int((o.seconds + 10) * 400 * float64(fleetResidents()+4))
	var setupS []float64
	var rig *fleetRig
	calibration() // once per process, not part of any set-up
	for k := 0; k < setupReps; k++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC() // every set-up starts from a heap without the previous fleet
		t0 := time.Now()
		var err error
		rig, err = newFleetRig(o, apcCap, false, 0)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer rig.close()
	runtime.GC() // collect the discarded set-ups before measuring
	time.Sleep(fleetWarmup)

	ops, res, elapsed := rig.churn(o, window)
	rig.check(r)
	rig.close() // stop every session driver before reading their samples
	all := summarizeOps(ops, res, "")
	if all.failed > 0 {
		r.fail("%d of %d /v1 ops failed, first: %v", all.failed, all.n, all.firstErr)
	}
	apc := rig.apc.values()
	cycles := rig.apc.count()
	r.count(cycles+int64(all.n), int64(all.failed))

	r.set("apc_p50_us", "us", median(apc))
	// Every session is paced at the packet clock, so this reads about
	// residents × 344.6/s: it only drops when the shards fall behind.
	r.set("cycles_per_s", "1/s", float64(cycles)/elapsed.Seconds())
	r.set("setup_s", "s", median(setupS))

	r.notef("workload %s: %d shards, %d residents at scale %.2f paced at %.3f ms, %d session cycles in %.2f s",
		o.workload, fleetShards, len(rig.residents), fleetScale, audio.StandardPacketPeriod.Seconds()*1e3, cycles, elapsed.Seconds())
	noteTail(r, apc, "session_apc_us")
	noteMisses(r, apc, fmt.Sprintf("%d residents plus churn on %d pool shards, scale %.2f", len(rig.residents), fleetShards, fleetScale))
	noteRoutes(r, ops, res)
	return nil
}

// noteRoutes reports each route's count, failures and latency, and how
// late the generator ran.
func noteRoutes(r *report, ops []op, res []opResult) {
	all := summarizeOps(ops, res, "")
	r.notef("ctl: %d ops open loop over %d connections, %d failed, generator lateness p50 %.2f ms max %.2f ms",
		all.n, fleetClientConns, all.failed, median(all.generatorLates), all.maxLateMS)
	for _, route := range append(v1Routes, "undrain") {
		st := summarizeOps(ops, res, route)
		r.notef("ctl %-8s n=%-3d failed=%d p50 %.2f ms p95 %.2f ms", route, st.n, st.failed, st.p50ms, st.p95ms)
	}
}
