package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/sched"
	"djstar/internal/stats"
)

// apcShape is an APC workload's graph scale and warm-up length.
type apcShape struct {
	scale  float64
	warmup int // cycles run before measuring (and replayed by the reference)
}

// setupCycles is the part of the warm-up that setup_s times: the first
// cycles, which pay the engine's first-touch costs. The rest of the
// warm-up only lets the loop settle; timing it would bury construction
// under a fixed number of topped-up cycles.
const setupCycles = 16

func shapeOf(workload string) apcShape {
	if workload == wlPaper {
		// Paper scale: node bodies and TP/GP/VC are topped up to the
		// paper's cost targets.
		return apcShape{scale: 1, warmup: 400}
	}
	// Scale 0: no top-ups, only the real DSP kernels and dispatch.
	return apcShape{scale: 0, warmup: 4000}
}

// setupReps is how many times a run sets up its system; setup_s is the
// median over them.
const setupReps = 5

// maxCyclesPerSecond sizes the preallocated per-cycle buffers (the
// fastest closed loop, dsp-pure, runs about 9k cycles/s on a 2-vCPU
// Xeon).
const maxCyclesPerSecond = 25000

// calibration is the spin-loop calibration, measured once per process.
var calibration = sync.OnceValue(graph.Calibrate)

// graphConfig is the standard 67-node, 4-deck graph at the given scale.
func graphConfig(scale float64) graph.Config {
	g := graph.DefaultConfig()
	g.Scale = scale
	g.Calibration = calibration()
	return g
}

// newAPCEngine builds an engine over the standard graph and applies the
// seed's deck inputs before the first cycle. tweak, when set, adjusts
// the config (hooks, disabled sinks).
func newAPCEngine(o options, scale float64, strategy string, tweak func(*engine.Config)) (*engine.Engine, error) {
	cfg := engine.Config{Graph: graphConfig(scale), Strategy: strategy, Threads: o.threads}
	if tweak != nil {
		tweak(&cfg)
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	applyDeckInputs(e.Session(), deckInputs(o.seed, cfg.Graph.Decks))
	return e, nil
}

// closedLoop runs back-to-back Engine.Cycle calls from one caller, the
// paper's evaluation mode. step records the cycle's outer time and its
// output hash into preallocated buffers and does not allocate.
type closedLoop struct {
	e      *engine.Engine
	lat    *samples // outer Engine.Cycle time per cycle, µs
	hashes []uint64 // MasterOut hash per cycle
	// after, when set, runs after each cycle's timing with the outer
	// time (the traced engine probe uses it).
	after func(outerUS float64)
}

// newClosedLoop returns a loop over e recording into lat, with room for
// capacity cycles' hashes.
func newClosedLoop(e *engine.Engine, lat *samples, capacity int) *closedLoop {
	return &closedLoop{e: e, lat: lat, hashes: make([]uint64, 0, capacity)}
}

func (l *closedLoop) full() bool { return len(l.hashes) == cap(l.hashes) }

func (l *closedLoop) step() {
	t0 := time.Now()
	l.e.Cycle(nil)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	l.lat.add(us)
	if l.after != nil {
		l.after(us)
	}
	// Hashing runs outside the timed interval.
	l.hashes = append(l.hashes, hashStereo(l.e.Session().MasterOut()))
}

// run steps until d has elapsed or the buffers are full and returns the
// elapsed time.
func (l *closedLoop) run(d time.Duration) time.Duration {
	start := time.Now()
	for !l.full() && time.Since(start) < d {
		l.step()
	}
	return time.Since(start)
}

func warmUp(e *engine.Engine, cycles int) {
	for i := 0; i < cycles; i++ {
		e.Cycle(nil)
	}
}

// referenceHashes replays the seed's inputs under the sequential
// strategy at scale 0 and returns the MasterOut hash of cycles
// skip..skip+n-1. Scale only sets spin top-ups, never audio, so the
// scale-0 sequential stream is the reference for every strategy and
// scale (TestScaleDoesNotChangeOutput).
func referenceHashes(o options, skip, n int) ([]uint64, error) {
	e, err := newAPCEngine(o, 0, sched.NameSequential, nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	warmUp(e, skip)
	out := make([]uint64, n)
	for i := range out {
		e.Cycle(nil)
		out[i] = hashStereo(e.Session().MasterOut())
	}
	return out, nil
}

// mismatches counts cycles whose hash differs from the reference.
func mismatches(got, ref []uint64) int64 {
	var n int64
	for i := range got {
		if got[i] != ref[i] {
			n++
		}
	}
	return n
}

// checkFaults counts node faults the scheduler recovered; any is a
// failed cycle.
func checkFaults(r *report, e *engine.Engine, what string) int64 {
	f := e.Scheduler().Faults()
	if f.Recovered > 0 || f.Quarantined > 0 {
		r.fail("%s: %d node faults recovered, %d quarantines", what, f.Recovered, f.Quarantined)
	}
	return f.Recovered
}

// runAPC is the untraced APC run (apc-paper, dsp-pure). It sets an
// engine up setupReps times, one at a time, and runs each in the closed
// loop for an equal share of o.seconds, pooling the samples, so no
// single engine's memory layout or turn on a noisy host sets the result.
func runAPC(o options, r *report) error {
	sh := shapeOf(o.workload)
	slice := time.Duration(o.seconds / setupReps * float64(time.Second))
	lat := newSamples(int(o.seconds * maxCyclesPerSecond))
	var createMS, setupS, engineP50, engineRate []float64
	var streams [][]uint64
	var faults int64
	calibration() // once per process, not part of any set-up
	for k := 0; k < setupReps; k++ {
		runtime.GC() // every set-up starts from a heap without the previous engine
		t0 := time.Now()
		e, err := newAPCEngine(o, sh.scale, sched.NameBusyWait, nil)
		if err != nil {
			return err
		}
		createMS = append(createMS, time.Since(t0).Seconds()*1e3)
		warmUp(e, setupCycles)
		setupS = append(setupS, time.Since(t0).Seconds())
		warmUp(e, sh.warmup-setupCycles)
		runtime.GC() // collect the set-up's garbage before measuring

		loop := newClosedLoop(e, lat, int(slice.Seconds()*maxCyclesPerSecond))
		first := len(lat.v)
		elapsed := loop.run(slice)
		engineP50 = append(engineP50, median(lat.v[first:]))
		engineRate = append(engineRate, float64(len(loop.hashes))/elapsed.Seconds())
		faults += checkFaults(r, e, "closed loop")
		e.Close()
		streams = append(streams, loop.hashes)
	}
	bad, err := checkStreams(o, r, sh.warmup, streams)
	if err != nil {
		return err
	}
	if lat.dropped > 0 {
		r.fail("%d cycle samples dropped", lat.dropped)
	}
	cycles := int64(len(lat.v))
	r.count(cycles, max(bad, faults))

	p50 := median(lat.v)
	r.set("apc_p50_us", "us", p50)
	// The median engine's throughput: a burst of host noise during one
	// engine's turn does not move it.
	r.set("cycles_per_s", "1/s", median(engineRate))
	r.set("setup_s", "s", median(setupS))

	r.notef("workload %s: busy/%d, scale %.2f, closed loop on %d engines in turn, %d cycles, output hashes equal the seq reference: %v",
		o.workload, o.threads, sh.scale, setupReps, cycles, bad == 0)
	r.notef("diag: per engine apc_us p50 %.1f, cycles/s %.0f", engineP50, engineRate)
	r.notef("diag: create (engine construction) p50 %.1f ms over %d set-ups", median(createMS), len(createMS))
	noteTail(r, lat.v, "apc_us")
	noteMisses(r, lat.v, fmt.Sprintf("busy/%d, scale %.2f", o.threads, sh.scale))
	r.notef("paper: apc_p50_us %.1f (busy/%d, scale %.2f) vs 452 us mean (BUSY/4, paper's host)",
		p50, o.threads, sh.scale)
	return nil
}

// checkStreams compares the output hash streams of engines that each
// replayed the seed from its first cycle (after warmup cycles) with one
// sequential reference, and returns the number of mismatching cycles.
func checkStreams(o options, r *report, warmup int, streams [][]uint64) (int64, error) {
	longest := 0
	for _, h := range streams {
		longest = max(longest, len(h))
	}
	ref, err := referenceHashes(o, warmup, longest)
	if err != nil {
		return 0, err
	}
	var bad int64
	for i, h := range streams {
		if n := mismatches(h, ref[:len(h)]); n > 0 {
			r.fail("engine %d: %d of %d cycles differ from the sequential reference", i, n, len(h))
			bad += n
		}
	}
	return bad, nil
}

// noteTail reports the high percentiles as diagnostics, with the number
// of samples beyond each.
func noteTail(r *report, xs []float64, name string) {
	n := len(xs)
	qs := []float64{0.95, 0.99, 0.999}
	for i, v := range stats.Percentiles(xs, qs...) {
		beyond := int(float64(n) * (1 - qs[i]))
		r.notef("diag: %s p%g = %.1f (n=%d, %d samples beyond)", name, qs[i]*100, v, n, beyond)
	}
}

// noteMisses reports deadline misses per 10k cycles against the paper's
// budget of 5; what names the configuration (strategy, threads, scale).
func noteMisses(r *report, apcUS []float64, what string) {
	var miss int
	for _, v := range apcUS {
		if v > engine.DeadlineMS*1e3 {
			miss++
		}
	}
	per10k := 0.0
	if len(apcUS) > 0 {
		per10k = float64(miss) / float64(len(apcUS)) * 1e4
	}
	r.notef("paper: misses_per_10k %.1f (%s; %d of %d cycles over %.3f ms) vs 5 budget", per10k, what, miss, len(apcUS), engine.DeadlineMS)
}
