package engine

import (
	"fmt"
	"sync"

	"djstar/internal/admission"
	"djstar/internal/sched"
)

// MultiEngine owns N engines attached as sessions to one shared
// sched.Pool worker pool — the "serve many concurrent users from one
// process" direction the single-engine design cannot express, since
// every strategy scheduler owns a private goroutine pool. Each session
// keeps its own graph, decks, mixer and timecode front end; only the
// execution workers are shared. Per-session cycle serialization is
// preserved (each session is driven by exactly one goroutine), while
// sessions execute concurrently over the pool.
//
// With cfg.Admission.Enabled, all sessions share one
// admission.Controller sized for the pool: each AddSession (and each
// construction-time session) is gated on the AGGREGATE bound — its own
// critical path plus its share of every session's work on the shared
// workers — and refused (admission.ErrOverBudget) when any session's
// aggregate bound would leave the envelope.
type MultiEngine struct {
	cfg     Config
	pool    *sched.Pool
	ctl     *admission.Controller
	engines []*Engine
	// seq is the next auto-assigned session ID. Monotonic — IDs are
	// never reused, so metric series and /v1 resources stay stable for a
	// session's whole life.
	seq    int
	closed bool
}

// NewMulti builds sessions engines over a fresh shared pool with the
// given helper worker count. Each engine's Config is resolved from cfg
// as the base of a zero SessionSpec (see AddSession); cfg.Strategy and
// cfg.Threads are ignored. DisableGC is applied at most once (the
// setting is process-wide).
func NewMulti(cfg Config, sessions, workers int) (*MultiEngine, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("engine: sessions = %d, want >= 1", sessions)
	}
	// Slots are cheap; leave headroom so AddSession can grow the group
	// past the boot count without hitting ErrPoolFull.
	capacity := sessions * 2
	if capacity < 8 {
		capacity = 8
	}
	pool, err := sched.NewPool(workers, capacity)
	if err != nil {
		return nil, err
	}
	m := &MultiEngine{cfg: cfg, pool: pool}
	if cfg.Admission.Enabled {
		m.ctl = cfg.Admission.Controller
		if m.ctl == nil {
			acfg := cfg.Admission.Config
			if acfg.BaseUS == 0 {
				acfg.BaseUS = SessionBaseUS(cfg.Graph.Scale)
			}
			// Like the per-session gate, count processors, not workers:
			// the hardware caps the pool's real parallelism.
			m.ctl = admission.NewController(effectiveProcs(workers+1), acfg)
		}
	}
	for i := 0; i < sessions; i++ {
		if _, err := m.AddSession(); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// AddSession attaches one more session to the shared pool — the dynamic
// growth path the admission gate exists for. The optional spec carries
// the session's knobs (ID, fusion, margin, hooks); omitted, the session
// takes the container defaults with an auto-assigned monotonic ID. With
// admission enabled the session is held against the pool's aggregate
// bound first; the error wraps admission.ErrOverBudget on an analytical
// refusal and sched.ErrPoolFull when the pool's slots are exhausted.
func (m *MultiEngine) AddSession(spec ...SessionSpec) (*Engine, error) {
	if m.closed {
		return nil, fmt.Errorf("engine: AddSession after Close")
	}
	if len(spec) > 1 {
		return nil, fmt.Errorf("engine: AddSession takes at most one spec, got %d", len(spec))
	}
	var sp SessionSpec
	if len(spec) == 1 {
		sp = spec[0]
	}
	if sp.ID == "" {
		sp.ID = fmt.Sprintf("%d", m.seq)
	}
	first := m.seq == 0
	m.seq++
	c := sp.Resolve(m.cfg)
	c.Pool = m.pool
	c.Strategy = sched.NamePool
	c.Admission.Controller = m.ctl
	if !first {
		c.DisableGC = false
	}
	e, err := New(c)
	if err != nil {
		return nil, err
	}
	m.engines = append(m.engines, e)
	return e, nil
}

// Pool exposes the shared worker pool.
func (m *MultiEngine) Pool() *sched.Pool { return m.pool }

// Controller exposes the shared admission controller (nil when the
// gate is disabled).
func (m *MultiEngine) Controller() *admission.Controller { return m.ctl }

// Engines exposes the per-session engines (e.g. for live control of one
// session while others keep running).
func (m *MultiEngine) Engines() []*Engine { return m.engines }

// RunCyclesConcurrent executes n audio processing cycles on every
// session concurrently — one driving goroutine per session, all sharing
// the pool's workers — and returns per-session metrics in session order.
func (m *MultiEngine) RunCyclesConcurrent(n int) []*Metrics {
	out := make([]*Metrics, len(m.engines))
	var wg sync.WaitGroup
	for i, e := range m.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			out[i] = e.RunCycles(n)
		}(i, e)
	}
	wg.Wait()
	return out
}

// Close shuts down every session and the shared pool. Idempotent.
func (m *MultiEngine) Close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, e := range m.engines {
		e.Close()
	}
	m.pool.Close()
}
