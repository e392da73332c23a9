package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"djstar/internal/apiv1"
	"djstar/internal/obs"
	"djstar/internal/telemetry"
)

// Handler serves the given engines over HTTP (djstar -http):
//
//	/debug/pprof/                    – the standard pprof index and profiles
//	GET  /v1/sessions                – list every engine's session
//	GET  /v1/sessions/{id}           – session summary
//	/v1/sessions/{id}/...            – the per-session routes (SessionRoutes)
//	GET  /metrics                    – telemetry of every session in
//	                                   OpenMetrics text format
//
// {id} is an engine's SessionID (GET /v1/sessions to discover them);
// anything else is 404. Handlers read engine state through
// Snapshot/Collector only, so serving never touches the audio path.
func Handler(engines ...*Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	lookup := func(id string) *Engine {
		for _, e := range engines {
			if e.SessionID() == id {
				return e
			}
		}
		return nil
	}
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		list := apiv1.SessionList{Sessions: []apiv1.Session{}}
		for _, e := range engines {
			list.Sessions = append(list.Sessions, V1Session(e))
		}
		apiv1.WriteJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", withEngine(lookup, func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		apiv1.WriteJSON(w, http.StatusOK, V1Session(e))
	}))
	SessionRoutes(mux, lookup)

	reg := telemetry.NewRegistry()
	for _, e := range engines {
		reg.Add(e.Telemetry())
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if len(reg.Collectors()) == 0 {
			apiv1.WriteJSON(w, http.StatusServiceUnavailable, apiv1.Error{Error: "telemetry disabled"})
			return
		}
		reg.Handler().ServeHTTP(w, r)
	})
	return mux
}

// SessionRoutes registers the per-session /v1 routes on mux, shared by
// Handler and the fleet control plane:
//
//	GET  /v1/sessions/{id}/snapshot  – full engine.Snapshot JSON (versioned)
//	GET  /v1/sessions/{id}/critpath  – measured critical path JSON
//	GET  /v1/sessions/{id}/trace     – sampled cycles as Chrome trace JSON
//	GET  /v1/sessions/{id}/slo       – deadline-miss budget status JSON
//	POST /v1/sessions/{id}/edits     – stage a live graph edit {"patch":...}
//	POST /v1/sessions/{id}/retune    – live knobs {"load_factor":...}
//
// lookup resolves {id}; a nil result answers 404.
func SessionRoutes(mux *http.ServeMux, lookup func(id string) *Engine) {
	route := func(pattern string, h func(http.ResponseWriter, *http.Request, *Engine)) {
		mux.HandleFunc(pattern, withEngine(lookup, h))
	}
	route("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		apiv1.WriteJSON(w, http.StatusOK, e.Snapshot())
	})
	route("GET /v1/sessions/{id}/critpath", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		ps, ok := e.CriticalPath()
		if !ok {
			apiv1.WriteJSON(w, http.StatusServiceUnavailable, apiv1.Error{Error: "no observability data yet"})
			return
		}
		apiv1.WriteJSON(w, http.StatusOK, ps)
	})
	route("GET /v1/sessions/{id}/trace", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		// One topology load keeps the plan and collector from one epoch.
		t := e.topo.Load()
		if t.col == nil {
			apiv1.WriteJSON(w, http.StatusServiceUnavailable, apiv1.Error{Error: "observability disabled"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, t.plan, t.col.Traces())
	})
	route("GET /v1/sessions/{id}/slo", func(w http.ResponseWriter, _ *http.Request, e *Engine) {
		tel := e.Telemetry()
		if tel == nil {
			apiv1.WriteJSON(w, http.StatusServiceUnavailable, apiv1.Error{Error: "telemetry disabled"})
			return
		}
		apiv1.WriteJSON(w, http.StatusOK, tel.SLO())
	})
	route("POST /v1/sessions/{id}/edits", func(w http.ResponseWriter, r *http.Request, e *Engine) {
		var req apiv1.EditRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Patch == "" {
			apiv1.WriteJSON(w, http.StatusBadRequest, apiv1.Error{Error: `body must be {"patch":"<spec>"}`})
			return
		}
		if err := e.ApplyPatch(req.Patch); err != nil {
			apiv1.WriteJSON(w, http.StatusUnprocessableEntity, apiv1.EditResponse{Epoch: e.PlanEpoch(), Error: err.Error()})
			return
		}
		// The edit is staged; adoption happens at the next cycle boundary
		// (watch plan_epoch in the snapshot).
		apiv1.WriteJSON(w, http.StatusOK, apiv1.EditResponse{OK: true, Staged: true, Epoch: e.PlanEpoch()})
	})
	route("POST /v1/sessions/{id}/retune", func(w http.ResponseWriter, r *http.Request, e *Engine) {
		var req apiv1.RetuneRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			apiv1.WriteJSON(w, http.StatusBadRequest, apiv1.Error{Error: "malformed retune body: " + err.Error()})
			return
		}
		if req.LoadFactor != nil {
			if *req.LoadFactor <= 0 {
				apiv1.WriteJSON(w, http.StatusUnprocessableEntity, apiv1.Error{Error: "load_factor must be > 0"})
				return
			}
			e.SetLoadFactor(*req.LoadFactor)
		}
		for d, speed := range req.TurntableSpeed {
			e.SetTurntableSpeed(d, speed)
		}
		apiv1.WriteJSON(w, http.StatusOK, apiv1.RetuneResponse{OK: true, LoadFactor: e.LoadFactor()})
	})
}

// withEngine resolves the {id} path value through lookup and 404s
// unknown sessions.
func withEngine(lookup func(string) *Engine, h func(http.ResponseWriter, *http.Request, *Engine)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e := lookup(r.PathValue("id"))
		if e == nil {
			apiv1.WriteJSON(w, http.StatusNotFound, apiv1.Error{Error: fmt.Sprintf("no session %q", r.PathValue("id"))})
			return
		}
		h(w, r, e)
	}
}

// V1Session assembles the /v1 session summary for one engine. Fleet
// servers use it too, filling in the shard afterwards.
func V1Session(e *Engine) apiv1.Session {
	snap := e.Snapshot()
	s := apiv1.Session{
		ID:        snap.SessionID,
		Shard:     -1,
		Strategy:  snap.Strategy,
		Threads:   snap.Threads,
		Cycles:    snap.Cycles,
		PlanEpoch: snap.PlanEpoch,
		APCMeanMS: snap.APCMeanMS,
		MissRate:  snap.MissRate,
		GovLevel:  snap.Health.Level.String(),
		SLO:       snap.SLO,
	}
	if sh, err := strconv.Atoi(snap.Shard); err == nil {
		s.Shard = sh
	}
	if a := snap.Admission; a != nil {
		s.Verdict = a.Verdict
		if a.Report != nil {
			s.BoundUS = a.Report.BoundUS
			s.HeadroomUS = a.Report.HeadroomUS
		}
	}
	return s
}
