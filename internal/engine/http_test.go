package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"djstar/internal/apiv1"
	"djstar/internal/obs"
	"djstar/internal/sched"
	"djstar/internal/telemetry"
)

// httpGet fetches base+path, fails the test unless the status is want,
// and returns the body.
func httpGet(t *testing.T, base, path string, want int) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: %s, want %d: %s", path, resp.Status, want, body)
	}
	return body
}

func TestHandlerEndpoints(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 64; i++ {
		e.Cycle(nil)
	}

	srv, err := apiv1.Serve("127.0.0.1:0", Handler(e))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	get := func(path string) []byte { return httpGet(t, base, path, http.StatusOK) }

	var snap Snapshot
	if err := json.Unmarshal(get("/v1/sessions/0/snapshot"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SnapshotSchemaVersion || snap.Cycles != 64 {
		t.Fatalf("snapshot over HTTP: %+v", snap)
	}

	var ps obs.PathStat
	if err := json.Unmarshal(get("/v1/sessions/0/critpath"), &ps); err != nil {
		t.Fatal(err)
	}
	if ps.LengthUS <= 0 || len(ps.Nodes) == 0 {
		t.Fatalf("critpath over HTTP: %+v", ps)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/v1/sessions/0/trace"), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace endpoint returned no events (64 cycles at default sampling should produce 2 samples)")
	}

	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof endpoint empty")
	}
}

func TestEngineMetricsEndpoint(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(20)
	ts := httptest.NewServer(Handler(e))
	defer ts.Close()

	text := string(httpGet(t, ts.URL, "/metrics", http.StatusOK))
	for _, want := range []string{
		`djstar_cycles_total{strategy="busy",session="0"} 20`,
		"djstar_apc_seconds_bucket",
		"# EOF",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestEngineMetricsEndpointDisabledTelemetry(t *testing.T) {
	cfg := fastConfig(sched.NameSequential, 1)
	cfg.Telemetry.Disable = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Telemetry() != nil {
		t.Fatal("Telemetry() non-nil with Disable set")
	}
	ts := httptest.NewServer(Handler(e))
	defer ts.Close()
	httpGet(t, ts.URL, "/metrics", http.StatusServiceUnavailable)
	httpGet(t, ts.URL, "/v1/sessions/0/slo", http.StatusServiceUnavailable)
}

// TestSessionSLORoute checks GET /v1/sessions/{id}/slo serves the
// session's deadline-miss budget: the paper's 5 per 10k cycles.
func TestSessionSLORoute(t *testing.T) {
	e, err := New(fastConfig(sched.NameBusyWait, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunCycles(30)
	ts := httptest.NewServer(Handler(e))
	defer ts.Close()

	var slo telemetry.SLOStatus
	if err := json.Unmarshal(httpGet(t, ts.URL, "/v1/sessions/0/slo", http.StatusOK), &slo); err != nil {
		t.Fatal(err)
	}
	if slo.TargetPer10k != 5 || slo.TotalCycles != 30 {
		t.Fatalf("slo over HTTP: %+v, want target 5/10k over 30 cycles", slo)
	}
}

// TestHandlerListsEverySession serves two engines from one handler:
// both are listed, each ID reaches its own engine, and an unknown ID is
// 404 on every per-session route.
func TestHandlerListsEverySession(t *testing.T) {
	var engines []*Engine
	for _, id := range []string{"a", "b"} {
		cfg := fastConfig(sched.NameSequential, 1)
		cfg.Telemetry.Session = id
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines = append(engines, e)
	}
	engines[1].RunCycles(3)
	ts := httptest.NewServer(Handler(engines...))
	defer ts.Close()

	var list apiv1.SessionList
	if err := json.Unmarshal(httpGet(t, ts.URL, "/v1/sessions", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 || list.Sessions[0].ID != "a" || list.Sessions[1].ID != "b" {
		t.Fatalf("session list %+v, want a and b", list.Sessions)
	}
	var s apiv1.Session
	if err := json.Unmarshal(httpGet(t, ts.URL, "/v1/sessions/b", http.StatusOK), &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != "b" || s.Cycles != 3 || s.Shard != -1 {
		t.Fatalf("session b summary %+v", s)
	}
	var snap Snapshot
	if err := json.Unmarshal(httpGet(t, ts.URL, "/v1/sessions/a/snapshot", http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SessionID != "a" || snap.Cycles != 0 {
		t.Fatalf("session a snapshot: id %q, %d cycles", snap.SessionID, snap.Cycles)
	}
	text := string(httpGet(t, ts.URL, "/metrics", http.StatusOK))
	for _, id := range []string{"a", "b"} {
		if !strings.Contains(text, `session="`+id+`"`) {
			t.Fatalf("/metrics missing session %q", id)
		}
	}
	for _, path := range []string{"", "/snapshot", "/critpath", "/trace", "/slo"} {
		httpGet(t, ts.URL, "/v1/sessions/nope"+path, http.StatusNotFound)
	}
}
