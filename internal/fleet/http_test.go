package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"djstar/internal/apiv1"
	"djstar/internal/engine"
	"djstar/internal/telemetry"
)

// TestControlPlane drives a two-shard fleet through the full /v1
// lifecycle over HTTP: create (with placement justification), list,
// snapshot, retune, edit, shard rollups, drain, undrain, destroy.
func TestControlPlane(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	do := func(method, path string, body any, wantCode int, out any) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, wantCode, raw)
		}
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatalf("%s %s: bad JSON: %v: %s", method, path, err, raw)
			}
		}
	}

	// Create two sessions; the response must justify the placement.
	var created apiv1.CreateSessionResponse
	do("POST", "/v1/sessions", apiv1.CreateSessionRequest{}, http.StatusCreated, &created)
	if created.Session.ID == "" || created.Placement.Shard < 0 || len(created.Placement.Candidates) != 2 {
		t.Fatalf("create response %+v", created)
	}
	if created.Session.Verdict != "admit" {
		t.Fatalf("verdict = %q", created.Session.Verdict)
	}
	var second apiv1.CreateSessionResponse
	do("POST", "/v1/sessions", apiv1.CreateSessionRequest{ID: "named"}, http.StatusCreated, &second)
	if second.Session.ID != "named" {
		t.Fatalf("requested ID ignored: %+v", second.Session)
	}
	do("POST", "/v1/sessions", apiv1.CreateSessionRequest{ID: "named"}, http.StatusConflict, nil)

	var list apiv1.SessionList
	do("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions", len(list.Sessions))
	}
	do("GET", "/v1/sessions/nope", nil, http.StatusNotFound, nil)

	var snap engine.Snapshot
	do("GET", fmt.Sprintf("/v1/sessions/%s/snapshot", created.Session.ID), nil, http.StatusOK, &snap)
	if snap.SchemaVersion != engine.SnapshotSchemaVersion || snap.SessionID != created.Session.ID {
		t.Fatalf("snapshot v%d session %q", snap.SchemaVersion, snap.SessionID)
	}

	lf := 1.5
	var ret apiv1.RetuneResponse
	do("POST", fmt.Sprintf("/v1/sessions/%s/retune", created.Session.ID),
		apiv1.RetuneRequest{LoadFactor: &lf}, http.StatusOK, &ret)
	if !ret.OK || ret.LoadFactor != 1.5 {
		t.Fatalf("retune %+v", ret)
	}

	var edit apiv1.EditResponse
	do("POST", fmt.Sprintf("/v1/sessions/%s/edits", created.Session.ID),
		apiv1.EditRequest{Patch: "insert-delay:B:2"}, http.StatusOK, &edit)
	if !edit.OK || !edit.Staged {
		t.Fatalf("edit %+v", edit)
	}

	var shards apiv1.ShardList
	do("GET", "/v1/shards", nil, http.StatusOK, &shards)
	if len(shards.Shards) != 2 {
		t.Fatalf("%d shards", len(shards.Shards))
	}
	for _, sh := range shards.Shards {
		if sh.SLO.TargetPer10k != 5 {
			t.Fatalf("shard %d SLO target %v", sh.ID, sh.SLO.TargetPer10k)
		}
	}

	// Drain whichever shard hosts the first session; it must move.
	src := created.Session.Shard
	var dr apiv1.DrainResponse
	do("POST", fmt.Sprintf("/v1/shards/%d/drain", src), nil, http.StatusOK, &dr)
	if dr.Moved < 1 || dr.Failed != 0 {
		t.Fatalf("drain %+v", dr)
	}
	var moved apiv1.Session
	do("GET", "/v1/sessions/"+created.Session.ID, nil, http.StatusOK, &moved)
	if moved.Shard == src {
		t.Fatalf("session still on drained shard %d", src)
	}
	var shard apiv1.Shard
	do("GET", fmt.Sprintf("/v1/shards/%d", src), nil, http.StatusOK, &shard)
	if !shard.Draining || shard.Sessions != 0 {
		t.Fatalf("drained shard %+v", shard)
	}
	do("DELETE", fmt.Sprintf("/v1/shards/%d/drain", src), nil, http.StatusNoContent, nil)

	// Metrics exposition covers every session with its session label.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `session="named"`) || !strings.Contains(body, "# EOF") {
		t.Fatalf("/metrics missing session labels or EOF:\n%.400s", body)
	}

	do("DELETE", "/v1/sessions/"+created.Session.ID, nil, http.StatusNoContent, nil)
	do("GET", "/v1/sessions/"+created.Session.ID, nil, http.StatusNotFound, nil)
	do("GET", "/v1/shards/9", nil, http.StatusNotFound, nil)
}

// TestSessionObservabilityRoutes checks the fleet serves the shared
// per-session observability routes: slo (the paper's 5-per-10k budget),
// trace and critpath, with 404 for an unknown session.
func TestSessionObservabilityRoutes(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, _, err := f.AddSession(engine.SessionSpec{ID: "obs"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	code, raw := get("/v1/sessions/obs/slo")
	var slo telemetry.SLOStatus
	if code != http.StatusOK {
		t.Fatalf("GET slo = %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &slo); err != nil {
		t.Fatal(err)
	}
	if slo.TargetPer10k != 5 {
		t.Fatalf("session %s SLO target %v, want 5", s.ID(), slo.TargetPer10k)
	}
	if code, raw := get("/v1/sessions/obs/trace"); code != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", code, raw)
	}
	// The critical path is 503 until the first sampled cycle lands.
	if code, raw := get("/v1/sessions/obs/critpath"); code != http.StatusOK && code != http.StatusServiceUnavailable {
		t.Fatalf("GET critpath = %d: %s", code, raw)
	}
	if code, _ := get("/v1/sessions/nope/slo"); code != http.StatusNotFound {
		t.Fatalf("GET slo of unknown session = %d, want 404", code)
	}
}
