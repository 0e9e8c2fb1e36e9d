package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tbd/internal/prof"
)

func postPredict(t *testing.T, srv *httptest.Server, input []float32) *http.Response {
	t.Helper()
	body, _ := json.Marshal(PredictRequest{Input: input})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPHandler pins the wire contract of a one-replica fleet: echo
// on the happy path, 400 for a wrong-size sample, 405 for GET /predict,
// and /stats and /healthz payloads.
func TestHTTPHandler(t *testing.T) {
	f := oneReplica(t, identityModel{}, 4, FleetConfig{
		MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 32,
	})
	srv := httptest.NewServer(NewFleetHandler(f, FleetHandlerOptions{}))
	defer srv.Close()

	// Happy path echoes the input.
	resp := postPredict(t, srv, []float32{1, 2, 3, 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Output) != 4 || pr.Output[2] != 3 {
		t.Fatalf("predict output = %v", pr.Output)
	}
	if pr.BatchSize < 1 || pr.LatencyMs < 0 {
		t.Fatalf("predict metadata = %+v", pr)
	}

	// Wrong sample size is a 400.
	resp = postPredict(t, srv, []float32{1, 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input status = %d, want 400", resp.StatusCode)
	}

	// GET on /predict is a 405.
	getResp, err := http.Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict status = %d, want 405", getResp.StatusCode)
	}

	// /stats decodes into the snapshot type.
	stResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap FleetSnapshot
	if err := json.NewDecoder(stResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if snap.Completed == 0 {
		t.Fatalf("stats completed = 0 after a served request: %+v", snap)
	}

	// /healthz reports the sample shape.
	hResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string `json:"status"`
		SampleShape []int  `json:"sample_shape"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if health.Status != "ok" || len(health.SampleShape) != 1 || health.SampleShape[0] != 4 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestHTTPDebugProf exercises the live-profiler endpoint: with capture on,
// a served batch must surface as a serve-category row in the snapshot.
func TestHTTPDebugProf(t *testing.T) {
	f := oneReplica(t, identityModel{}, 4, FleetConfig{MaxBatch: 4})
	srv := httptest.NewServer(NewFleetHandler(f, FleetHandlerOptions{}))
	defer srv.Close()

	prof.Enable()
	defer prof.Disable()
	resp := postPredict(t, srv, []float32{1, 2, 3, 4})
	resp.Body.Close()

	pResp, err := http.Get(srv.URL + "/debug/prof")
	if err != nil {
		t.Fatal(err)
	}
	var snap prof.Snapshot
	if err := json.NewDecoder(pResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	pResp.Body.Close()
	if !snap.Enabled {
		t.Fatalf("snapshot reports disabled: %+v", snap)
	}
	found := false
	for _, k := range snap.Kernels {
		if k.Name == "serve.r0.batch" && k.Cat == "serve" && k.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no serve.r0.batch row in /debug/prof: %+v", snap.Kernels)
	}
}

// TestHTTPHandlerShutdown: /predict on a closed fleet is 503.
func TestHTTPHandlerShutdown(t *testing.T) {
	f := oneReplica(t, identityModel{}, 4, FleetConfig{MaxBatch: 4})
	srv := httptest.NewServer(NewFleetHandler(f, FleetHandlerOptions{}))
	defer srv.Close()

	f.Close()
	resp := postPredict(t, srv, []float32{1, 2, 3, 4})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict during shutdown status = %d, want 503", resp.StatusCode)
	}
}
