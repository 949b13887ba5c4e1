package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cimflow"
)

// TestInferBodyBounded: the router's infer handler reads at most
// maxInferBody of a request. The widest honest encoding of the model's
// input ("-128, " per element) is routed and served; the same request
// padded past the limit is answered 413 with the JSON error body every
// other failure uses, before any backend sees it.
func TestInferBodyBounded(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := cimflow.NewServer(engine)
	defer srv.Close()
	if err := srv.ServeModel("tinymlp"); err != nil {
		t.Fatal(err)
	}
	r := cimflow.NewRouter(cimflow.WithCheckInterval(0))
	defer r.Close()
	if err := r.AddBackend(cimflow.NewLocalBackend("replica-0", srv)); err != nil {
		t.Fatal(err)
	}
	shape, err := r.InputShape("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(r)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/tinymlp/infer", strings.NewReader(body)))
		return rec
	}

	data := strings.TrimSuffix(strings.Repeat("-128, ", shape.Elems()), ", ")
	dims, _ := json.Marshal([]int{shape.H, shape.W, shape.C})
	body := `{"shape": ` + string(dims) + `, "data": [` + data + `]}`
	if rec := post(body); rec.Code != http.StatusOK {
		t.Fatalf("widest honest body (%d bytes, limit %d): status %d: %s",
			len(body), maxInferBody(shape), rec.Code, rec.Body)
	}

	placed := r.Metrics().Backends["replica-0"].Placements
	oversized := `{"seed": 1, "pad": "` + strings.Repeat("x", int(maxInferBody(shape))) + `"}`
	rec := post(oversized)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
	}
	var reply map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply["error"] == "" {
		t.Errorf("oversized body: reply %q is not the JSON error object (%v)", rec.Body, err)
	}
	if got := r.Metrics().Backends["replica-0"].Placements; got != placed {
		t.Errorf("oversized body reached a backend: %d placements, want %d", got, placed)
	}
}
