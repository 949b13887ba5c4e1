package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

// TestStalledBodyClosed: the front end's server carries every connection
// deadline, and a client that sends its headers and then stalls mid-body has
// its connection closed when the read deadline passes — here shortened, the
// mechanism is the same — while an honest request on another connection is
// served meanwhile.
func TestStalledBodyClosed(t *testing.T) {
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
	hs := newHTTPServer("127.0.0.1:0", newHandler(r))
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("server deadlines %v / %v / %v / %v are not the declared constants",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	const deadline = 300 * time.Millisecond
	hs.ReadTimeout = deadline
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprint(conn, "POST /v1/models/tinymlp/infer HTTP/1.1\r\nHost: test\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"seed\": "); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/models/tinymlp/infer", "application/json",
		strings.NewReader(`{"seed": 1}`))
	if err != nil {
		t.Fatalf("honest request beside the stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("honest request beside the stalled one: status %d, want 200", resp.StatusCode)
	}

	// The server answers the aborted read and closes: EOF, not our deadline.
	conn.SetReadDeadline(start.Add(10 * deadline))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection still open %v after its headers (read deadline %v): %v",
			time.Since(start).Round(time.Millisecond), deadline, err)
	}
	if took := time.Since(start); took < deadline {
		t.Errorf("stalled connection closed after %v, before the %v read deadline", took, deadline)
	}
}
