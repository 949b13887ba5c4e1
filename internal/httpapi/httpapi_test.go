package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/tensor"
)

// tinyServer serves the given graphs from fresh sessions and returns the
// sessions too, as the reference for byte comparisons.
func tinyServer(t *testing.T, graphs ...*model.Graph) (*serve.Server, map[string]*core.Session) {
	t.Helper()
	cfg := arch.DefaultConfig()
	srv := serve.NewServer(2)
	t.Cleanup(func() { srv.Close() })
	sessions := make(map[string]*core.Session)
	for _, g := range graphs {
		compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.NewSession(compiled, model.NewSeededWeights(g, 1), core.Options{MaxPooledChips: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		if err := srv.AddModel(g.Name, sess, serve.ModelConfig{}); err != nil {
			t.Fatal(err)
		}
		sessions[g.Name] = sess
	}
	return srv, sessions
}

func handler(svc Server) http.Handler {
	mux := http.NewServeMux()
	Register(mux, svc)
	return mux
}

// TestInferBodyBounded: the infer handler reads at most maxInferBody of a
// request. The widest honest encoding of the model's input ("-128, " per
// element) is served; the same request padded past the limit is answered
// 413 with the JSON error body every other failure uses, before the server
// sees it.
func TestInferBodyBounded(t *testing.T) {
	t.Run("serve", func(t *testing.T) {
		srv, _ := tinyServer(t, model.TinyMLP())
		accepted := func() int64 { return srv.Metrics().Models["tinymlp"].Accepted }
		shape, err := srv.InputShape("tinymlp")
		if err != nil {
			t.Fatal(err)
		}
		h := handler(srv)
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

		before := accepted()
		oversized := `{"seed": 1, "pad": "` + strings.Repeat("x", int(maxInferBody(shape))) + `"}`
		rec := post(oversized)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
		}
		var reply map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply["error"] == "" {
			t.Errorf("oversized body: reply %q is not the JSON error object (%v)", rec.Body, err)
		}
		if got := accepted(); got != before {
			t.Errorf("oversized body reached the server: %d requests accepted, want %d", got, before)
		}
	})
}

// TestStalledBodyClosed: the front end's server carries every connection
// deadline, and a client that sends its headers and then stalls mid-body has
// its connection closed when the read deadline passes — here shortened, the
// mechanism is the same — while an honest request on another connection is
// served meanwhile.
func TestStalledBodyClosed(t *testing.T) {
	t.Run("serve", func(t *testing.T) {
		srv, _ := tinyServer(t, model.TinyMLP())
		hs := newServer("127.0.0.1:0", handler(srv))
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

		// Before Dial: the server's read deadline starts when it begins
		// reading the request, which may come before Dial returns.
		start := time.Now()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
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
	})
}

// infer posts one seeded request to a served model and decodes the reply.
func infer(t *testing.T, url, name string, seed uint64) (int, inferResponse) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/models/%s/infer", url, name), "application/json",
		strings.NewReader(fmt.Sprintf(`{"seed": %d}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply inferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, reply
}

// TestLoopbackRoundTrip drives the handler over a real serve.Server and
// real HTTP: the bytes, shape and cost of every tiny model's reply equal a
// direct Session.Infer, the model list names every model with its input
// shape, and an unknown model is 404.
func TestLoopbackRoundTrip(t *testing.T) {
	graphs := []*model.Graph{model.TinyMLP(), model.TinyCNN(), model.TinyResNet(), model.TinyMobile(), model.TinySE()}
	srv, sessions := tinyServer(t, graphs...)
	ts := httptest.NewServer(handler(srv))
	defer ts.Close()

	ctx := context.Background()
	for _, g := range graphs {
		sess := sessions[g.Name]
		for seed := uint64(0); seed < 3; seed++ {
			want, err := sess.Infer(ctx, model.SeededInput(sess.InputShape(), seed))
			if err != nil {
				t.Fatal(err)
			}
			status, got := infer(t, ts.URL, g.Name, seed)
			if status != http.StatusOK {
				t.Fatalf("%s seed %d: status %d", g.Name, seed, status)
			}
			if got.Model != g.Name || !slices.Equal(got.Output, want.Output.Data) ||
				!slices.Equal(got.Shape, []int{want.Output.H, want.Output.W, want.Output.C}) {
				t.Errorf("%s seed %d: served output differs from direct Session.Infer", g.Name, seed)
			}
			if got.Cycles != want.Stats.Cycles || got.Seconds != want.Seconds || got.EnergyMJ != want.EnergyMJ {
				t.Errorf("%s seed %d: served cycles/seconds/energy %d/%g/%g, direct %d/%g/%g", g.Name, seed,
					got.Cycles, got.Seconds, got.EnergyMJ, want.Stats.Cycles, want.Seconds, want.EnergyMJ)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []modelInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil || len(infos) != len(graphs) {
		t.Fatalf("model list: %d entries (%v), want %d", len(infos), err, len(graphs))
	}
	for _, info := range infos {
		shape := sessions[info.Name].InputShape()
		if !slices.Equal(info.InputShape, []int{shape.H, shape.W, shape.C}) {
			t.Errorf("model list: %s input shape %v, want %v", info.Name, info.InputShape, shape)
		}
	}

	if status, _ := infer(t, ts.URL, "nosuch", 0); status != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", status)
	}
}

// failing is a Server whose every inference fails with err.
type failing struct{ err error }

func (f failing) Models() []string { return []string{"m"} }
func (f failing) InputShape(string) (model.Shape, error) {
	return model.Shape{H: 1, W: 1, C: 4}, nil
}
func (f failing) Infer(context.Context, string, tensor.Tensor) (*core.Result, error) {
	return nil, fmt.Errorf("server says: %w", f.err)
}

// TestStatusTableRoundTrip reads the table against the statuses written
// out here, not against itself: every sentinel the server returns is
// answered over HTTP with its status and the error's message in the JSON
// body, and an error the table does not know is 500.
func TestStatusTableRoundTrip(t *testing.T) {
	untyped := errors.New("simulation fault")
	rows := []struct {
		err    error
		status int
	}{
		{serve.ErrUnknownModel, 404},
		{serve.ErrOverloaded, 503},
		{serve.ErrClosed, 503},
		{core.ErrClosed, 503},
		{context.DeadlineExceeded, 504},
		{context.Canceled, 504},
		{untyped, 500},
	}
	var sentinels int
	for _, row := range statusTable {
		sentinels += len(row.errs)
	}
	if len(rows) != sentinels+1 {
		t.Fatalf("%d rows cover a status table of %d sentinels", len(rows), sentinels)
	}
	for _, row := range rows {
		t.Run(row.err.Error(), func(t *testing.T) {
			ts := httptest.NewServer(handler(failing{row.err}))
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/v1/models/m/infer", "application/json", strings.NewReader(`{"seed": 1}`))
			if err != nil {
				t.Fatal(err)
			}
			var body errorBody
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != row.status {
				t.Errorf("handler answered %d, want %d", resp.StatusCode, row.status)
			}
			if want := "server says: " + row.err.Error(); err != nil || body.Error != want {
				t.Errorf("error body %q (%v), want %q", body.Error, err, want)
			}
		})
	}

	// Bodies the handler itself refuses: 400 for one it cannot use, 413 for
	// one over the bound.
	ts := httptest.NewServer(handler(failing{untyped}))
	defer ts.Close()
	for body, want := range map[string]int{
		`{"shape": [1,1,4]}`: 400,
		`{"seed": `:          400,
		`{"seed": 1, "pad": "` + strings.Repeat("x", 2048) + `"}`: 413,
	} {
		resp, err := http.Post(ts.URL+"/v1/models/m/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %.20q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}
