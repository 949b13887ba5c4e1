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
	"sync/atomic"
	"testing"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/cluster"
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

// tier is one of the two services that mount the shared routes.
type tier struct {
	name string
	svc  Service
	// placed counts the requests that got past the handler to a replica.
	placed func() int64
}

// bothTiers serves tinymlp the way cimflow-serve does and the way
// cimflow-router does over one in-process replica.
func bothTiers(t *testing.T) []tier {
	t.Helper()
	srv, _ := tinyServer(t, model.TinyMLP())
	r := cluster.New(cluster.WithCheckInterval(0))
	t.Cleanup(func() { r.Close() })
	if err := r.AddBackend(cluster.NewLocalBackend("replica-0", srv)); err != nil {
		t.Fatal(err)
	}
	return []tier{
		{"serve", SingleTenant{srv}, func() int64 { return srv.Metrics().Models["tinymlp"].Accepted }},
		{"router", r, func() int64 { return r.Metrics().Backends["replica-0"].Placements }},
	}
}

func handler(svc Service) http.Handler {
	mux := http.NewServeMux()
	Register(mux, svc)
	return mux
}

// TestInferBodyBounded: the infer handler reads at most maxInferBody of a
// request, on either tier. The widest honest encoding of the model's input
// ("-128, " per element) is served; the same request padded past the limit
// is answered 413 with the JSON error body every other failure uses, before
// any replica sees it.
func TestInferBodyBounded(t *testing.T) {
	for _, tr := range bothTiers(t) {
		t.Run(tr.name, func(t *testing.T) {
			shape, err := tr.svc.InputShape("tinymlp")
			if err != nil {
				t.Fatal(err)
			}
			h := handler(tr.svc)
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

			placed := tr.placed()
			oversized := `{"seed": 1, "pad": "` + strings.Repeat("x", int(maxInferBody(shape))) + `"}`
			rec := post(oversized)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
			}
			var reply map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply["error"] == "" {
				t.Errorf("oversized body: reply %q is not the JSON error object (%v)", rec.Body, err)
			}
			if got := tr.placed(); got != placed {
				t.Errorf("oversized body reached a replica: %d placements, want %d", got, placed)
			}
		})
	}
}

// TestStalledBodyClosed: the front end's server carries every connection
// deadline, and a client that sends its headers and then stalls mid-body has
// its connection closed when the read deadline passes — here shortened, the
// mechanism is the same — while an honest request on another connection is
// served meanwhile.
func TestStalledBodyClosed(t *testing.T) {
	for _, tr := range bothTiers(t) {
		t.Run(tr.name, func(t *testing.T) {
			hs := newServer("127.0.0.1:0", handler(tr.svc))
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
}

// countingTransport counts the requests a Client sends.
type countingTransport struct {
	n    atomic.Int64
	next http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// dial points a Client with a counting transport at an httptest server.
func dial(t *testing.T, ts *httptest.Server) (*Client, *countingTransport) {
	t.Helper()
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{next: ts.Client().Transport}
	c.client = &http.Client{Transport: ct}
	return c, ct
}

// TestLoopbackRoundTrip holds both ends of the wire: the handler over a real
// serve.Server, the Client as a router's only backend. Routed bytes and
// cycles equal a direct Session.Infer on every tiny model, and after a
// model's first inference (which fetches the model list once) a routed
// inference is exactly one HTTP request.
func TestLoopbackRoundTrip(t *testing.T) {
	graphs := []*model.Graph{model.TinyMLP(), model.TinyCNN(), model.TinyResNet(), model.TinyMobile(), model.TinySE()}
	srv, sessions := tinyServer(t, graphs...)
	ts := httptest.NewServer(handler(SingleTenant{srv}))
	defer ts.Close()
	c, sent := dial(t, ts)

	r := cluster.New(cluster.WithCheckInterval(0), cluster.WithHedgeDelay(0))
	defer r.Close()
	if err := r.AddBackend(c); err != nil {
		t.Fatal(err)
	}
	// What the router's own handler does for every POST before Infer.
	routed := func(name string, input tensor.Tensor) (*core.Result, error) {
		if _, err := r.InputShape(name); err != nil {
			return nil, err
		}
		return r.Infer(context.Background(), "t", name, input)
	}

	ctx := context.Background()
	for _, g := range graphs {
		sess := sessions[g.Name]
		for seed := uint64(0); seed < 3; seed++ {
			input := model.SeededInput(sess.InputShape(), seed)
			want, err := sess.Infer(ctx, input)
			if err != nil {
				t.Fatal(err)
			}
			before := sent.n.Load()
			got, err := routed(g.Name, input)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name, seed, err)
			}
			if !slices.Equal(got.Output.Data, want.Output.Data) ||
				got.Output.H != want.Output.H || got.Output.W != want.Output.W || got.Output.C != want.Output.C {
				t.Errorf("%s seed %d: routed output differs from direct Session.Infer", g.Name, seed)
			}
			if got.Stats.Cycles != want.Stats.Cycles || got.Seconds != want.Seconds || got.EnergyMJ != want.EnergyMJ {
				t.Errorf("%s seed %d: routed cycles/seconds/energy %d/%g/%g, direct %d/%g/%g", g.Name, seed,
					got.Stats.Cycles, got.Seconds, got.EnergyMJ, want.Stats.Cycles, want.Seconds, want.EnergyMJ)
			}
			if n := sent.n.Load() - before; seed > 0 && n != 1 {
				t.Errorf("%s seed %d: %d HTTP requests for one routed inference, want 1", g.Name, seed, n)
			}
		}
	}

	// The model list through the router: one request to the replica, none
	// per model.
	before := sent.n.Load()
	rec := httptest.NewRecorder()
	handler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	var infos []modelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil || len(infos) != len(graphs) {
		t.Fatalf("router model list %q: %d entries (%v), want %d", rec.Body, len(infos), err, len(graphs))
	}
	if n := sent.n.Load() - before; n != 1 {
		t.Errorf("router model list cost %d requests to the replica, want 1", n)
	}

	if _, err := routed("nosuch", model.SeededInput(model.Shape{H: 1, W: 1, C: 1}, 0)); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown model through the router: %v, want ErrUnknownModel", err)
	}
	if err := c.Check(ctx); err == nil {
		t.Error("Check passed against a server with no /healthz route")
	}
}

// failing is a Service whose every inference fails with err.
type failing struct{ err error }

func (f failing) Models() []string { return []string{"m"} }
func (f failing) InputShape(string) (model.Shape, error) {
	return model.Shape{H: 1, W: 1, C: 4}, nil
}
func (f failing) Infer(context.Context, string, string, tensor.Tensor) (*core.Result, error) {
	return nil, fmt.Errorf("replica says: %w", f.err)
}

// TestStatusTableRoundTrip reads the table in both directions against the
// statuses and client errors written out here, not against itself: every
// sentinel either tier returns is answered with its status, the client turns
// that status back into the status's canonical sentinel carrying the
// replica's message, and the router classes the rebuilt error for retry as
// it classes the original.
func TestStatusTableRoundTrip(t *testing.T) {
	untyped := errors.New("simulation fault")
	rows := []struct {
		err    error
		status int
		back   error // nil: the client's error matches no sentinel
	}{
		{serve.ErrUnknownModel, 404, serve.ErrUnknownModel},
		{cluster.ErrQuotaExceeded, 429, nil},
		{serve.ErrOverloaded, 503, serve.ErrOverloaded},
		{serve.ErrClosed, 503, serve.ErrOverloaded},
		{core.ErrClosed, 503, serve.ErrOverloaded},
		{cluster.ErrNoBackends, 503, serve.ErrOverloaded},
		{cluster.ErrRouterClosed, 503, serve.ErrOverloaded},
		{cluster.ErrBackendUnavailable, 503, serve.ErrOverloaded},
		{context.DeadlineExceeded, 504, context.DeadlineExceeded},
		{context.Canceled, 504, context.DeadlineExceeded},
		{untyped, 500, nil},
	}
	var sentinels []error
	for _, row := range statusTable {
		sentinels = append(sentinels, row.errs...)
	}
	if len(rows) != len(sentinels)+1 {
		t.Fatalf("%d rows cover a status table of %d sentinels", len(rows), len(sentinels))
	}
	input := tensor.Tensor{H: 1, W: 1, C: 4, Data: make([]int8, 4)}
	for _, row := range rows {
		t.Run(row.err.Error(), func(t *testing.T) {
			ts := httptest.NewServer(handler(failing{row.err}))
			defer ts.Close()
			c, _ := dial(t, ts)

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
			if want := "replica says: " + row.err.Error(); err != nil || body.Error != want {
				t.Errorf("error body %q (%v), want %q", body.Error, err, want)
			}

			_, got := c.Infer(context.Background(), "m", input)
			if got == nil {
				t.Fatal("client returned no error")
			}
			for _, s := range sentinels {
				if errors.Is(got, s) != (s == row.back) {
					t.Errorf("client error %q: errors.Is(%q) = %v", got, s, !(s == row.back))
				}
			}
			if !strings.Contains(got.Error(), body.Error) || !strings.Contains(got.Error(), c.Name()) {
				t.Errorf("client error %q does not carry the replica's name and message %q", got, body.Error)
			}
			if cluster.Retryable(got) != cluster.Retryable(row.err) {
				t.Errorf("retryable: %v for the original, %v after the round trip",
					cluster.Retryable(row.err), cluster.Retryable(got))
			}
		})
	}

	// Bodies the handler itself refuses: 400 for one it cannot use, 413 for
	// one over the bound; the client has no sentinel for either.
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
		got := errorFor(resp.StatusCode, "replica", "msg")
		for _, s := range sentinels {
			if errors.Is(got, s) {
				t.Errorf("status %d became %q", resp.StatusCode, got)
			}
		}
	}
}

// TestRepliesOutsideTheFormat: a reply longer than the bound, a reply whose
// shape disagrees with its output, and a truncated body each fail as
// ErrBackendUnavailable, retryable on another replica.
func TestRepliesOutsideTheFormat(t *testing.T) {
	input := tensor.Tensor{H: 1, W: 1, C: 4, Data: make([]int8, 4)}
	limit := maxReplyBody(model.Shape{H: 1, W: 1, C: 4})
	long := `{"model":"m","shape":[1,1,1],"output":[1],"pad":"` + strings.Repeat("x", int(limit)) + `"}`
	if _, err := json.Marshal(json.RawMessage(long)); err != nil {
		t.Fatalf("the long reply must be valid JSON, so that only its length is at fault: %v", err)
	}
	for name, reply := range map[string]string{
		"longer than the bound": long,
		"shape against output":  `{"model":"m","shape":[1,1,3],"output":[1,2],"cycles":5}`,
		"no shape":              `{"model":"m","output":[1,2],"cycles":5}`,
		"truncated":             `{"model":"m","shape":[1,1,2],"output":[1,`,
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, reply)
			}))
			defer ts.Close()
			c, _ := dial(t, ts)
			res, err := c.Infer(context.Background(), "m", input)
			if !errors.Is(err, cluster.ErrBackendUnavailable) || !cluster.Retryable(err) {
				t.Fatalf("result %v, error %v; want ErrBackendUnavailable", res, err)
			}
		})
	}

	// The same long reply under the bound is a result: the bound, not the
	// padding, is what failed it.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Replace(long, strings.Repeat("x", 4096), "", 1))
	}))
	defer ts.Close()
	c, _ := dial(t, ts)
	if res, err := c.Infer(context.Background(), "m", input); err != nil || len(res.Output.Data) != 1 {
		t.Errorf("reply just under the bound: %v, %v", res, err)
	}
}
