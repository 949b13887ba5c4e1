// Package httpapi owns both ends of the serving tier's HTTP JSON API: the
// wire types, the infer and model-list routes cimflow-serve and
// cimflow-router both mount, the bound on a body, the table between typed
// errors and statuses, the http.Server with its deadlines and drain, and
// Client, the cluster.Backend that speaks the format to a remote replica.
// The binaries add only the routes whose content differs between them.
//
//	POST /v1/models/{name}/infer   {"seed": 7} or {"data": [...], "shape": [h,w,c]};
//	                               the X-Cimflow-Tenant header names the tenant
//	GET  /v1/models                served models and their input shapes
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cimflow/internal/cluster"
	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/tensor"
)

// inferRequest is the POST body: either a deterministic seeded input or
// raw INT8 data with an explicit [h, w, c] shape.
type inferRequest struct {
	Seed  *uint64 `json:"seed,omitempty"`
	Data  []int8  `json:"data,omitempty"`
	Shape []int   `json:"shape,omitempty"`
}

// inferResponse is the reply to a served inference.
type inferResponse struct {
	Model     string  `json:"model"`
	Shape     []int   `json:"shape"`
	Output    []int8  `json:"output"`
	Cycles    int64   `json:"cycles"`
	Seconds   float64 `json:"seconds"`
	EnergyMJ  float64 `json:"energy_mj"`
	LatencyMs float64 `json:"latency_ms"`
}

// modelInfo is one GET /v1/models entry.
type modelInfo struct {
	Name       string `json:"name"`
	InputShape []int  `json:"input_shape"`
}

// errorBody is the reply to any failed request.
type errorBody struct {
	Error string `json:"error"`
}

// statusTable maps typed errors to HTTP statuses and back, one row a status.
// The handler answers an error with the status of the first row holding a
// sentinel it matches under errors.Is (500 when none does). The wire does
// not tell a row's sentinels apart, so the client rebuilds a status as the
// row's first sentinel, formatted around the replica's name and message (an
// untyped error for a row without a format, or no row); cluster.Retryable
// classes the rest of the row as it classes the first (TestStatusTableRoundTrip).
var statusTable = []struct {
	status int
	format string // of the client's error: sentinel, backend name, message
	errs   []error
}{
	{http.StatusNotFound, "%w: %s: %s", []error{serve.ErrUnknownModel}},
	// A replica's quota is not a contract of the router in front of it.
	{http.StatusTooManyRequests, "", []error{cluster.ErrQuotaExceeded}},
	{http.StatusServiceUnavailable, "%w (%s: %s)", []error{serve.ErrOverloaded, serve.ErrClosed, core.ErrClosed,
		cluster.ErrNoBackends, cluster.ErrRouterClosed, cluster.ErrBackendUnavailable}},
	{http.StatusGatewayTimeout, "%w (%s: %s)", []error{context.DeadlineExceeded, context.Canceled}},
}

// statusFor is the table read forwards. Unrecognized errors are
// server-side faults (simulation failures), not client mistakes.
func statusFor(err error) int {
	for _, row := range statusTable {
		for _, sentinel := range row.errs {
			if errors.Is(err, sentinel) {
				return row.status
			}
		}
	}
	return http.StatusInternalServerError
}

// errorFor is the table read backwards.
func errorFor(status int, backend, msg string) error {
	for _, row := range statusTable {
		if row.status == status && row.format != "" {
			return fmt.Errorf(row.format, row.errs[0], backend, msg)
		}
	}
	return fmt.Errorf("cluster: backend %s: %s", backend, msg)
}

// Service is what the shared routes serve: *cluster.Router as it is, a
// server without tenants through SingleTenant.
type Service interface {
	Models() []string
	InputShape(model string) (model.Shape, error)
	Infer(ctx context.Context, tenant, model string, input tensor.Tensor) (*core.Result, error)
}

// Server is a serving tier without tenants: *serve.Server or its facade.
type Server interface {
	Models() []string
	InputShape(model string) (model.Shape, error)
	Infer(ctx context.Context, model string, input tensor.Tensor) (*core.Result, error)
}

// SingleTenant serves a Server to every tenant alike.
type SingleTenant struct{ Server }

func (s SingleTenant) Infer(ctx context.Context, _, model string, input tensor.Tensor) (*core.Result, error) {
	return s.Server.Infer(ctx, model, input)
}

// Register mounts the infer and model-list routes on mux.
func Register(mux *http.ServeMux, svc Service) {
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		var out []modelInfo
		for _, name := range svc.Models() {
			shape, err := svc.InputShape(name)
			if err != nil {
				continue
			}
			out = append(out, modelInfo{Name: name, InputShape: []int{shape.H, shape.W, shape.C}})
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		shape, err := svc.InputShape(name)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		var req inferRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxInferBody(shape))
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, decodeStatus(err), fmt.Errorf("decoding request: %w", err))
			return
		}
		input, err := buildInput(shape, &req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		start := time.Now()
		// The header names the tenant contract on a router; a server
		// without tenants ignores it.
		res, err := svc.Infer(r.Context(), r.Header.Get("X-Cimflow-Tenant"), name, input)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, inferResponse{
			Model:     name,
			Shape:     []int{res.Output.H, res.Output.W, res.Output.C},
			Output:    res.Output.Data,
			Cycles:    res.Stats.Cycles,
			Seconds:   res.Seconds,
			EnergyMJ:  res.EnergyMJ,
			LatencyMs: float64(time.Since(start)) / float64(time.Millisecond),
		})
	})
}

// maxInferBody bounds an infer request's body by the model's input tensor
// written as JSON: "-128, " is the widest an INT8 element gets, and 1 KiB
// covers the envelope (seed, shape, key names).
func maxInferBody(shape model.Shape) int64 { return 1024 + 6*int64(shape.Elems()) }

// decodeStatus is 413 for a body cut off by maxInferBody, 400 for any other
// undecodable body.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// buildInput materializes the request's tensor: seeded or raw.
func buildInput(shape model.Shape, req *inferRequest) (tensor.Tensor, error) {
	if req.Seed != nil {
		return model.SeededInput(shape, *req.Seed), nil
	}
	if len(req.Shape) != 3 {
		return tensor.Tensor{}, fmt.Errorf("request needs \"seed\" or \"data\" with \"shape\": [h,w,c]")
	}
	t := tensor.Tensor{H: req.Shape[0], W: req.Shape[1], C: req.Shape[2], Data: req.Data}
	if t.Len() != len(req.Data) {
		return tensor.Tensor{}, fmt.Errorf("data has %d elements, shape %dx%dx%d needs %d",
			len(req.Data), t.H, t.W, t.C, t.Len())
	}
	return t, nil
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error()})
}

// The connection deadlines of the HTTP front end: no client can hold a
// connection, and the goroutine serving it, open without making progress.
const (
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers, so idle or trickling clients cannot hold connections open.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the whole request, headers and body; the largest
	// infer body is maxInferBody, a few hundred KB.
	readTimeout = 30 * time.Second
	// writeTimeout runs from the end of the headers to the end of the reply,
	// so it covers the inference itself: queue wait, batching and the
	// slowest zoo model's simulation fit with a wide margin.
	writeTimeout = 2 * time.Minute
	// idleTimeout bounds a keep-alive connection's wait for its next request.
	idleTimeout = 2 * time.Minute
	// drainTimeout is what in-flight requests get once a signal stops the listener.
	drainTimeout = 30 * time.Second
)

// newServer is the front end's http.Server with every deadline set.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ListenAndServe serves h on addr until SIGINT or SIGTERM, then stops
// listening and returns once in-flight requests have been answered.
func ListenAndServe(addr string, h http.Handler) error {
	srv := newServer(addr, h)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Shutdown does the draining; returning before it finishes would let the
	// process exit while in-flight responses are still being written.
	log.Print("draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	<-served
	return nil
}
