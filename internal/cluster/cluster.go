// Package cluster is the horizontally sharded serving tier of the
// framework: a router front-end that places inference requests across N
// replica backends, each an internal/serve server (in-process for tests,
// over HTTP through internal/httpapi's Client for real deployments).
//
// Placement consistent-hashes on the model name so a model's traffic lands
// on the replica that already holds its warm compiled artifact and chip
// pool, falling back to the least-loaded healthy replica when the hash
// owner is saturated — hot models spread, cold models stay sticky. On top
// of the per-replica deadline-aware admission control the router adds
// per-tenant priority classes and token-bucket quotas, hedged retries on
// shed or slow backends (budgeted, with cancellation of the losing
// attempt), and periodic health checks that eject flapping backends and
// re-admit them once they recover.
//
// Every router decision is observable: Metrics snapshots placement,
// hedging, rejection and per-tenant latency counters, and WritePrometheus
// exposes them in Prometheus text exposition format so standard scrapers
// can consume the fleet's SLOs. The Replay harness drives a router with
// production-shaped traffic (diurnal ramps, bursts, hot-model skew,
// per-tenant mix) and reports SLO attainment per tenant.
package cluster

import (
	"context"
	"errors"
	"time"

	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/tensor"
)

// Typed routing errors, matched with errors.Is.
var (
	// ErrNoBackends reports that no healthy backend serves the requested
	// model (all replicas ejected, or none registered).
	ErrNoBackends = errors.New("cluster: no healthy backend")
	// ErrQuotaExceeded reports a request rejected by its tenant's
	// token-bucket quota.
	ErrQuotaExceeded = errors.New("cluster: tenant quota exceeded")
	// ErrRouterClosed reports a request submitted after Router.Close.
	ErrRouterClosed = errors.New("cluster: router closed")
)

// Backend is one serving replica the router can place requests on. A
// backend is an internal/serve server reached in-process (LocalBackend) or
// over HTTP (httpapi.Client); fakes implement it directly in tests.
type Backend interface {
	// Name is the backend's stable identity — it seeds the consistent-hash
	// ring, so renaming a replica remaps its models.
	Name() string
	// Models lists the model names the backend serves.
	Models() []string
	// InputShape reports the input tensor shape a served model expects.
	InputShape(model string) (model.Shape, error)
	// Infer runs one inference. Implementations must honor ctx: a hedged
	// request cancels the losing attempt through it.
	Infer(ctx context.Context, model string, input tensor.Tensor) (*core.Result, error)
	// Check probes liveness; a non-nil error counts toward ejection.
	Check(ctx context.Context) error
}

// LocalBackend adapts an in-process serve.Server as a routable replica —
// the test and single-binary deployment shape, where N replicas live in one
// process and share an artifact store on disk.
type LocalBackend struct {
	name string
	srv  *serve.Server
}

// NewLocalBackend names an in-process server as a replica. The server is
// not owned: closing the router leaves it running.
func NewLocalBackend(name string, srv *serve.Server) *LocalBackend {
	return &LocalBackend{name: name, srv: srv}
}

// Name returns the replica's ring identity.
func (b *LocalBackend) Name() string { return b.name }

// Models lists the served model names.
func (b *LocalBackend) Models() []string { return b.srv.Models() }

// InputShape reports a served model's expected input shape.
func (b *LocalBackend) InputShape(name string) (model.Shape, error) {
	return b.srv.InputShape(name)
}

// Infer submits one request to the wrapped server.
func (b *LocalBackend) Infer(ctx context.Context, name string, input tensor.Tensor) (*core.Result, error) {
	return b.srv.Infer(ctx, name, input)
}

// Check reports serve.ErrClosed once the wrapped server has shut down.
func (b *LocalBackend) Check(context.Context) error {
	if b.srv.Closed() {
		return serve.ErrClosed
	}
	return nil
}

// Delayed wraps a backend with fixed added latency on every Infer — the
// fault-injection shape behind the hedging tests and the recorded
// "hedging under backend slowness" experiment. The delay respects ctx, so
// a cancelled (losing) hedge attempt stops waiting immediately.
func Delayed(b Backend, d time.Duration) Backend { return &delayedBackend{Backend: b, d: d} }

type delayedBackend struct {
	Backend
	d time.Duration
}

func (b *delayedBackend) Infer(ctx context.Context, name string, input tensor.Tensor) (*core.Result, error) {
	if b.d > 0 {
		t := time.NewTimer(b.d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.Backend.Infer(ctx, name, input)
}

// Retryable classifies an attempt error as worth retrying on another
// replica: load shedding, a replica shutting down or with nothing to place
// on, and transport faults are; deterministic request errors (unknown model,
// bad shape, simulation failure) and the caller's own context expiry are
// not. These are the errors the HTTP API answers 503, which comes back as
// ErrOverloaded: a failure is classed alike in-process and over the wire.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed), errors.Is(err, core.ErrClosed),
		errors.Is(err, ErrBackendUnavailable), errors.Is(err, ErrNoBackends), errors.Is(err, ErrRouterClosed):
		return true
	default:
		return false
	}
}

// ErrBackendUnavailable reports a transport-level failure reaching a
// backend (connection refused, malformed reply) — retryable on another
// replica, unlike a deterministic request error.
var ErrBackendUnavailable = errors.New("cluster: backend unavailable")
