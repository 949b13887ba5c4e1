// Package cluster is a router that places inference requests across N
// in-process replicas, each an internal/serve server. It holds only the
// path the repository benchmark's serve_tiny workload runs: placement
// consistent-hashes on the model name so a model's traffic lands on the
// replica that already holds its warm chips, falling back to the
// least-loaded replica when the hash owner is saturated; a slow or shed
// attempt is hedged or retried on the next replica under a shared budget,
// and the losing attempt is cancelled. A replica whose server is closed is
// skipped at placement.
package cluster

import (
	"context"
	"errors"

	"cimflow/internal/core"
	"cimflow/internal/serve"
	"cimflow/internal/tensor"
)

// Typed routing errors, matched with errors.Is.
var (
	// ErrNoBackends reports that no open backend serves the request (every
	// replica closed, or none registered).
	ErrNoBackends = errors.New("cluster: no healthy backend")
	// ErrRouterClosed reports a request submitted after Router.Close.
	ErrRouterClosed = errors.New("cluster: router closed")
)

// Backend is one serving replica the router can place requests on: an
// in-process serve.Server (LocalBackend), or a fake in tests.
type Backend interface {
	// Name is the backend's stable identity — it seeds the consistent-hash
	// ring, so renaming a replica remaps its models.
	Name() string
	// Infer runs one inference. Implementations must honor ctx: a hedged
	// request cancels the losing attempt through it.
	Infer(ctx context.Context, model string, input tensor.Tensor) (*core.Result, error)
	// Closed reports a replica that takes no more requests; placement
	// skips it.
	Closed() bool
}

// LocalBackend adapts an in-process serve.Server as a routable replica.
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

// Infer submits one request to the wrapped server.
func (b *LocalBackend) Infer(ctx context.Context, name string, input tensor.Tensor) (*core.Result, error) {
	return b.srv.Infer(ctx, name, input)
}

// Closed reports whether the wrapped server has been closed.
func (b *LocalBackend) Closed() bool { return b.srv.Closed() }

// retryable classifies an attempt error as worth retrying on another
// replica: load shedding and a replica shutting down are; deterministic
// request errors (unknown model, bad shape, simulation failure) and the
// caller's own context expiry are not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrClosed) || errors.Is(err, core.ErrClosed)
}
