// Package serve is the multi-model inference serving subsystem of the
// framework: it multiplexes many concurrent clients and many models over
// the compile-once/infer-many Sessions of internal/core.
//
// Each served model owns a bounded request queue with deadline-aware
// admission control: requests are shed with typed errors when the queue is
// full (ErrOverloaded) and dropped at dispatch time when their context
// deadline has already expired. A per-model dynamic batcher coalesces
// queued requests up to MaxBatch and is work-conserving: it offers the
// batch to the worker pool shared by every model while the batch fills, so
// an idle worker takes a batch of one at once and batches grow only while
// every worker is busy. There is no fill timer and nothing to tune but
// MaxBatch. Each worker dispatches one batch at a time
// (Session.InferBatchN with parallelism 1), so total chip parallelism
// equals the number of workers — the scheduler's fairness unit is the
// batch: every model holds at most one batch, filling or full, at the
// dispatch gate, so under load workers alternate between hot models instead
// of letting one model monopolize the pool. Sessions built with lane
// batching (SimLanes > 1) run each coalesced batch as lane groups on a
// single chip, paying the cycle-accurate schedule once per group instead of
// once per request.
//
// Dispatch contexts derive from the server's lifecycle context: requests
// already admitted are served even during Close (graceful drain), but a
// batch whose every caller has abandoned its request is cancelled mid-run
// inside the simulator cycle loop instead of burning a worker.
//
// The server records per-model metrics — live queue depth, admission and
// completion counters, a batch-size histogram and p50/p95/p99 request
// latency next to the part of it spent waiting for dispatch — and drains
// gracefully: Close stops admission, serves every queued request, then
// waits for the workers to finish.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/tensor"
)

// Typed serving errors, matched with errors.Is.
var (
	// ErrOverloaded reports load shedding: the model's bounded queue was
	// full at admission time.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrUnknownModel reports a request for a model the server does not
	// serve.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrClosed reports a request (or AddModel) after Close.
	ErrClosed = errors.New("serve: server closed")
)

// ModelConfig bounds one served model's queue and batching behavior.
type ModelConfig struct {
	// MaxBatch is the largest number of requests coalesced into one
	// dispatch (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue; requests beyond it are shed
	// with ErrOverloaded (default 64).
	QueueDepth int
}

// withDefaults resolves zero fields to the documented defaults.
func (c ModelConfig) withDefaults() ModelConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Server multiplexes inference requests for many models over a shared
// dispatch worker pool. It is safe for concurrent use.
type Server struct {
	workers int
	batches chan *batch

	// lifeCtx is the server's lifecycle context: every dispatch derives
	// its run context from it, so cancellation reaches the simulator
	// cycle loop. lifeCancel fires only after the worker pool has
	// drained, preserving graceful drain for admitted requests.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu     sync.RWMutex
	models map[string]*modelQueue
	closed bool

	batchers sync.WaitGroup // per-model batcher goroutines
	pool     sync.WaitGroup // dispatch workers
}

// modelQueue is one served model: its session, bounded queue and stats.
type modelQueue struct {
	name string
	sess *core.Session
	cfg  ModelConfig
	reqs chan *request
	m    modelStats
}

// request is one in-flight inference: the caller blocks on done (buffered,
// so the dispatcher never blocks replying to an abandoned request).
type request struct {
	ctx      context.Context
	input    tensor.Tensor
	enqueued time.Time
	done     chan reply
}

type reply struct {
	res *core.Result
	err error
}

// batch is a coalesced group of requests for one model, ready to dispatch.
type batch struct {
	q    *modelQueue
	reqs []*request
}

// NewServer starts a server with the given dispatch worker-pool size
// (workers <= 0 means 1). Workers are the unit of chip parallelism: each
// dispatches one batch at a time, sequentially within the batch.
func NewServer(workers int) *Server {
	if workers <= 0 {
		workers = 1
	}
	s := &Server{
		workers: workers,
		batches: make(chan *batch),
		models:  make(map[string]*modelQueue),
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		s.pool.Add(1)
		go s.worker()
	}
	return s
}

// AddModel registers a session under a name and starts its batcher. The
// session is not owned by the server: Close drains requests but leaves the
// session (and its chip pool) to the caller.
func (s *Server) AddModel(name string, sess *core.Session, cfg ModelConfig) error {
	if sess == nil {
		return fmt.Errorf("serve: model %q: nil session", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: cannot add model %q", ErrClosed, name)
	}
	if _, ok := s.models[name]; ok {
		return fmt.Errorf("serve: model %q already served", name)
	}
	cfg = cfg.withDefaults()
	q := &modelQueue{
		name: name,
		sess: sess,
		cfg:  cfg,
		reqs: make(chan *request, cfg.QueueDepth),
	}
	q.m.batchHist = make([]int64, cfg.MaxBatch+1)
	q.m.lat = NewLatencyWindow(latencyWindow)
	q.m.wait = NewLatencyWindow(latencyWindow)
	s.models[name] = q
	s.batchers.Add(1)
	go s.batcher(q)
	return nil
}

// Closed reports whether Close has been called; the cluster router skips
// a closed replica at placement.
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Serves reports whether a model name is already registered (so a caller
// can avoid building a session that AddModel would reject).
func (s *Server) Serves(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.models[name]
	return ok
}

// Models lists the served model names, sorted.
func (s *Server) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.modelsLocked()
}

// InputShape reports the input tensor shape a served model expects.
func (s *Server) InputShape(name string) (model.Shape, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q := s.models[name]
	if q == nil {
		return model.Shape{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return q.sess.InputShape(), nil
}

// Infer submits one request and blocks until it is served, shed or its
// context expires. Admission is deadline-aware: an already-expired context
// fails immediately, a full queue sheds with ErrOverloaded, and a request
// whose deadline passes while queued is dropped at dispatch time with its
// context error.
func (s *Server) Infer(ctx context.Context, name string, input tensor.Tensor) (*core.Result, error) {
	r, err := s.enqueue(ctx, name, input)
	if err != nil {
		return nil, err
	}
	select {
	case rep := <-r.done:
		return rep.res, rep.err
	case <-ctx.Done():
		// The batcher still owns the request; its buffered done channel
		// absorbs the eventual reply.
		return nil, ctx.Err()
	}
}

// enqueue is the admission-control path: typed rejection without blocking.
func (s *Server) enqueue(ctx context.Context, name string, input tensor.Tensor) (*request, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	q := s.models[name]
	if q == nil {
		return nil, fmt.Errorf("%w: %q (serving: %v)", ErrUnknownModel, name, s.modelsLocked())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	want := q.sess.InputShape()
	if got := (model.Shape{H: input.H, W: input.W, C: input.C}); got != want {
		return nil, fmt.Errorf("serve: model %q: input shape %v, want %v", name, got, want)
	}
	r := &request{ctx: ctx, input: input, enqueued: time.Now(), done: make(chan reply, 1)}
	select {
	case q.reqs <- r:
		q.m.accepted.Add(1)
		return r, nil
	default:
		q.m.shed.Add(1)
		return nil, fmt.Errorf("%w: model %q queue full (depth %d)", ErrOverloaded, name, cap(q.reqs))
	}
}

// modelsLocked lists served names under s.mu (either mode).
func (s *Server) modelsLocked() []string {
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close stops admission, drains every queued request to completion, then
// stops the workers. It does not close the underlying sessions. Close is
// idempotent and safe to call concurrently with Infer.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, q := range s.models {
		close(q.reqs) // no senders remain: enqueue checks closed under s.mu
	}
	s.mu.Unlock()
	s.batchers.Wait()
	close(s.batches)
	s.pool.Wait()
	// Cancel the lifecycle context only after the pool drained: admitted
	// requests were served; this just releases any derived contexts.
	s.lifeCancel()
	return nil
}
