package serve

import (
	"context"
	"time"

	"cimflow/internal/tensor"
)

// batcher coalesces one model's queued requests into batches. It exits when
// the queue is closed and drained, so Close serves every admitted request.
func (s *Server) batcher(q *modelQueue) {
	defer s.batchers.Done()
	for {
		first, ok := <-q.reqs
		if !ok || !s.offer(q, first) {
			return
		}
	}
}

// offer grows a batch from its first request and hands it to a worker,
// reporting whether the queue is still open. A request already queued joins
// before the batch is offered; after that the batch is offered while it
// fills. s.batches is unbuffered, so the send succeeds exactly when a worker
// is parked in its range: an idle worker takes a batch of one at once, a
// busy pool lets the batch grow until a worker frees. A full batch, or what
// a closed queue left, goes over with a plain blocking send.
func (s *Server) offer(q *modelQueue, first *request) (open bool) {
	b := &batch{q: q, reqs: []*request{first}}
	open = true
	for open && len(b.reqs) < q.cfg.MaxBatch {
		var r *request
		select {
		case r, open = <-q.reqs:
		default:
			select {
			case r, open = <-q.reqs:
			case s.batches <- b:
				return true
			}
		}
		if open {
			b.reqs = append(b.reqs, r)
		}
	}
	s.batches <- b
	return open
}

// worker dispatches batches. Blocked batchers are served in the order they
// last arrived at the gate: one that accepts a request re-enters the select
// at the back, while a full batch blocks in a plain send and keeps its
// place. So a cold model's lone request is served after at most one batch
// per other model, and a hot model is passed over at most MaxBatch-1 times
// before its batch is full and holds its turn.
func (s *Server) worker() {
	defer s.pool.Done()
	for b := range s.batches {
		s.dispatch(b)
	}
}

// dispatch sheds requests whose deadline expired while queued, runs the
// survivors as one sequential batch on the model's session, and replies to
// every request.
func (s *Server) dispatch(b *batch) {
	q := b.q
	start := time.Now()
	live := make([]*request, 0, len(b.reqs))
	for _, r := range b.reqs {
		if err := r.ctx.Err(); err != nil {
			q.m.expired.Add(1)
			r.done <- reply{err: err}
			continue
		}
		q.m.wait.Observe(start.Sub(r.enqueued))
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	ins := make([]tensor.Tensor, len(live))
	for i, r := range live {
		ins[i] = r.input
	}
	q.m.observeBatch(len(live))
	// The batch runs under the server's lifecycle context: requests
	// already admitted are served even during Close (graceful drain,
	// lifeCancel fires only after the pool drains). A watcher cancels the
	// run mid-simulation once every live caller has abandoned its request
	// — one abandoned caller among several must not kill the batch, but a
	// fully abandoned batch should stop burning the worker.
	runCtx, cancel := context.WithCancel(s.lifeCtx)
	stopWatch := make(chan struct{})
	go func() {
		defer cancel()
		for _, r := range live {
			select {
			case <-r.ctx.Done():
			case <-stopWatch:
				return
			}
		}
	}()
	results, err := q.sess.InferBatchN(runCtx, ins, 1)
	close(stopWatch)
	now := time.Now()
	for i, r := range live {
		switch {
		case results[i] != nil:
			q.m.completed.Add(1)
			q.m.lat.Observe(now.Sub(r.enqueued))
			r.done <- reply{res: results[i]}
		case err != nil:
			q.m.failed.Add(1)
			r.done <- reply{err: err}
		default:
			q.m.failed.Add(1)
			r.done <- reply{err: context.Canceled}
		}
	}
}
