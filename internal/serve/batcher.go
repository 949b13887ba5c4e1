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
		if !ok {
			return
		}
		s.batches <- s.collect(q, first)
	}
}

// collect grows a batch from its first request until MaxBatch requests are
// gathered, MaxDelay elapses, or the queue closes. MaxDelay = 0 is greedy:
// it drains whatever is already queued without waiting.
func (s *Server) collect(q *modelQueue, first *request) *batch {
	b := &batch{q: q, reqs: []*request{first}}
	if q.cfg.MaxBatch <= 1 {
		return b
	}
	var timeout <-chan time.Time
	if q.cfg.MaxDelay > 0 {
		timer := time.NewTimer(q.cfg.MaxDelay)
		defer timer.Stop()
		timeout = timer.C
	}
	for len(b.reqs) < q.cfg.MaxBatch {
		if timeout == nil {
			select {
			case r, ok := <-q.reqs:
				if !ok {
					return b
				}
				b.reqs = append(b.reqs, r)
			default:
				return b
			}
		} else {
			select {
			case r, ok := <-q.reqs:
				if !ok {
					return b
				}
				b.reqs = append(b.reqs, r)
			case <-timeout:
				return b
			}
		}
	}
	return b
}

// worker dispatches formed batches. Multiple blocked batchers hand batches
// to workers in the order the batchers arrived at the gate, so hot models
// take fair turns.
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
	live := make([]*request, 0, len(b.reqs))
	for _, r := range b.reqs {
		if err := r.ctx.Err(); err != nil {
			q.m.expired.Add(1)
			r.done <- reply{err: err}
			continue
		}
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
