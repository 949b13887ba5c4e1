package serve

import (
	"runtime"
	"testing"
)

// TestQueuedRequestsJoinBeforeOffer: requests already queued when a batch
// starts all join it before it is offered, even with a worker waiting at
// the gate. No staging through Infer reaches that state — an idle worker
// has taken the batch before a second request can queue behind it — so the
// test fills the queue first and plays the worker itself. A select between
// the queue and the gate alone would hand over a random prefix.
func TestQueuedRequestsJoinBeforeOffer(t *testing.T) {
	const maxBatch, extra = 8, 3
	for round := 0; round < 20; round++ {
		s := &Server{batches: make(chan *batch)}
		q := &modelQueue{cfg: ModelConfig{MaxBatch: maxBatch}, reqs: make(chan *request, maxBatch+extra)}
		for i := 1; i < maxBatch+extra; i++ {
			q.reqs <- &request{}
		}
		got := make(chan *batch)
		go func() { got <- <-s.batches }()
		// Let the receiver park at the gate. Whether it has or not, the
		// batch below must come out full.
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		if open := s.offer(q, &request{}); !open {
			t.Fatal("offer reported an open queue closed")
		}
		if n := len((<-got).reqs); n != maxBatch {
			t.Fatalf("round %d: batch of %d offered with %d requests queued, want %d", round, n, maxBatch+extra-1, maxBatch)
		}
		if n := len(q.reqs); n != extra {
			t.Fatalf("round %d: %d requests left in the queue, want %d", round, n, extra)
		}
	}
}
