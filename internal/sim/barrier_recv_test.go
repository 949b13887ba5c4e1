package sim

import (
	"context"
	"testing"

	"cimflow/internal/isa"
)

// TestRecvImmediatelyAfterBarrier pins the blocked-status classification:
// a RECV that blocks as the first instruction after a released BARRIER
// must park the core as a receiver (woken by the later SEND), not be
// mistaken for a second barrier arrival. The scheduler used to classify
// stepBlocked by peeking at code[pc-1], which this adjacency defeats; the
// handlers now report barrier arrivals as a distinct step status.
func TestRecvImmediatelyAfterBarrier(t *testing.T) {
	cfg := testConfig() // 2x2 mesh, cores 2 and 3 idle
	for _, ex := range decodedModes {
		t.Run(ex.name, func(t *testing.T) {
			ch, err := NewChip(&cfg)
			if err != nil {
				t.Fatal(err)
			}

			receiver := []isa.Instruction{}
			receiver = append(receiver, isa.LI(1, 0)...)  // landing addr
			receiver = append(receiver, isa.LI(2, 16)...) // size
			receiver = append(receiver, isa.LI(3, 1)...)  // source core
			receiver = append(receiver,
				isa.Barrier(1),
				isa.Recv(1, 2, 3, 5), // blocks here, right after the barrier
				isa.Halt(),
			)
			sender := []isa.Instruction{}
			sender = append(sender, isa.LI(1, 64)...)
			sender = append(sender, isa.LI(2, 16)...)
			sender = append(sender, isa.LI(3, 0)...) // destination core
			sender = append(sender,
				isa.Barrier(1),
				// Delay past the barrier so the receiver's RECV blocks first.
				isa.Nop(), isa.Nop(), isa.Nop(), isa.Nop(),
				isa.Send(1, 2, 3, 5),
				isa.Halt(),
			)
			progs := []Program{{Core: 0, Code: receiver}, {Core: 1, Code: sender}}
			ex.load(t, ch, progs...)
			stats, err := ch.Run(context.Background())
			if err != nil {
				t.Error(err)
			}
			checkGolden(t, "schedule/recv immediately after barrier", stats, err)
			matchRef(t, ch, 0, err, progs, nil)
		})
	}
}
