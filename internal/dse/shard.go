package dse

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// shardPollInterval is how often a shard re-reads a peer's checkpoint file
// while waiting for a result it does not own.
const shardPollInterval = 50 * time.Millisecond

// shardTimeout bounds how long a shard waits on a peer before giving up —
// generous against the seconds-per-point simulation cost, small enough
// that a crashed peer fails the run instead of hanging it.
const shardTimeout = 10 * time.Minute

// ShardPath derives the per-shard checkpoint file from the shared base
// path: base.shard<i>of<n>. Every shard writes its own file and polls its
// peers', so the only coordination medium is the shared directory (plus
// the artifact store deduplicating compiles underneath).
func ShardPath(base string, shard, count int) string {
	return fmt.Sprintf("%s.shard%dof%d", base, shard, count)
}

// shardState is a tour's view of a sharded run: its own checkpoint (the
// evaluator records into it, flushing after every point) and its peers'
// file paths.
type shardState struct {
	shard, count int
	own          *Checkpoint
	peers        map[int]string // shard id -> checkpoint path
}

// newShardState validates the shard options and opens this shard's
// checkpoint. The shared base path comes from the run checkpoint, which is
// required when sharding (it is the coordination medium).
func newShardState(opt SearchOptions) (*shardState, error) {
	if opt.Shard < 0 || opt.Shard >= opt.ShardCount {
		return nil, fmt.Errorf("dse: shard %d outside 0..%d", opt.Shard, opt.ShardCount-1)
	}
	if opt.Checkpoint == nil || opt.Checkpoint.Path() == "" {
		return nil, errors.New("dse: sharded runs need a file-backed checkpoint as the coordination medium")
	}
	base := opt.Checkpoint.Path()
	own, err := LoadCheckpoint(ShardPath(base, opt.Shard, opt.ShardCount))
	if err != nil {
		return nil, err
	}
	// Flush an (possibly empty) file immediately so peers distinguish "not
	// started" from "nothing recorded yet" only by timeout.
	if err := own.Save(); err != nil {
		return nil, err
	}
	st := &shardState{shard: opt.Shard, count: opt.ShardCount, own: own, peers: map[int]string{}}
	for s := 0; s < opt.ShardCount; s++ {
		if s != opt.Shard {
			st.peers[s] = ShardPath(base, s, opt.ShardCount)
		}
	}
	return st, nil
}

func (st *shardState) close() {
	_ = st.own.Save()
}

// await blocks until some peer's checkpoint contains the point, then
// reconstructs its result. All shards run the identical deterministic
// trajectory, so the owner is guaranteed to evaluate (and flush) the point
// unless it crashed — which surfaces here as a timeout error result,
// keeping the failure visible in this shard's trajectory rather than
// hanging the run.
func (st *shardState) await(ctx context.Context, p Point) PointResult {
	key := p.Key()
	deadline := time.Now().Add(shardTimeout)
	for {
		for _, path := range st.peers {
			data, err := os.ReadFile(path)
			if err != nil {
				continue // peer not started yet
			}
			cp, err := DecodeCheckpoint(data)
			if err != nil {
				continue // torn write loses one poll round, not the run
			}
			if saved, ok := cp.Lookup(key); ok {
				return saved.restore(p)
			}
		}
		if time.Now().After(deadline) {
			return PointResult{Point: p,
				Err: fmt.Errorf("dse: shard %d/%d: timed out waiting for peer result of %s", st.shard, st.count, p.Label())}
		}
		select {
		case <-ctx.Done():
			return PointResult{Point: p, Err: ctx.Err()}
		case <-time.After(shardPollInterval):
		}
	}
}
