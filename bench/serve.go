package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"cimflow"
)

// The serve_tiny deployment and traffic. Models are listed by popularity
// rank: the Zipf(1.0) mix sends rank k a share proportional to 1/k. The
// ranks are fixed so that every seed offers the same work; the seed drives
// the order of requests and which of a model's inputs each one carries.
var serveModels = []string{"tinymlp", "tinycnn", "tinyresnet", "tinymobile", "tinyse"}

const (
	serveReplicas = 2
	serveInputs   = 8                      // distinct seeded inputs per model
	serveRate     = 100                    // phase A arrivals per second
	serveRateB    = 150                    // phase B arrivals per second
	serveDeadline = 10 * time.Second       // per request, from its due time
	serveQueue    = 256                    // admission queue depth per model
	serveClients  = 8                      // closed-loop clients (traced run)
	serveShareA   = 0.6                    // of the timed phase; B takes the rest
	serveStrategy = cimflow.StrategyDP     // every replica compiles with dp
	serveMaxDelay = 2 * time.Millisecond   // batcher's fill wait
	serveSampleQ  = 100 * time.Millisecond // queue-depth sampling period (traced)
)

// serveSys is two in-process replicas — each its own engine and server with
// one dispatch worker — behind the cluster router.
type serveSys struct {
	engines []*cimflow.Engine
	servers []*cimflow.Server
	router  *cimflow.Router
}

func (s *serveSys) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, e := range s.engines {
		e.Close()
	}
}

// serveSetup builds the deployment and sends one warm-up request per model
// to every replica (building its chip) and one through the router.
func serveSetup(ctx context.Context, c *config, inputs [][]cimflow.Tensor) (*serveSys, error) {
	sys := &serveSys{}
	fail := func(err error) (*serveSys, error) {
		sys.close()
		return nil, err
	}
	for r := 0; r < serveReplicas; r++ {
		e, err := cimflow.NewEngine(cimflow.DefaultConfig(), cimflow.WithSeed(c.seed),
			cimflow.WithStrategy(serveStrategy), cimflow.WithSimWorkers(1))
		if err != nil {
			return fail(err)
		}
		sys.engines = append(sys.engines, e)
		srv := cimflow.NewServer(e, cimflow.WithWorkers(1), cimflow.WithMaxBatch(8),
			cimflow.WithMaxDelay(serveMaxDelay), cimflow.WithQueueDepth(serveQueue))
		sys.servers = append(sys.servers, srv)
		for m, name := range serveModels {
			if err := srv.ServeModel(name); err != nil {
				return fail(err)
			}
			if _, err := srv.Infer(ctx, name, inputs[m][0]); err != nil {
				return fail(err)
			}
		}
	}
	sys.router = cimflow.NewRouter()
	for r, srv := range sys.servers {
		if err := sys.router.AddBackend(cimflow.NewLocalBackend(fmt.Sprintf("replica%d", r), srv)); err != nil {
			return fail(err)
		}
	}
	for m, name := range serveModels {
		if _, err := sys.router.Infer(ctx, "", name, inputs[m][0]); err != nil {
			return fail(err)
		}
	}
	return sys, nil
}

// serveReq is one request of the trace: which model, which of its inputs.
type serveReq struct{ model, input int }

// serveTrace draws n requests from the Zipf(1.0) model mix.
func serveTrace(seed, stream uint64, n int) []serveReq {
	cum := make([]float64, len(serveModels))
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	rng := rand.New(rand.NewPCG(seed, stream))
	reqs := make([]serveReq, n)
	for i := range reqs {
		u := rng.Float64() * total
		m := 0
		for cum[m] < u {
			m++
		}
		reqs[i] = serveReq{m, rng.IntN(serveInputs)}
	}
	return reqs
}

// serveRefs returns every model's seeded inputs and golden outputs.
func serveRefs(ctx context.Context, seed uint64) (inputs, want [][]cimflow.Tensor, cost time.Duration, err error) {
	for m, name := range serveModels {
		g, err := cimflow.LookupModel(name)
		if err != nil {
			return nil, nil, 0, err
		}
		in := seededInputs(g.Nodes[0].OutShape, seed+uint64(m)*7919, serveInputs)
		out, d, err := golden(ctx, g, seed, in)
		if err != nil {
			return nil, nil, 0, err
		}
		inputs, want, cost = append(inputs, in), append(want, out), cost+d
	}
	return inputs, want, cost, nil
}

// serveRec is one finished request, verified after its phase.
type serveRec struct {
	req serveReq
	res *cimflow.Result
	err error
	lat time.Duration // from due time (open loop) or send time (closed loop)
	end time.Duration // completion, from the phase's start
}

// servePhase is a finished load phase.
type servePhase struct {
	recs []serveRec
	wall time.Duration
	lags []time.Duration // open loop only: how late the generator sent
}

// infer is how a request reaches the system: through the router, as the
// anonymous tenant.
type inferFunc func(ctx context.Context, model string, in cimflow.Tensor) (*cimflow.Result, error)

// openPhase offers arrivals at a fixed rate for the duration.
func openPhase(ctx context.Context, infer inferFunc, inputs [][]cimflow.Tensor, trace []serveReq, rate int) servePhase {
	ph := servePhase{recs: make([]serveRec, len(trace))}
	start := time.Now()
	ph.lags = openLoop(wallClock{}, len(trace), time.Second/time.Duration(rate), func(i int, due time.Time) {
		rq := trace[i]
		rctx, cancel := context.WithDeadline(ctx, due.Add(serveDeadline))
		res, err := infer(rctx, serveModels[rq.model], inputs[rq.model][rq.input])
		cancel()
		ph.recs[i] = serveRec{rq, res, err, time.Since(due), time.Since(start)}
	})
	ph.wall = time.Since(start)
	return ph
}

// closedPhase runs clients that each wait for their reply before sending
// the next request.
func closedPhase(ctx context.Context, infer inferFunc, inputs [][]cimflow.Tensor, seed uint64, clients int, d time.Duration) servePhase {
	per := make([][]serveRec, clients)
	traces := make([][]serveReq, clients)
	for cl := range traces {
		traces[cl] = serveTrace(seed, 0xb00+uint64(cl), 4096)
	}
	start := time.Now()
	wall := closedLoop(clients, d, func(cl, i int) {
		rq := traces[cl][i%len(traces[cl])]
		t0 := time.Now()
		rctx, cancel := context.WithTimeout(ctx, serveDeadline)
		res, err := infer(rctx, serveModels[rq.model], inputs[rq.model][rq.input])
		cancel()
		per[cl] = append(per[cl], serveRec{rq, res, err, time.Since(t0), time.Since(start)})
	})
	ph := servePhase{wall: wall}
	for _, recs := range per {
		ph.recs = append(ph.recs, recs...)
	}
	return ph
}

// verify checks a phase's requests, prints its sent / succeeded / shed /
// expired / failed line, and returns latencies in ms (a request that did
// not succeed counts as missing any limit: it is charged the deadline) and
// the completion events of the ones that passed.
func (ph *servePhase) verify(v *verifier, name string, want [][]cimflow.Tensor) (lat []float64, dones []done) {
	cfg := cimflow.DefaultConfig()
	var ok, shed, expired, failed int
	for _, r := range ph.recs {
		key := programKey(serveModels[r.req.model], serveStrategy, &cfg)
		if v.op(key, r.err, r.res, want[r.req.model][r.req.input]) {
			ok++
			dones = append(dones, done{r.end, 1, r.res.Stats.Instructions})
			lat = append(lat, ms(r.lat))
			continue
		}
		switch {
		case errors.Is(r.err, cimflow.ErrOverloaded):
			shed++
		case errors.Is(r.err, context.DeadlineExceeded):
			expired++
		default:
			failed++
		}
		lat = append(lat, ms(max(r.lat, serveDeadline)))
	}
	fmt.Fprintf(os.Stderr, "bench: serve_tiny %s: sent %d succeeded %d shed %d expired %d failed %d in %.2fs\n",
		name, len(ph.recs), ok, shed, expired, failed, ph.wall.Seconds())
	return lat, dones
}

func runServe(ctx context.Context, c *config) (*outcome, error) {
	inputs, want, _, err := serveRefs(ctx, c.seed)
	if err != nil {
		return nil, err
	}
	sys, setups, err := repeatSetup(c,
		func() (*serveSys, error) { return serveSetup(ctx, c, inputs) },
		func(s *serveSys) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	infer := func(ctx context.Context, model string, in cimflow.Tensor) (*cimflow.Result, error) {
		return sys.router.Infer(ctx, "", model, in)
	}
	arrivalsA := max(int(serveRate*c.timedFor(serveShareA).Seconds()), 1)
	arrivalsB := max(int(serveRateB*c.timedFor(1-serveShareA).Seconds()), 1)
	if n := c.maxOps(); n > 0 {
		arrivalsA, arrivalsB = min(arrivalsA, n), min(arrivalsB, n)
	}

	p := &phase{name: c.workload, setups: setups}
	p.from = markHost()
	a := openPhase(ctx, infer, inputs, serveTrace(c.seed, 0xa, arrivalsA), serveRate)
	b := openPhase(ctx, infer, inputs, serveTrace(c.seed, 0xb, arrivalsB), serveRateB)
	p.to = markHost()
	p.heapMB = heapLiveMB()

	// Latency comes from phase A; throughput is phase B's goodput, its
	// completions over the time to the last of them: an open loop has no
	// fixed concurrency to size throughput groups by, so it is one group.
	v := newVerifier()
	p.lat, _ = a.verify(v, "phase A (open loop, 100/s)", want)
	_, p.dones = b.verify(v, "phase B (open loop, 150/s)", want)
	p.allOps = v.attempted
	return &outcome{p.endToEnd(v, nil), v}, nil
}
