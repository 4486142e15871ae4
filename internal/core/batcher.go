package core

import (
	"sync"
	"time"

	"cdbtune/internal/rl"
)

// defaultInferWait is the batcher's latency cap: after the first pending
// request, at most this long is spent waiting for more workers to show up
// before the batch is flushed. It bounds the worst case a lone worker
// pays for batching at a fraction of a single environment step.
const defaultInferWait = 200 * time.Microsecond

// actRequest is one worker's pending action selection: the normalized
// state to act on, whether to explore, the worker's forked noise process
// (nil lets the agent fall back to its own), and the channel the chosen
// action is delivered on.
type actRequest struct {
	state []float64
	noisy bool
	noise rl.Noise
	reply chan []float64
}

// inferBatcher is the batched inference front-end of the parallel
// trainer: in-flight workers enqueue their states onto one channel, a
// single collector goroutine folds everything pending (up to maxBatch,
// waiting at most `wait` for stragglers) into one agent.ActBatch forward
// pass under a single agentMu acquisition, perturbs the exploring
// requests, and fans the actions back out. N workers asking for actions
// cost one lock round-trip and one network traversal instead of N.
//
// Ordering contract: requests from different workers carry no ordering
// guarantee — they are batched in channel-arrival order and answered
// together. Each worker blocks on its own reply, so the per-episode
// sequence observe(s,a,r,s') the worker later stores is always internally
// consistent; only cross-worker interleaving (which the replay pool is
// explicitly designed to tolerate, §2.2.4's i.i.d.-ifying random
// sampling) is left unspecified.
type inferBatcher struct {
	t        *Tuner
	maxBatch int
	wait     time.Duration
	reqs     chan actRequest
	quit     chan struct{}
	done     sync.WaitGroup

	mu       sync.Mutex
	requests int
	batches  int
	largest  int
}

// newInferBatcher starts a collector serving at most maxBatch requests
// per forward pass. Callers stop it with stop() once every worker that
// could submit has exited.
func newInferBatcher(t *Tuner, maxBatch int) *inferBatcher {
	b := &inferBatcher{
		t:        t,
		maxBatch: maxBatch,
		wait:     defaultInferWait,
		reqs:     make(chan actRequest, maxBatch),
		quit:     make(chan struct{}),
	}
	b.done.Add(1)
	go b.loop()
	return b
}

// stop shuts the collector down. It must only be called after all
// submitting workers have returned (the trainer calls it after
// wg.Wait()), so no request can be stranded without a reply.
func (b *inferBatcher) stop() {
	close(b.quit)
	b.done.Wait()
}

// act submits one action-selection request and blocks until the batched
// forward pass that includes it completes.
func (b *inferBatcher) act(state []float64, noisy bool, noise rl.Noise) []float64 {
	reply := make(chan []float64, 1)
	b.reqs <- actRequest{state: state, noisy: noisy, noise: noise, reply: reply}
	return <-reply
}

// loop is the collector: take one request, gather whatever else arrives
// within the latency cap (or until the batch is full), flush.
func (b *inferBatcher) loop() {
	defer b.done.Done()
	for {
		var first actRequest
		select {
		case first = <-b.reqs:
		case <-b.quit:
			return
		}
		batch := append(make([]actRequest, 0, b.maxBatch), first)
		timer := time.NewTimer(b.wait)
	gather:
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			case <-timer.C:
				break gather
			}
		}
		timer.Stop()
		b.flush(batch)
	}
}

// flush runs the shared forward pass and answers every request in the
// batch. The whole batch — forward pass plus per-request noise — costs
// one agentMu acquisition.
func (b *inferBatcher) flush(batch []actRequest) {
	states := make([][]float64, len(batch))
	for i, r := range batch {
		states[i] = r.state
	}
	t := b.t
	t.agentMu.Lock()
	acts := t.agent.ActBatch(states)
	for i, r := range batch {
		if r.noisy {
			acts[i] = t.agent.Perturb(acts[i], r.noise)
		}
	}
	t.agentMu.Unlock()
	for i, r := range batch {
		r.reply <- acts[i]
	}
	b.mu.Lock()
	b.requests += len(batch)
	b.batches++
	if len(batch) > b.largest {
		b.largest = len(batch)
	}
	b.mu.Unlock()
}

// meanBatch reports the mean number of requests folded into one forward
// pass so far; 1 before any batch has flushed.
func (b *inferBatcher) meanBatch() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.batches == 0 {
		return 1
	}
	return float64(b.requests) / float64(b.batches)
}
