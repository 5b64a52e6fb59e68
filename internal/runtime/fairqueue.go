package runtime

import (
	"context"
	"sync"
)

// fairQueue is the admission scheduler: a deficit-round-robin (DRR) queue
// over per-(client, class) flows that replaced PR 3's single anonymous FIFO
// channel. Each flow gets a quantum proportional to its class weight
// (interactive high, batch low); the scheduler visits flows in a ring,
// topping up each flow's deficit by its quantum per visit and serving a
// statement per unit of deficit. Every statement costs one unit, so a
// backlogged flow is served at least once every ring pass once its deficit
// accumulates — bounded-turn admission for every client no matter how deep
// any other client's backlog is (the starvation-freedom property test pins
// this). One flow is served first come, first served: the baseline the QoS
// acceptance test compares DRR against.
//
// Blocking semantics match the channel it replaced: push blocks while the
// queue is at capacity (backpressure, honoring ctx), pop blocks while it is
// empty, and after close pop drains what is queued and then reports done.
type fairQueue struct {
	interactiveQuantum int
	batchQuantum       int

	mu     sync.Mutex
	limit  int
	closed bool // guarded by mu
	size   int  // guarded by mu

	flows  map[flowKey]*flow // guarded by mu; active (non-empty) flows
	ring   []*flow           // guarded by mu; round-robin order over flows
	cur    int               // guarded by mu; ring position of the DRR pointer
	rounds int64             // guarded by mu; cumulative ring passes (trace attr)

	popWaiters  []chan struct{} // guarded by mu
	pushWaiters []*pushWaiter   // guarded by mu
}

// flowKey separates flows by client AND class, so one tenant's interactive
// statements never queue behind its own batch backlog either.
type flowKey struct {
	client ClientID
	class  Class
}

// flow is one (client, class) pair's pending statements plus DRR state. A
// flow exists only while it has jobs queued; deficit resets when it drains
// (standard DRR — an idle flow cannot bank credit).
type flow struct {
	key     flowKey
	jobs    []*job
	deficit int
	quantum int
}

type pushWaiter struct {
	ch   chan struct{}
	gone bool
}

func newFairQueue(limit, interactiveQuantum, batchQuantum int) *fairQueue {
	return &fairQueue{
		interactiveQuantum: interactiveQuantum,
		batchQuantum:       batchQuantum,
		limit:              limit,
		flows:              make(map[flowKey]*flow),
	}
}

// push admits j, blocking while the queue is full. It fails fast when ctx
// dies during the wait or the queue closes.
func (q *fairQueue) push(ctx context.Context, j *job) error {
	q.mu.Lock()
	for {
		if q.closed {
			q.mu.Unlock()
			return errClosed
		}
		if q.size < q.limit {
			break
		}
		w := &pushWaiter{ch: make(chan struct{}, 1)}
		q.pushWaiters = append(q.pushWaiters, w)
		q.mu.Unlock()
		select {
		case <-w.ch:
			q.mu.Lock()
		case <-ctx.Done():
			q.mu.Lock()
			w.gone = true
			select {
			case <-w.ch:
				// Lost the race with a wakeup: pass the freed slot on so it
				// is not leaked with us.
				q.wakePusherLocked()
			default:
			}
			q.mu.Unlock()
			return ctx.Err()
		}
	}
	q.enqueueLocked(j)
	q.size++
	q.wakePopperLocked()
	q.mu.Unlock()
	return nil
}

// pop hands out the next statement by DRR order, blocking while the queue
// is empty. After close it keeps draining queued statements; ok=false means
// drained and closed (the worker's exit signal).
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	for {
		if q.size > 0 {
			j := q.nextLocked()
			q.size--
			q.wakePusherLocked()
			q.mu.Unlock()
			return j, true
		}
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		ch := make(chan struct{}, 1)
		q.popWaiters = append(q.popWaiters, ch)
		q.mu.Unlock()
		<-ch
		q.mu.Lock()
	}
}

// close wakes every waiter; pending statements stay poppable.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	for _, ch := range q.popWaiters {
		ch <- struct{}{}
	}
	q.popWaiters = nil
	for _, w := range q.pushWaiters {
		if !w.gone {
			w.ch <- struct{}{}
		}
	}
	q.pushWaiters = nil
	q.mu.Unlock()
}

//llmqlint:holds mu
func (q *fairQueue) enqueueLocked(j *job) {
	j.roundsAtPush = q.rounds
	k := flowKey{client: j.client, class: j.class}
	f := q.flows[k]
	if f == nil {
		quantum := q.interactiveQuantum
		if j.class == ClassBatch {
			quantum = q.batchQuantum
		}
		f = &flow{key: k, quantum: quantum}
		q.flows[k] = f
		q.ring = append(q.ring, f)
	}
	f.jobs = append(f.jobs, j)
}

// nextLocked picks the next statement. Within a flow order is FIFO; across
// flows it is DRR. Only called with size > 0, so some flow is non-empty and
// the quantum top-ups (every quantum >= 1) guarantee termination within one
// ring pass.
//
//llmqlint:holds mu
func (q *fairQueue) nextLocked() *job {
	for {
		f := q.ring[q.cur]
		if len(f.jobs) == 0 {
			q.removeCurLocked(f)
			continue
		}
		if f.deficit >= 1 {
			f.deficit--
			j := f.jobs[0]
			f.jobs[0] = nil
			f.jobs = f.jobs[1:]
			if len(f.jobs) == 0 {
				q.removeCurLocked(f)
			}
			j.drrRounds = q.rounds - j.roundsAtPush
			return j
		}
		f.deficit += f.quantum
		q.cur = (q.cur + 1) % len(q.ring)
		if q.cur == 0 {
			q.rounds++
		}
	}
}

// removeCurLocked retires the flow under the DRR pointer (it drained); the
// pointer then addresses the next flow in ring order.
//
//llmqlint:holds mu
func (q *fairQueue) removeCurLocked(f *flow) {
	f.deficit = 0
	delete(q.flows, f.key)
	copy(q.ring[q.cur:], q.ring[q.cur+1:])
	q.ring[len(q.ring)-1] = nil // drop the stale tail reference
	q.ring = q.ring[:len(q.ring)-1]
	if len(q.ring) == 0 {
		q.cur = 0
	} else {
		q.cur %= len(q.ring)
	}
}

//llmqlint:holds mu
func (q *fairQueue) wakePopperLocked() {
	if len(q.popWaiters) == 0 {
		return
	}
	ch := q.popWaiters[0]
	q.popWaiters = q.popWaiters[1:]
	ch <- struct{}{}
}

//llmqlint:holds mu
func (q *fairQueue) wakePusherLocked() {
	for len(q.pushWaiters) > 0 {
		w := q.pushWaiters[0]
		q.pushWaiters = q.pushWaiters[1:]
		if !w.gone {
			w.ch <- struct{}{}
			return
		}
	}
}
