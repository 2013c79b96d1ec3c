package gateway

// Serving API v2: the tenant-aware request envelope and the async
// Submit/Ticket surface. Do (v1) remains as a thin shim over Submit — see
// the package comment for the queueing discipline behind both.

import (
	"context"
	"sync"
	"time"

	"sesemi/internal/obs"
	"sesemi/internal/semirt"
)

// DefaultTenant is the tenant requests without an explicit Tenant are
// accounted to (the v1 Do path lands here).
const DefaultTenant = "default"

// Hints carry optional, advisory scheduling hints. The gateway may ignore
// any of them; they never affect correctness, only placement.
type Hints struct {
	// Node prefers a cluster node for this request's (action, model) queue.
	// When affinity routing is enabled and the queue has not yet elected a
	// home, the hint becomes the home — letting a caller that knows where
	// its model's warm state lives (e.g. after a deploy-time prewarm) skip
	// the first-dispatch election. Ignored once a home exists.
	Node string
	// User is the user-affinity grouping key for Config.GroupUsers: requests
	// sharing it form same-user runs inside a batch, so the enclave's key
	// cache switches principals at most once per distinct key in the batch.
	// Empty falls back to the request's Tenant. Purely advisory — it names a
	// scheduling equivalence class, and need not be the enclave-level
	// UserID (though that is the natural choice).
	User string
}

// Request is the serving API v2 envelope: what the caller wants run (Body),
// plus who is asking (Tenant), how urgent it is (Priority), and when the
// answer stops being useful (Deadline). Tenancy, priority and deadline are
// gateway policy inputs — none of them crosses into the enclave payload.
type Request struct {
	// Action is the deployed endpoint (required).
	Action string
	// Model is the target model id. Empty takes Body.ModelID; non-empty
	// overrides it (the two must describe the same model — Model is the
	// queueing key AND what the enclave serves).
	Model string
	// Tenant attributes the request for fair queueing, quotas and
	// accounting. Empty means DefaultTenant.
	Tenant string
	// Priority orders requests within the tenant's own sub-queue: higher
	// dispatches first, equal priorities stay FIFO. It never lets one
	// tenant pass another — cross-tenant order is the weighted
	// deficit-round-robin's alone.
	Priority int
	// Deadline, when non-zero, is the instant the answer stops being
	// useful. A request that is already past (or, at dispatch time,
	// provably cannot meet) its deadline is failed fast with ErrDeadline
	// instead of burning a batch slot.
	Deadline time.Time
	// Hints are advisory placement hints.
	Hints Hints
	// Body is the encrypted inference request shipped to the enclave.
	Body semirt.Request
}

// normalize fills derived fields and reports the effective model id.
func (r *Request) normalize() {
	if r.Tenant == "" {
		r.Tenant = DefaultTenant
	}
	if r.Model == "" {
		r.Model = r.Body.ModelID
	} else {
		r.Body.ModelID = r.Model
	}
	// Thread the envelope deadline into the enclave request, so shedding
	// continues past dispatch: HandleBatch drops a member whose deadline
	// lapses mid-batch (ROADMAP "deadline propagation into the backend").
	if !r.Deadline.IsZero() && r.Body.Deadline.IsZero() {
		r.Body.Deadline = r.Deadline
	}
}

// groupKey is the user-affinity grouping key batches are run-ordered by
// under Config.GroupUsers.
func (r *Request) groupKey() string {
	if r.Hints.User != "" {
		return r.Hints.User
	}
	return r.Tenant
}

// Ticket is the async handle for one submitted request. Exactly one outcome
// is ever delivered: the batch fan-out, a deadline shed, a Cancel, or the
// gateway closing. Wait and Cancel are safe for concurrent use.
type Ticket struct {
	g *Gateway
	q *queue
	p *pending
	// done is p's result channel, captured at mint: envelopes recycle through
	// a pool (pool.go) and p.done is reassigned on reuse, but THIS ticket's
	// outcome only ever arrives on the channel its own Submit created.
	done chan result
	// gen is p's recycle generation at mint; Cancel compares it against the
	// envelope's live generation before trusting the p pointer.
	gen uint64

	once    sync.Once
	settled chan struct{}
	res     result
}

func newTicket(g *Gateway, q *queue, p *pending) *Ticket {
	return &Ticket{g: g, q: q, p: p, done: p.done, gen: p.gen.Load(), settled: make(chan struct{})}
}

// settle records the ticket's single outcome (first caller wins) and retires
// the envelope: by the pooling discipline the result send was the gateway's
// last touch of p, so the first settler owns it and may recycle it.
func (t *Ticket) settle(r result) {
	t.once.Do(func() {
		t.res = r
		close(t.settled)
		t.g.releasePending(t.p)
	})
}

// Wait blocks until the request's outcome is available or ctx is done.
// A ctx expiry does NOT withdraw the request — the ticket stays live and a
// later Wait (or another goroutine's) still observes the outcome; use
// Cancel to withdraw. Wait may be called repeatedly and concurrently.
func (t *Ticket) Wait(ctx context.Context) (semirt.Response, error) {
	select {
	case r := <-t.done:
		t.settle(r)
	case <-t.settled:
	case <-ctx.Done():
		return semirt.Response{}, ctx.Err()
	}
	return t.res.resp, t.res.err
}

// WaitCtx is the bounded-wait variant of Wait: if ctx ends while the request
// is still queued, the request is WITHDRAWN (Cancel) and ctx's error
// returned — the caller's bound on recovery-inflated waits (retry backoff,
// failover re-dispatch) actually frees the queue slot instead of leaving an
// abandoned request to ride a future batch. Once the request has entered a
// batch, the activation proceeds and is accounted; WaitCtx still returns
// ctx's error, and a later Wait observes the eventual outcome.
func (t *Ticket) WaitCtx(ctx context.Context) (semirt.Response, error) {
	resp, err := t.Wait(ctx)
	if err != nil && ctx.Err() != nil && err == ctx.Err() {
		t.Cancel()
		return semirt.Response{}, ctx.Err()
	}
	return resp, err
}

// Cancel withdraws the request if it is still queued, reporting whether it
// was. A canceled ticket settles with ErrCanceled. Once the request has
// entered a batch, Cancel reports false and the activation proceeds (the
// response is still accounted, as under Do).
func (t *Ticket) Cancel() bool {
	g := t.g
	g.mu.Lock()
	if t.p.gen.Load() != t.gen {
		// The envelope was settled and recycled (possibly re-enqueued for an
		// unrelated request, possibly in this very queue): the pointer match
		// below would withdraw an innocent request. Our own request is long
		// answered — Cancel is simply too late.
		g.mu.Unlock()
		return false
	}
	removed := t.q.removeLocked(t.p)
	if removed {
		g.finishTrace(t.p) // before settle can recycle the envelope
		g.pending--
		g.tenantAddLocked(t.p.tenant, func(tc *tenantCounts) { tc.canceled++ })
		g.reapLocked(t.q)
	}
	g.mu.Unlock()
	if removed {
		g.canceled.Add(1)
		t.settle(result{err: ErrCanceled})
	}
	return removed
}

// Submit admits one enveloped request and returns its Ticket without
// waiting for the response. Admission fails fast: ErrClosed after Close,
// ErrDeadline when the deadline has already passed, ErrTenantOverloaded
// when the tenant's sub-queue quota is full, ErrOverloaded when the queue
// or the gateway-wide pending bound is full. ctx gates admission only; the
// dispatched activation runs under the gateway's own context.
func (g *Gateway) Submit(ctx context.Context, req Request) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req.normalize()
	// The trace begins at admission; every rejection below seals it as an
	// admit-only lifetime (anomalous, so rejections survive head sampling).
	tr := g.cfg.Tracer.Start(req.Action, req.Model, req.Tenant)
	now := time.Now()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.finishRejected(tr, now, "")
		return nil, ErrClosed
	}
	// Closed wins over every other admission outcome; only then is an
	// already-stale deadline shed (and accounted).
	if !req.Deadline.IsZero() && !now.Before(req.Deadline) {
		g.tenantAddLocked(req.Tenant, func(tc *tenantCounts) { tc.shed++ })
		g.mu.Unlock()
		g.shed.Add(1)
		g.finishRejected(tr, now, "shed")
		return nil, ErrDeadline
	}
	key := queueKey(req.Action, req.Model)
	q := g.queues[key]
	if q == nil {
		q = newQueue(req.Action, req.Model, key)
		g.queues[key] = q
	}
	if q.size >= g.cfg.MaxQueue || g.pending >= g.cfg.MaxPending {
		g.reapLocked(q)
		g.tenantAddLocked(req.Tenant, func(tc *tenantCounts) { tc.rejected++ })
		g.mu.Unlock()
		g.rejected.Add(1)
		g.finishRejected(tr, now, "rejected")
		return nil, ErrOverloaded
	}
	tq := q.tenant(req.Tenant, &g.cfg)
	if len(tq.items) >= g.cfg.TenantQuota {
		g.reapLocked(q)
		g.tenantAddLocked(req.Tenant, func(tc *tenantCounts) { tc.rejected++ })
		g.mu.Unlock()
		g.tenantRejected.Add(1)
		g.finishRejected(tr, now, "rejected")
		return nil, ErrTenantOverloaded
	}
	// Envelope from the pool (pool.go): every field is overwritten here, and
	// the done channel is always fresh — a recycled channel could let a stale
	// waiter from the envelope's previous life steal this request's result.
	p := g.newPendingLocked()
	p.req = req.Body
	p.tenant = req.Tenant
	p.group = req.groupKey()
	p.prio = req.Priority
	p.deadline = req.Deadline
	p.done = make(chan result, 1)
	p.enq = now
	p.resumed = false
	p.retries = 0
	p.tr = tr
	if tr != nil {
		// The admit span must close before enqueueLocked: the flush below can
		// drain p into a batch under this same lock hold, and the dispatcher
		// owns the trace from the moment p is queued.
		enqueued := time.Now()
		tr.Observe(obs.StageAdmit, now, enqueued)
		p.trEnq = enqueued
	}
	q.enqueueLocked(tq, p)
	g.pending++
	g.accepted.Add(1)
	g.tenantAddLocked(req.Tenant, func(tc *tenantCounts) { tc.accepted++ })
	g.m.QueueDepth.Observe(float64(q.size))
	if g.rt != nil && req.Hints.Node != "" {
		g.homes.adopt(q.action, q.key, req.Hints.Node)
	}
	g.flushLocked(q, false)
	g.armTimerLocked(q)
	if !p.deadline.IsZero() {
		g.armDeadlineWatchdogLocked(q, p)
	}
	g.maybePrewarmLocked(q)
	// The flush may have shed every queued request (deadline drains): like
	// every other path that can empty a queue, leave no dead queue object
	// behind. A no-op whenever anything is queued, in flight, or timed.
	g.reapLocked(q)
	g.mu.Unlock()
	if g.cfg.Autoscaler != nil {
		// The admission-event feed: one event per accepted request, outside
		// g.mu (the controller locks for itself).
		g.cfg.Autoscaler.NoteAdmit(req.Action, req.Model)
	}
	return newTicket(g, q, p), nil
}

// Do submits one request to the action and waits for its response — the v1
// serving surface, now a shim over Submit. It fails fast with ErrOverloaded
// (or ErrTenantOverloaded for the default tenant's quota) when admission is
// refused and with ErrClosed after Close. If ctx is done while the request
// is still queued, the request is withdrawn and ctx's error returned; once
// it has entered a batch the activation proceeds and the (discarded)
// response is still accounted.
func (g *Gateway) Do(ctx context.Context, action string, req semirt.Request) (semirt.Response, error) {
	tk, err := g.Submit(ctx, Request{Action: action, Body: req})
	if err != nil {
		return semirt.Response{}, err
	}
	resp, err := tk.Wait(ctx)
	if err != nil && ctx.Err() != nil && err == ctx.Err() {
		// Withdrawn-if-still-queued keeps v1's exactly-once contract; a
		// request already riding a batch proceeds and is accounted.
		tk.Cancel()
		return semirt.Response{}, ctx.Err()
	}
	return resp, err
}
