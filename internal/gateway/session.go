package gateway

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"sesemi/internal/obs"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
)

// Continuous batching dispatch: dispatchSession replaces dispatch's
// form-then-fire activation with a step loop over a pinned backend session.
// Each iteration sends ONE step frame (semirt.StepFrame) — admitting any
// newly drained requests — and fans out the members that completed, failed,
// or were preempted at that step boundary. The session stays open while it
// has resident members or the queue keeps feeding it joiners, so a short
// request arriving behind a long one completes at its own step instead of
// waiting for the batch that happened to contain the long one.

// sessMember tracks one resident member of a live session.
type sessMember struct {
	p *pending
	// tenant and enq are captured from p at admission: the result send is the
	// last permitted touch of p (the waiter may recycle the envelope, see
	// pool.go), and the post-send accounting needs both.
	tenant string
	enq    time.Time
	// sent is the member's admission into this session — the per-member
	// dispatch→fan-out clock behind the queue's svcEWMA.
	sent time.Time
	// steps is the member's cumulative completed step count across sessions
	// (seeded from req.StepsDone on join, advanced per successful frame). If
	// the session dies, this is the progress its retry carries — completed
	// steps are not re-charged when the member rejoins a later session.
	steps int
}

// newSessMember admits p into a session at time now, capturing the fields
// the fan-out accounting reads after the send.
func newSessMember(p *pending, now time.Time) *sessMember {
	return &sessMember{p: p, tenant: p.tenant, enq: p.enq, sent: now, steps: p.req.StepsDone}
}

// openSessionSafe opens a pinned session for the queue's model — its
// placement affinity, as in dispatch — with panics recovered, like
// invokeBatch: a panicking backend yields ErrBackendPanic (retryable), never
// a dead dispatch goroutine.
func (g *Gateway) openSessionSafe(q *queue, home string) (sess InvokeSession, err error) {
	defer func() {
		if r := recover(); r != nil {
			g.panics.Add(1)
			sess, err = nil, fmt.Errorf("%w: %v", ErrBackendPanic, r)
		}
	}()
	return g.sess.OpenSession(serverless.WithAffinity(g.ctx, q.model), q.action, home)
}

// stepSafe delivers one step frame with panics recovered.
func (g *Gateway) stepSafe(sess InvokeSession, payload []byte) (raw []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			g.panics.Add(1)
			raw, err = nil, fmt.Errorf("%w: %v", ErrBackendPanic, r)
		}
	}()
	return sess.Step(payload)
}

// requeueLocked re-admits a preempted member. Its progress travels in
// req.StepsDone (set by the caller from the step result); its ORIGINAL
// enqueue time and resumed flag make re-entry fairness-neutral: it re-enters
// at its original-arrival position within its priority band (insertResumed)
// and its next drain burns no fresh tenant deficit. After Close the member
// is failed with ErrClosed instead, like any queued request.
func (g *Gateway) requeueLocked(q *queue, p *pending) {
	g.preemptions.Add(1)
	if g.closed {
		g.finishTrace(p)
		tenant := p.tenant // send last: the waiter may recycle p on receipt
		p.done <- result{err: ErrClosed}
		g.served.Add(1)
		g.pending--
		g.tenantAddLocked(tenant, func(tc *tenantCounts) { tc.served++ })
		return
	}
	if p.tr != nil {
		// A zero-width preempt marker plus the anomaly flag: the eviction
		// itself is instantaneous — its cost is the next queue span.
		now := time.Now()
		p.tr.Anomaly("preempt")
		p.tr.Observe(obs.StagePreempt, now, now)
		p.trEnq = now
	}
	p.resumed = true
	q.enqueueLocked(q.tenant(p.tenant, &g.cfg), p)
}

// dispatchSession drives one continuous session to completion. Runs outside
// the gateway lock, on a dispatch slot (q.inFlight), exactly like dispatch.
// Unlike dispatch it takes no formed batch: its members are drained only
// after the session opens, so while the open waits for a pinned sandbox slot
// (capacity long-lived sessions may be holding) the backlog stays in the
// queue where the live sessions' refills keep admitting it mid-batch —
// nothing strands behind a blocked open.
func (g *Gateway) dispatchSession(q *queue, home string) {
	defer g.wg.Done()
	if g.rt != nil && home == "" {
		// First dispatch of a fresh queue: elect a home (same protocol as
		// dispatch — the cluster scan runs unlocked, adoption re-checks).
		stats := g.rt.NodeStats(q.action)
		g.mu.Lock()
		if q.home == "" {
			g.chooseHomeLocked(q, stats)
		}
		home = q.home
		g.mu.Unlock()
	}

	members := map[int]*sessMember{}
	servedOn := home
	served := 0 // members answered from this session (NoteBatch size)
	var svcSum time.Duration
	var frameErr error

	// firstDrain claims this spawn's share of the backlog: whatever is still
	// queued, up to MaxBatch — sessions that opened while we waited may have
	// already admitted the requests this spawn was sized for.
	firstDrain := func() []*pending {
		g.mu.Lock()
		q.opening--
		var batch []*pending
		if !g.closed {
			batch = g.drainLocked(q, g.cfg.MaxBatch)
		}
		if len(batch) > 0 {
			q.recomputeOldestLocked()
		}
		g.mu.Unlock()
		if len(batch) > 0 {
			if g.cfg.GroupUsers && len(batch) > 1 {
				// Same key-switch contiguity as form-then-fire formation.
				sort.SliceStable(batch, func(i, j int) bool { return batch[i].group < batch[j].group })
			}
			g.batches.Add(1)
			g.m.BatchSizes.Observe(float64(len(batch)))
		}
		return batch
	}

	sess, frameErr := g.openSessionSafe(q, home)
	if frameErr != nil {
		// The session never opened: claim the members this spawn was sized
		// for and register them so the common strand-fail path below answers
		// every one exactly once (dispatch's whole-batch error fan-out).
		now := time.Now()
		for i, p := range firstDrain() {
			members[i] = newSessMember(p, now)
		}
	} else {
		servedOn = sess.Node()
		sid := "s" + strconv.FormatUint(g.sessionSeq.Add(1), 10)
		join := firstDrain()
		nextID := 0
		for len(join) > 0 || len(members) > 0 {
			now := time.Now()
			js := make([]semirt.StepJoin, 0, len(join))
			for _, p := range join {
				members[nextID] = newSessMember(p, now)
				jr := p.req
				if p.tr != nil {
					// Queue span closes at admission into the session; the
					// member's dispatch span starts here (sm.sent == now).
					p.tr.Observe(obs.StageQueue, p.trEnq, now)
					if p.tr.Sampled() {
						// Ask the backend to measure step stages only for
						// retained traces, like the form-then-fire path.
						jr.Trace = true
					}
				}
				js = append(js, semirt.StepJoin{ID: nextID, Req: jr})
				nextID++
				g.m.QueueWait.Observe(float64(now.Sub(p.enq)) / float64(time.Millisecond))
			}
			g.mu.Lock()
			waiting := q.size
			g.mu.Unlock()
			payload, err := semirt.EncodeStepFrame(semirt.StepFrame{
				Session: sid, Join: js, Budget: g.cfg.PreemptAfter, Waiting: waiting})
			var raw []byte
			if err == nil {
				raw, err = g.stepSafe(sess, payload)
			}
			var resp semirt.StepResponse
			if err == nil {
				resp, err = semirt.DecodeStepResponse(raw)
			}
			if err != nil {
				frameErr = err
				break
			}
			now = time.Now()
			var requeue []*pending
			var finished []*sessMember
			for _, d := range resp.Done {
				sm, ok := members[d.ID]
				if !ok {
					continue
				}
				delete(members, d.ID)
				if d.Preempted {
					if sm.p.tr != nil {
						// This residency's dispatch span; requeueLocked adds
						// the preempt marker and re-opens the queue span.
						sm.p.tr.Observe(obs.StageDispatch, sm.sent, now)
					}
					sm.p.req.StepsDone = d.StepsDone
					requeue = append(requeue, sm.p)
					continue
				}
				if sm.p.tr != nil {
					// Seal the trace before the send (it is recycled at
					// Finish): dispatch covers the whole session residency,
					// and the final frame's backend stages stitch in as
					// children. Fan-out at a step boundary is immediate, so
					// there is no separate fanout span in continuous mode.
					sm.p.tr.Observe(obs.StageDispatch, sm.sent, now)
					if sm.p.tr.Sampled() {
						for _, sd := range resp.Stages {
							sm.p.tr.Attach(sd.Stage, now, sd.Dur)
						}
					}
					if !sm.p.deadline.IsZero() && now.After(sm.p.deadline) {
						sm.p.tr.Anomaly("slo")
					}
					g.finishTrace(sm.p)
				}
				// Fan out at the step boundary the member completed at — the
				// whole point of the discipline: no waiting for the session.
				// The send is the last touch of sm.p; accounting below uses
				// the member's captured tenant/enq.
				sm.p.done <- result{resp: d.Response, err: d.Err}
				g.served.Add(1)
				g.m.E2E.Observe(float64(now.Sub(sm.enq)) / float64(time.Millisecond))
				svcSum += now.Sub(sm.sent)
				served++
				finished = append(finished, sm)
			}
			// Every member still resident executed one step this frame; the
			// count is the progress a session-recovery retry carries.
			for _, sm := range members {
				sm.steps++
			}
			join = nil
			g.mu.Lock()
			for _, p := range requeue {
				g.requeueLocked(q, p)
			}
			g.pending -= len(finished)
			for _, sm := range finished {
				g.tenantAddLocked(sm.tenant, func(tc *tenantCounts) { tc.served++ })
				// Per-member smoothed service time: the deadline shedder's
				// estimate must track a member's session residency, not the
				// session's (unbounded) lifetime.
				svc := now.Sub(sm.sent)
				if q.svcEWMA == 0 {
					q.svcEWMA = svc
				} else {
					q.svcEWMA += (svc - q.svcEWMA) / 4
				}
			}
			// Mid-batch admission: refill from the backlog (preempted members
			// just re-queued compete here on their original arrival order).
			if !g.closed && q.size > 0 && len(members) < g.cfg.MaxBatch {
				join = g.drainLocked(q, g.cfg.MaxBatch-len(members))
				if len(join) > 0 {
					q.recomputeOldestLocked()
				}
			}
			g.mu.Unlock()
			if len(members) == 0 && len(join) == 0 {
				break
			}
		}
		if frameErr == nil && nextID > 0 {
			// Normal termination: drop the runtime's session state (none
			// exists if the first drain came up empty). Members are gone by
			// construction; a failed close only leaks state the runtime
			// bounds and reaps with the enclave.
			if payload, err := semirt.EncodeStepFrame(semirt.StepFrame{Session: sid, Close: true}); err == nil {
				_, _ = g.stepSafe(sess, payload)
			}
		}
		sess.Close()
	}

	if len(members) > 0 {
		// A frame failed (or the session never opened). Session recovery:
		// members with retry budget re-queue fairness-neutrally carrying
		// their cumulative step progress (req.StepsDone), so the session they
		// rejoin charges only the remaining steps; the rest fail with the
		// frame error, exactly like dispatch fans an activation error out to
		// the whole batch.
		var retry, failed []*sessMember
		if g.retryable(frameErr) {
			for _, sm := range members {
				if sm.p.retries < g.cfg.MaxRetries {
					sm.p.retries++
					retry = append(retry, sm)
				} else {
					failed = append(failed, sm)
				}
			}
		} else {
			for _, sm := range members {
				failed = append(failed, sm)
			}
		}
		if len(retry) > 0 {
			g.retryBackoff(retry[0].p.retries)
		}
		now := time.Now()
		g.mu.Lock()
		for _, sm := range failed {
			if sm.p.tr != nil {
				sm.p.tr.Observe(obs.StageDispatch, sm.sent, now)
				g.finishTrace(sm.p)
			}
			r := result{err: g.failFinal(sm.p, frameErr)}
			sm.p.done <- r // last touch of sm.p; accounting uses the captures
			g.served.Add(1)
			g.m.E2E.Observe(float64(now.Sub(sm.enq)) / float64(time.Millisecond))
			g.pending--
			g.tenantAddLocked(sm.tenant, func(tc *tenantCounts) { tc.served++ })
		}
		for _, sm := range retry {
			if sm.p.tr != nil {
				sm.p.tr.Observe(obs.StageDispatch, sm.sent, now)
			}
			sm.p.req.StepsDone = sm.steps
			g.retryLocked(q, sm.p, now)
		}
		g.mu.Unlock()
	}

	g.mu.Lock()
	q.inFlight--
	needRehome := false
	if g.rt != nil && home != "" {
		needRehome = g.noteServedLocked(q, home, servedOn)
	}
	g.flushLocked(q, false)
	g.armTimerLocked(q)
	g.reapLocked(q)
	g.mu.Unlock()
	if g.cfg.Autoscaler != nil && served > 0 {
		// Outside g.mu, like dispatch. Size is the members this session
		// answered; svc the mean per-member residency — the same
		// units-of-work telemetry the Little's-law target consumes.
		g.cfg.Autoscaler.NoteBatch(q.action, q.model, served, svcSum/time.Duration(served), servedOn)
	}
	if needRehome {
		stats := g.rt.NodeStats(q.action)
		g.mu.Lock()
		if q.home == home {
			g.rehomeLocked(q, stats)
		}
		g.mu.Unlock()
	}
}
