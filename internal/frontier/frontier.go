// Package frontier is the horizontally sharded serving tier: N gateway.Gateway
// shards behind a consistent-hash router, fronting one backend (the
// serverless cluster). It is the layer that takes the gateway's
// single-instance ceiling off the system — every queue, DRR fairness,
// autoscaling and retry feature runs shard-local, the shards share one
// affinity home table, and the frontier adds only routing, spill and
// stealing on top.
//
// Architecture (README "Sharded frontier"):
//
//		clients → consistent-hash ring (atomic snapshot, lock-free lookup)
//		        → shard = gateway.Gateway (own queues, DRR, retries)
//		        → shared affinity home table (one home node per model)
//		        → shared backend cluster
//
//	  - Routing: requests hash by (action, model, tenant) onto a ring with
//	    bounded virtual nodes per shard. The tenant is part of the key on
//	    purpose: one hot model's stream splits across shards by tenant, so
//	    no single shard carries it alone. Each shard runs its own
//	    (action, model) queue for the tenants that land on it, and DRR
//	    fairness holds among those tenants.
//	  - Affinity homes are frontier-wide: New builds one home table and
//	    every shard routes by it (gateway.NewShards), so a model's batches
//	    reach one warm node whichever shard formed them.
//	  - Admit path: one atomic ring-snapshot load plus the target shard's own
//	    mutex. The frontier itself takes NO lock on admission; its counters
//	    are atomics and its envelopes recycle through the per-shard pools.
//	  - Spill (bounded re-hash): when the home shard refuses with
//	    ErrOverloaded/ErrTenantOverloaded, admission retries on the next
//	    distinct ring candidates (up to SpillDepth), so a hot key saturating
//	    one shard borrows headroom instead of rejecting while neighbors idle.
//	  - Work stealing: a pacer compares shard backlogs and moves whole
//	    (action, model) queue drains from the most to the least backlogged
//	    shard at dispatch boundaries (gateway.StealQueue/AcceptStolen),
//	    fairness-neutrally — original enqueue times, no fresh DRR deficit.
//	    A stolen drain dispatches to its model's existing home.
//	  - Aggregation: Stats, TenantSnapshot and Metrics merge across shards
//	    (histograms via metrics.Histogram.Merge), so callers observe one
//	    logical gateway.
package frontier

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/metrics"
	"sesemi/internal/obs"
	"sesemi/internal/semirt"
)

// Config tunes the frontier. The embedded gateway.Config applies to EVERY
// shard (shards are deliberately uniform — the ring assumes interchangeable
// capacity); remember that bounds like MaxPending and quotas are therefore
// per shard, and the frontier's aggregate capacity scales with Shards.
type Config struct {
	gateway.Config

	// Shards is the number of gateway shards (default 1 — the frontier then
	// behaves exactly like a single gateway, ring and all).
	Shards int
	// VirtualNodes is the number of ring points per shard (default 64,
	// bounded at 512). More points flatten the key distribution
	// (imbalance ≈ 1 + O(√(ln N / V))) at the cost of a larger — still
	// read-only — ring.
	VirtualNodes int
	// SpillDepth is how many ring candidates past the home shard an
	// overloaded admission retries (default 2; negative disables spilling).
	// Spill is a bounded re-hash: candidates are the key's successor shards
	// on the ring, so a given key always spills to the same shards, keeping
	// its footprint — warm state, affinity homes — bounded.
	SpillDepth int
	// StealInterval is the work-stealing pacer's cadence (default 2ms;
	// negative disables stealing). Each tick moves at most one queue drain
	// between the most and least backlogged shards.
	StealInterval time.Duration
	// StealThreshold is the minimum backlog gap (max shard − min shard, in
	// requests) before a steal fires (default 16). Below it the imbalance is
	// cheaper to serve in place than to move.
	StealThreshold int
	// StealMax caps the requests moved per steal (default 256).
	StealMax int
}

func (c *Config) defaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.VirtualNodes < 1 {
		c.VirtualNodes = 64
	}
	if c.VirtualNodes > 512 {
		c.VirtualNodes = 512
	}
	if c.SpillDepth == 0 {
		c.SpillDepth = 2
	}
	if c.SpillDepth < 0 {
		c.SpillDepth = 0
	}
	if c.StealInterval == 0 {
		c.StealInterval = 2 * time.Millisecond
	}
	if c.StealThreshold < 1 {
		c.StealThreshold = 16
	}
	if c.StealMax < 1 {
		c.StealMax = 256
	}
}

// Frontier fronts N gateway shards behind the consistent-hash ring.
type Frontier struct {
	cfg    Config
	shards []*gateway.Gateway
	ring   atomic.Pointer[ring]

	spills atomic.Uint64 // admissions that landed on a non-home shard
	steals atomic.Uint64 // steal operations performed
	stolen atomic.Uint64 // requests moved by steals

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New creates a frontier whose shards all dispatch into inv (the expected
// wiring: N routing shards over one serverless cluster, which is itself
// internally sharded and thread-safe).
func New(cfg Config, inv gateway.Invoker) *Frontier {
	cfg.defaults()
	invs := make([]gateway.Invoker, cfg.Shards)
	for i := range invs {
		invs[i] = inv
	}
	return NewPerShard(cfg, invs)
}

// NewPerShard creates a frontier with one backend per shard — tests and
// split-backend deployments; len(invs) overrides cfg.Shards. The shards
// share one affinity home table, owned by the frontier.
func NewPerShard(cfg Config, invs []gateway.Invoker) *Frontier {
	cfg.defaults()
	cfg.Shards = len(invs)
	f := &Frontier{cfg: cfg, stop: make(chan struct{}), shards: gateway.NewShards(cfg.Config, invs)}
	f.ring.Store(newRing(cfg.Shards, cfg.VirtualNodes))
	if cfg.Shards > 1 && cfg.StealInterval > 0 {
		f.wg.Add(1)
		go f.stealLoop()
	}
	return f
}

// NumShards returns the shard count.
func (f *Frontier) NumShards() int { return len(f.shards) }

// Shard returns shard i — white-box access for tests and benchmarks.
func (f *Frontier) Shard(i int) *gateway.Gateway { return f.shards[i] }

// Submit routes one enveloped request to its home shard and returns the
// shard's Ticket. On ErrOverloaded/ErrTenantOverloaded the admission spills
// to the key's next ring candidates (bounded by SpillDepth) before giving
// up; every other admission error is the caller's answer immediately.
//
// Hot-path discipline: one atomic ring load, no frontier lock, no
// allocation beyond the shard's own admission.
func (f *Frontier) Submit(ctx context.Context, req gateway.Request) (*gateway.Ticket, error) {
	if len(f.shards) == 1 {
		return f.shards[0].Submit(ctx, req)
	}
	model := req.Model
	if model == "" {
		model = req.Body.ModelID
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = gateway.DefaultTenant
	}
	r := f.ring.Load()
	var buf [8]int
	cands := r.shardsFor(routeKey(req.Action, model, tenant), f.cfg.SpillDepth+1, buf[:0])
	var lastErr error
	for i, s := range cands {
		tk, err := f.shards[s].Submit(ctx, req)
		if err == nil {
			if i > 0 {
				f.spills.Add(1)
			}
			return tk, nil
		}
		lastErr = err
		if err != gateway.ErrOverloaded && err != gateway.ErrTenantOverloaded {
			break // not a capacity refusal: spilling cannot help
		}
	}
	return nil, lastErr
}

// Do submits and waits — the synchronous convenience mirroring gateway.Do,
// with the same withdrawn-if-still-queued ctx contract.
func (f *Frontier) Do(ctx context.Context, action string, req semirt.Request) (semirt.Response, error) {
	tk, err := f.Submit(ctx, gateway.Request{Action: action, Body: req})
	if err != nil {
		return semirt.Response{}, err
	}
	resp, err := tk.Wait(ctx)
	if err != nil && ctx.Err() != nil && err == ctx.Err() {
		tk.Cancel()
		return semirt.Response{}, ctx.Err()
	}
	return resp, err
}

// Stats is the frontier's aggregated counter snapshot: the embedded
// gateway.Stats sums every shard (a stolen request's admission counts on its
// source and its outcome on its destination, so the sums balance exactly as
// a single gateway's would), plus the frontier's own routing counters and
// the per-shard breakdown the imbalance metrics are computed from.
type Stats struct {
	gateway.Stats

	// Spills counts admissions that landed on a non-home ring candidate.
	Spills uint64
	// Steals counts steal operations; Stolen the requests they moved.
	Steals, Stolen uint64
	// PerShard is each shard's own snapshot, ring order — feed per-shard
	// Accepted (or Pending) to costmodel.ShardImbalance.
	PerShard []gateway.Stats
}

func addStats(dst *gateway.Stats, s gateway.Stats) {
	dst.Accepted += s.Accepted
	dst.Rejected += s.Rejected
	dst.TenantRejected += s.TenantRejected
	dst.Shed += s.Shed
	dst.Canceled += s.Canceled
	dst.Batches += s.Batches
	dst.Served += s.Served
	dst.Preemptions += s.Preemptions
	dst.Retries += s.Retries
	dst.BackendPanics += s.BackendPanics
	dst.StolenOut += s.StolenOut
	dst.StolenIn += s.StolenIn
	dst.Prewarmed += s.Prewarmed
	dst.Rehomes += s.Rehomes
	dst.Queues += s.Queues
	dst.Pending += s.Pending
}

// Stats returns the aggregated snapshot.
func (f *Frontier) Stats() Stats {
	out := Stats{
		Spills:   f.spills.Load(),
		Steals:   f.steals.Load(),
		Stolen:   f.stolen.Load(),
		PerShard: make([]gateway.Stats, len(f.shards)),
	}
	for i, g := range f.shards {
		out.PerShard[i] = g.Stats()
		addStats(&out.Stats, out.PerShard[i])
	}
	return out
}

// TenantSnapshot merges per-tenant accounting across shards: a tenant's
// requests may admit on one shard and serve on another (spill, steal), and
// only the merged view shows its true accepted/served balance.
func (f *Frontier) TenantSnapshot() map[string]gateway.TenantCounts {
	out := map[string]gateway.TenantCounts{}
	for _, g := range f.shards {
		for name, tc := range g.TenantSnapshot() {
			agg := out[name]
			agg.Accepted += tc.Accepted
			agg.Served += tc.Served
			agg.Rejected += tc.Rejected
			agg.Shed += tc.Shed
			agg.Canceled += tc.Canceled
			out[name] = agg
		}
	}
	return out
}

// Metrics returns the cross-shard merged distributions. Each call builds a
// fresh snapshot by folding every shard's live histograms together
// (metrics.Histogram.Merge — bucket counts add, no samples replayed); the
// shards keep observing on their own locks throughout.
func (f *Frontier) Metrics() gateway.Metrics {
	m := gateway.Metrics{
		BatchSizes: metrics.NewHistogram(1),
		QueueDepth: metrics.NewHistogram(1),
		QueueWait:  metrics.NewHistogram(0.25),
		E2E:        metrics.NewHistogram(0.25),
	}
	for _, g := range f.shards {
		gm := g.Metrics()
		m.BatchSizes.Merge(gm.BatchSizes)
		m.QueueDepth.Merge(gm.QueueDepth)
		m.QueueWait.Merge(gm.QueueWait)
		m.E2E.Merge(gm.E2E)
	}
	return m
}

// RegisterMetrics exports the frontier's routing counters and every shard's
// gateway metrics on reg. Shards register under a "shard" label so the
// per-shard imbalance stays visible; the shared tracer (Config.Tracer) is
// NOT registered here — it spans all shards, so its owner registers it once.
func (f *Frontier) RegisterMetrics(reg *obs.Registry, labels obs.Labels) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sesemi_frontier_spills_total", "Admissions that landed on a non-home ring candidate.", labels,
		func() float64 { return float64(f.spills.Load()) })
	reg.CounterFunc("sesemi_frontier_steals_total", "Steal operations performed.", labels,
		func() float64 { return float64(f.steals.Load()) })
	reg.CounterFunc("sesemi_frontier_stolen_total", "Requests moved by steals.", labels,
		func() float64 { return float64(f.stolen.Load()) })
	for i, g := range f.shards {
		g.RegisterMetrics(reg, labels.With("shard", strconv.Itoa(i)))
	}
}

// Close stops the steal pacer and closes every shard (concurrently — each
// shard's Close drains its own dispatchers). Queued requests fail with
// gateway.ErrClosed, as under a single gateway.
func (f *Frontier) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.wg.Wait()
		var wg sync.WaitGroup
		for _, g := range f.shards {
			wg.Add(1)
			go func(g *gateway.Gateway) {
				defer wg.Done()
				g.Close()
			}(g)
		}
		wg.Wait()
	})
}
