package frontier

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/semirt"
)

// echoInvoker answers every batched request with its own payload, counting
// how often each payload was served — the exactly-once ledger. When block is
// set, Invoke parks until it is closed (a saturated shard's backend).
type echoInvoker struct {
	mu     sync.Mutex
	served map[string]int
	calls  int
	block  chan struct{}
}

func newEchoInvoker() *echoInvoker { return &echoInvoker{served: map[string]int{}} }

func (e *echoInvoker) Invoke(ctx context.Context, _ string, payload []byte) ([]byte, error) {
	_, batch, err := semirt.DecodeEnvelope(payload)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	block := e.block
	e.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	results := make([]semirt.BatchResult, len(batch))
	e.mu.Lock()
	e.calls++
	for i, r := range batch {
		e.served[string(r.Payload)]++
		results[i].Response = semirt.Response{Payload: r.Payload, Kind: semirt.Hot}
	}
	e.mu.Unlock()
	return semirt.EncodeBatchResults(results)
}

func (e *echoInvoker) release() {
	e.mu.Lock()
	block := e.block
	e.block = nil
	e.mu.Unlock()
	if block != nil {
		close(block)
	}
}

// homeShard resolves which shard the ring routes a key to (white box).
func homeShard(f *Frontier, action, model, tenant string) int {
	var buf [1]int
	return f.ring.Load().shardsFor(routeKey(action, model, tenant), 1, buf[:0])[0]
}

// modelHomedOn finds a model id whose (action, model, default-tenant) key
// routes to the wanted shard.
func modelHomedOn(t *testing.T, f *Frontier, action string, shard int) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		m := fmt.Sprintf("m%d", i)
		if homeShard(f, action, m, gateway.DefaultTenant) == shard {
			return m
		}
	}
	t.Fatalf("no model routes to shard %d", shard)
	return ""
}

func req(model, payload string) semirt.Request {
	return semirt.Request{UserID: "u", ModelID: model, Payload: []byte(payload)}
}

func TestRingStableAndBalanced(t *testing.T) {
	const shards, keys = 8, 4096
	a, b := newRing(shards, 64), newRing(shards, 64)
	counts := make([]int, shards)
	var buf [1]int
	for i := 0; i < keys; i++ {
		h := routeKey("act", fmt.Sprintf("model-%d", i), "tenant")
		sa := a.shardsFor(h, 1, buf[:0])[0]
		sb := b.shardsFor(h, 1, buf[:0])[0]
		if sa != sb {
			t.Fatalf("key %d routed to %d and %d on identical rings", i, sa, sb)
		}
		counts[sa]++
	}
	mean := float64(keys) / shards
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys", s)
		}
		if ratio := float64(c) / mean; ratio > 2 || ratio < 0.4 {
			t.Fatalf("shard %d holds %.2fx the mean load — virtual nodes not spreading", s, ratio)
		}
	}
}

func TestRingSpillCandidatesDistinctAndDeterministic(t *testing.T) {
	r := newRing(4, 64)
	var buf [8]int
	h := routeKey("a", "m", "t")
	c1 := append([]int(nil), r.shardsFor(h, 3, buf[:0])...)
	c2 := append([]int(nil), r.shardsFor(h, 3, buf[:0])...)
	if len(c1) != 3 {
		t.Fatalf("want 3 candidates, got %v", c1)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("candidates not deterministic: %v vs %v", c1, c2)
		}
		for j := i + 1; j < len(c1); j++ {
			if c1[i] == c1[j] {
				t.Fatalf("duplicate spill candidate in %v", c1)
			}
		}
	}
	// Asking for more shards than exist returns them all, once each.
	if all := r.shardsFor(h, 99, buf[:0]); len(all) != 4 {
		t.Fatalf("k beyond shard count returned %v", all)
	}
}

func TestSingleShardPassthrough(t *testing.T) {
	inv := newEchoInvoker()
	f := New(Config{Shards: 1}, inv)
	defer f.Close()
	resp, err := f.Do(context.Background(), "a", req("m", "hello"))
	if err != nil || string(resp.Payload) != "hello" {
		t.Fatalf("Do = %q, %v", resp.Payload, err)
	}
	settle(t, f)
	if s := f.Stats(); s.Accepted != 1 || s.Served != 1 || len(s.PerShard) != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestRoutingIsShardLocal verifies the partitioning contract: every request
// for one (action, model, tenant) key lands on the same shard's backend.
func TestRoutingIsShardLocal(t *testing.T) {
	invs := []gateway.Invoker{newEchoInvoker(), newEchoInvoker(), newEchoInvoker(), newEchoInvoker()}
	f := NewPerShard(Config{Config: gateway.Config{MaxBatch: 2, MaxWait: 50 * time.Microsecond}}, invs)
	defer f.Close()
	ctx := context.Background()

	const models, perModel = 16, 8
	var wg sync.WaitGroup
	for m := 0; m < models; m++ {
		for i := 0; i < perModel; i++ {
			wg.Add(1)
			go func(m, i int) {
				defer wg.Done()
				model := fmt.Sprintf("mod%d", m)
				if _, err := f.Do(ctx, "a", req(model, fmt.Sprintf("%s-%d", model, i))); err != nil {
					t.Errorf("do: %v", err)
				}
			}(m, i)
		}
	}
	wg.Wait()
	for m := 0; m < models; m++ {
		model := fmt.Sprintf("mod%d", m)
		want := homeShard(f, "a", model, gateway.DefaultTenant)
		for s, inv := range invs {
			e := inv.(*echoInvoker)
			e.mu.Lock()
			var served int
			for p, c := range e.served {
				if len(p) > len(model) && p[:len(model)+1] == model+"-" {
					served += c
				}
			}
			e.mu.Unlock()
			if s == want && served != perModel {
				t.Fatalf("model %s: home shard %d served %d/%d", model, s, served, perModel)
			}
			if s != want && served != 0 {
				t.Fatalf("model %s leaked %d requests onto shard %d (home %d)", model, served, s, want)
			}
		}
	}
}

// TestSpillToNextRingCandidate saturates a key's home shard and verifies the
// overflow admits on the key's ring successor instead of rejecting.
func TestSpillToNextRingCandidate(t *testing.T) {
	blocked, idle := newEchoInvoker(), newEchoInvoker()
	blocked.block = make(chan struct{})
	defer blocked.release()
	f := NewPerShard(Config{
		Config: gateway.Config{MaxBatch: 1, MaxWait: time.Microsecond, MaxQueue: 1, MaxInFlight: 1},
		// Stealing off: this test isolates the admission-side spill.
		StealInterval: -1,
	}, []gateway.Invoker{blocked, idle})
	defer f.Close()
	ctx := context.Background()
	model := modelHomedOn(t, f, "a", 0)

	// First fills shard 0's dispatch slot (blocked backend), second its
	// 1-deep queue; the third trips ErrOverloaded at home and must spill.
	var tickets []*gateway.Ticket
	for i := 0; i < 2; i++ {
		tk, err := f.Submit(ctx, gateway.Request{Action: "a", Body: req(model, fmt.Sprintf("p%d", i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	waitFor(t, func() bool { return f.Shard(0).Backlog() == 1 })

	tk, err := f.Submit(ctx, gateway.Request{Action: "a", Body: req(model, "spilled")})
	if err != nil {
		t.Fatalf("spill submit: %v", err)
	}
	resp, err := tk.Wait(ctx)
	if err != nil || string(resp.Payload) != "spilled" {
		t.Fatalf("spilled request: %q, %v", resp.Payload, err)
	}
	if s := f.Stats(); s.Spills != 1 {
		t.Fatalf("spills = %d, want 1", s.Spills)
	}
	idle.mu.Lock()
	spillServed := idle.served["spilled"]
	idle.mu.Unlock()
	if spillServed != 1 {
		t.Fatal("spilled request was not served by the successor shard")
	}
	blocked.release()
	for i, tk := range tickets {
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatalf("home-shard request %d: %v", i, err)
		}
	}
}

// TestSpillWalksDistinctSuccessorsAndTerminates saturates a key's home shard
// AND its first ring successor: admission must land on the key's SECOND
// distinct successor — never revisiting a shard, never touching a shard
// outside the SpillDepth+1 candidate set — and once every candidate is
// saturated it must return ErrOverloaded promptly instead of walking the
// ring forever. Runs under -race in CI.
func TestSpillWalksDistinctSuccessorsAndTerminates(t *testing.T) {
	const shards = 4
	invs := make([]gateway.Invoker, shards)
	echos := make([]*echoInvoker, shards)
	for i := range invs {
		e := newEchoInvoker()
		e.block = make(chan struct{})
		echos[i], invs[i] = e, e
	}
	defer func() {
		for _, e := range echos {
			e.release()
		}
	}()
	f := NewPerShard(Config{
		Config: gateway.Config{MaxBatch: 1, MaxWait: time.Microsecond,
			MaxQueue: 1, MaxInFlight: 1, TenantQuota: 1},
		SpillDepth:    2,
		StealInterval: -1, // isolate spilling
	}, invs)
	defer f.Close()
	ctx := context.Background()

	model := modelHomedOn(t, f, "a", 0)
	var buf [8]int
	cands := f.ring.Load().shardsFor(routeKey("a", model, gateway.DefaultTenant), f.cfg.SpillDepth+1, buf[:0])
	if len(cands) != 3 {
		t.Fatalf("candidates = %v, want 3 distinct", cands)
	}
	outside := -1
	for s := 0; s < shards; s++ {
		if s != cands[0] && s != cands[1] && s != cands[2] {
			outside = s
		}
	}

	// Saturate home and first successor: one request in the (blocked)
	// dispatch slot, one in the 1-deep queue. Direct shard submits keep the
	// setup independent of the spill logic under test. Distinct tenants per
	// filler sidestep TenantQuota; the spill probe uses the default tenant.
	var held []*gateway.Ticket
	for _, s := range cands[:2] {
		for i := 0; i < 2; i++ {
			tk, err := f.Shard(s).Submit(ctx, gateway.Request{
				Action: "a", Tenant: fmt.Sprintf("filler%d", i),
				Body: req(model, fmt.Sprintf("fill-%d-%d", s, i)),
			})
			if err != nil {
				t.Fatalf("saturate shard %d: %v", s, err)
			}
			held = append(held, tk)
		}
		waitFor(t, func() bool { return f.Shard(s).Backlog() == 1 })
	}

	// The probe must walk home → successor 1 → successor 2 and admit there.
	tk, err := f.Submit(ctx, gateway.Request{Action: "a", Body: req(model, "deep-spill")})
	if err != nil {
		t.Fatalf("deep spill submit: %v", err)
	}
	held = append(held, tk)
	if s := f.Stats(); s.Spills != 1 {
		t.Fatalf("spills = %d, want 1", s.Spills)
	}
	// It dispatched on the second successor (blocked slot), nowhere else.
	waitFor(t, func() bool { return f.Shard(cands[2]).Stats().Accepted == 1 })

	// Saturate the second successor's queue too: every candidate is now
	// full, so admission must fail with ErrOverloaded after the bounded walk
	// — not hang, not loop, not leak onto the non-candidate shard.
	fill, err := f.Shard(cands[2]).Submit(ctx, gateway.Request{
		Action: "a", Tenant: "filler0", Body: req(model, "fill-last"),
	})
	if err != nil {
		t.Fatalf("saturate shard %d: %v", cands[2], err)
	}
	held = append(held, fill)
	waitFor(t, func() bool { return f.Shard(cands[2]).Backlog() == 1 })
	if _, err := f.Submit(ctx, gateway.Request{Action: "a", Body: req(model, "rejected")}); !errors.Is(err, gateway.ErrOverloaded) {
		t.Fatalf("all candidates saturated: err = %v, want ErrOverloaded", err)
	}
	if st := f.Shard(outside).Stats(); st.Accepted != 0 {
		t.Fatalf("non-candidate shard %d admitted %d requests", outside, st.Accepted)
	}

	// Fairness neutrality: releasing the backends completes every held
	// request exactly once; nothing was lost or double-served by the walk.
	for _, e := range echos {
		e.release()
	}
	for i, tk := range held {
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatalf("held request %d: %v", i, err)
		}
	}
	total := 0
	for _, e := range echos {
		e.mu.Lock()
		for p, c := range e.served {
			if c != 1 {
				e.mu.Unlock()
				t.Fatalf("payload %s served %d times", p, c)
			}
			total++
		}
		e.mu.Unlock()
	}
	if total != len(held) {
		t.Fatalf("served %d distinct payloads, want %d", total, len(held))
	}
	if s := f.Stats(); s.Served != uint64(len(held)) || s.Pending != 0 {
		t.Fatalf("merged accounting off: %+v", s)
	}
}

// TestStealCompletesSaturatedShardExactlyOnce is the work-stealing property
// test (run under -race in CI): every request admitted to a saturated shard
// completes exactly once — served either by the stealing shard (the stolen
// backlog) or by the home shard after it unblocks (the in-flight batches) —
// and the steal is fairness-neutral (no request is answered twice, none is
// lost, merged accounting balances).
func TestStealCompletesSaturatedShardExactlyOnce(t *testing.T) {
	blocked, idle := newEchoInvoker(), newEchoInvoker()
	blocked.block = make(chan struct{})
	defer blocked.release()
	f := NewPerShard(Config{
		Config: gateway.Config{MaxBatch: 4, MaxWait: 50 * time.Microsecond, MaxInFlight: 2,
			MaxQueue: 1024, TenantQuota: 1024},
		SpillDepth:     -1, // isolate stealing from spilling
		StealInterval:  200 * time.Microsecond,
		StealThreshold: 4,
	}, []gateway.Invoker{blocked, idle})
	defer f.Close()
	ctx := context.Background()
	model := modelHomedOn(t, f, "a", 0)

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := fmt.Sprintf("p%d", i)
			resp, err := f.Do(ctx, "a", req(model, payload))
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			if string(resp.Payload) != payload {
				errs <- fmt.Errorf("request %d answered with %q", i, resp.Payload)
			}
		}(i)
	}

	// The stolen portion completes while the home backend is still blocked.
	waitFor(t, func() bool { return f.Stats().Stolen > 0 })
	waitFor(t, func() bool {
		idle.mu.Lock()
		defer idle.mu.Unlock()
		return len(idle.served) > 0
	})
	blocked.release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly once: each payload served once, across both backends.
	total := 0
	for _, e := range []*echoInvoker{blocked, idle} {
		e.mu.Lock()
		for p, c := range e.served {
			if c != 1 {
				e.mu.Unlock()
				t.Fatalf("payload %s served %d times", p, c)
			}
			total++
		}
		e.mu.Unlock()
	}
	if total != n {
		t.Fatalf("served %d distinct payloads, want %d", total, n)
	}
	settle(t, f)
	s := f.Stats()
	if s.Accepted != n || s.Served != n || s.Pending != 0 {
		t.Fatalf("merged accounting off: accepted=%d served=%d pending=%d", s.Accepted, s.Served, s.Pending)
	}
	if s.Steals == 0 || s.Stolen == 0 || s.StolenOut != s.Stolen || s.StolenIn != s.Stolen {
		t.Fatalf("steal counters off: %+v", s)
	}
	// The idle shard did real work it never admitted — visible only in the
	// merged per-shard view.
	if s.PerShard[1].Served == 0 || s.PerShard[1].Accepted != 0 {
		t.Fatalf("stealing shard served=%d accepted=%d", s.PerShard[1].Served, s.PerShard[1].Accepted)
	}
}

func TestTenantSnapshotAndMetricsMerge(t *testing.T) {
	f := New(Config{Shards: 4, Config: gateway.Config{MaxBatch: 2, MaxWait: 50 * time.Microsecond}}, newEchoInvoker())
	defer f.Close()
	ctx := context.Background()

	const tenants, each = 6, 10
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		for i := 0; i < each; i++ {
			wg.Add(1)
			go func(tn, i int) {
				defer wg.Done()
				tk, err := f.Submit(ctx, gateway.Request{
					Action: "a", Tenant: fmt.Sprintf("t%d", tn),
					Body: req(fmt.Sprintf("m%d", i%4), "x"),
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := tk.Wait(ctx); err != nil {
					t.Errorf("wait: %v", err)
				}
			}(tn, i)
		}
	}
	wg.Wait()
	settle(t, f)

	snap := f.TenantSnapshot()
	for tn := 0; tn < tenants; tn++ {
		tc := snap[fmt.Sprintf("t%d", tn)]
		if tc.Accepted != each || tc.Served != each {
			t.Fatalf("tenant %d merged counts: %+v", tn, tc)
		}
	}
	m := f.Metrics()
	if got := m.E2E.Count(); got != tenants*each {
		t.Fatalf("merged E2E count = %d, want %d", got, tenants*each)
	}
	var shardBatches uint64
	for _, ps := range f.Stats().PerShard {
		shardBatches += ps.Batches
	}
	if got := m.BatchSizes.Count(); got != shardBatches {
		t.Fatalf("merged batch-size count = %d, want %d", got, shardBatches)
	}
}

func TestFrontierClose(t *testing.T) {
	f := New(Config{Shards: 2}, newEchoInvoker())
	f.Close()
	f.Close() // idempotent
	if _, err := f.Do(context.Background(), "a", req("m", "x")); !errors.Is(err, gateway.ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

// settle waits until every admitted request is fully accounted. A waiter
// wakes on its result send, which precedes the dispatcher's Served and
// tenant accounting; Pending drops to zero only after both.
func settle(t *testing.T, f *Frontier) {
	t.Helper()
	waitFor(t, func() bool { return f.Stats().Pending == 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
