package gateway

import (
	"context"
	"sync"
	"testing"
	"time"

	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
)

// fakeRouter is an Invoker+Router double: it echoes batches like fakeInvoker,
// records the hint of every dispatch, and serves from the hinted node unless
// that node is marked saturated, in which case it reports service elsewhere.
type fakeRouter struct {
	mu        sync.Mutex
	stats     []serverless.NodeStat
	hints     []string          // hint of every InvokeOn, in order
	saturated map[string]string // hint -> node that actually serves instead
	plain     int               // unhinted Invoke calls

	// When arrivals is non-nil, InvokeOn announces itself there and then
	// waits for release — letting tests hold several dispatches in flight at
	// once so queues stay alive across them (a drained queue is reaped and
	// its affinity state with it).
	arrivals chan struct{}
	release  chan struct{}
}

func newFakeRouter(nodes ...string) *fakeRouter {
	f := &fakeRouter{saturated: map[string]string{}}
	for _, n := range nodes {
		f.stats = append(f.stats, serverless.NodeStat{Node: n, Capacity: 1 << 30})
	}
	return f
}

func (f *fakeRouter) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	f.mu.Lock()
	f.plain++
	f.mu.Unlock()
	return echoBatch(payload, nil)
}

func (f *fakeRouter) InvokeOn(ctx context.Context, action, node string, payload []byte) ([]byte, string, error) {
	f.mu.Lock()
	f.hints = append(f.hints, node)
	servedOn := node
	if alt, ok := f.saturated[node]; ok {
		servedOn = alt
	}
	f.mu.Unlock()
	if f.arrivals != nil {
		f.arrivals <- struct{}{}
		<-f.release
	}
	raw, err := echoBatch(payload, nil)
	return raw, servedOn, err
}

func (f *fakeRouter) NodeStats(action string) []serverless.NodeStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]serverless.NodeStat(nil), f.stats...)
}

func (f *fakeRouter) hinted() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.hints...)
}

func doOne(t *testing.T, g *Gateway, model string, i int) {
	t.Helper()
	if _, err := g.Do(context.Background(), "fn", semirt.Request{ModelID: model, Payload: []byte{byte(i)}}); err != nil {
		t.Fatal(err)
	}
}

// TestAffinityKeepsBatchesHome: consecutive batches of one model carry the
// same node hint — the sticky home.
func TestAffinityKeepsBatchesHome(t *testing.T) {
	f := newFakeRouter("n0", "n1", "n2")
	g := New(Config{MaxBatch: 1, Affinity: true}, f)
	defer g.Close()
	for i := 0; i < 6; i++ {
		doOne(t, g, "m0", i)
	}
	hints := f.hinted()
	if len(hints) != 6 {
		t.Fatalf("%d dispatches, want 6", len(hints))
	}
	for _, h := range hints {
		if h != hints[0] || h == "" {
			t.Fatalf("hints not sticky: %v", hints)
		}
	}
	if f.plain != 0 {
		t.Fatalf("%d unhinted dispatches with affinity on", f.plain)
	}
}

// TestAffinitySpreadsModelsAcrossNodes: with equal node stats, distinct model
// queues of one action home on distinct nodes — one hot model per node.
func TestAffinitySpreadsModelsAcrossNodes(t *testing.T) {
	f := newFakeRouter("n0", "n1", "n2")
	f.arrivals = make(chan struct{}, 3)
	f.release = make(chan struct{})
	g := New(Config{MaxBatch: 1, Affinity: true}, f)
	defer g.Close()
	models := []string{"m0", "m1", "m2"}
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func(m string, i int) {
			defer wg.Done()
			if _, err := g.Do(context.Background(), "fn", semirt.Request{ModelID: m, Payload: []byte{byte(i)}}); err != nil {
				t.Error(err)
			}
		}(m, i)
	}
	// Hold all three dispatches in flight together, so all three queues are
	// live — and homed — at once.
	for i := 0; i < 3; i++ {
		<-f.arrivals
	}
	close(f.release)
	wg.Wait()
	// While the three queues were live they must have homed on three
	// distinct nodes. Queues reap after draining, so check recorded hints.
	hints := f.hinted()
	seen := map[string]bool{}
	for _, h := range hints {
		seen[h] = true
	}
	if len(hints) != 3 || len(seen) != 3 {
		t.Fatalf("hints %v: want 3 dispatches on 3 distinct homes", hints)
	}
}

// TestRehomeOnSaturatedHome: when the cluster keeps serving a queue's batches
// away from its home, the queue re-homes after RehomeAfter misses.
func TestRehomeOnSaturatedHome(t *testing.T) {
	f := newFakeRouter("n0", "n1")
	f.mu.Lock()
	// Whatever home is picked first is saturated: dispatches land elsewhere.
	f.saturated["n0"] = "n1"
	f.saturated["n1"] = "n0"
	f.mu.Unlock()
	f.arrivals = make(chan struct{}, 8)
	f.release = make(chan struct{})
	g := New(Config{MaxBatch: 1, MaxInFlight: 4, Affinity: true, RehomeAfter: 2}, f)
	defer g.Close()
	// Eight requests on one queue; the gate holds the first MaxInFlight
	// dispatches in flight together so the queue survives long enough to see
	// consecutive off-home completions (a drained queue is reaped and would
	// restart the count).
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := g.Do(context.Background(), "fn", semirt.Request{ModelID: "m0", Payload: []byte{byte(c)}}); err != nil {
				t.Error(err)
			}
		}(c)
	}
	for i := 0; i < 4; i++ {
		<-f.arrivals
	}
	close(f.release)
	wg.Wait()
	if re := g.Stats().Rehomes; re == 0 {
		t.Fatal("no re-homing despite every dispatch landing off home")
	}
}

// TestAffinityIgnoredWithoutRouter: Affinity on a plain Invoker degrades to
// unrouted dispatch.
func TestAffinityIgnoredWithoutRouter(t *testing.T) {
	f := newFakeInvoker()
	g := New(Config{MaxBatch: 2, MaxWait: time.Millisecond, Affinity: true}, f)
	defer g.Close()
	doOne(t, g, "m0", 1)
	if got, _ := f.dispatched("fn"); len(got) != 1 {
		t.Fatalf("dispatches %v", got)
	}
	if g.Stats().Rehomes != 0 {
		t.Fatal("rehomed without a router")
	}
}

// TestHomeSurvivesQueueReap: a drained queue is reaped, but its home is
// remembered — the warm enclaves it points at are still on that node — so the
// queue's next incarnation routes straight back instead of reshuffling models
// across the cluster.
func TestHomeSurvivesQueueReap(t *testing.T) {
	f := newFakeRouter("n0", "n1", "n2")
	g := New(Config{MaxBatch: 1, Affinity: true}, f)
	defer g.Close()
	doOne(t, g, "m0", 0)
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.queues) == 0
	})
	g.homes.mu.Lock()
	sticky, homes := len(g.homes.homes), len(g.homes.counts)
	g.homes.mu.Unlock()
	if sticky != 1 || homes != 1 {
		t.Fatalf("sticky %d homes %d after reap, want 1/1", sticky, homes)
	}
	// Bursty traffic across reaps sticks to one node.
	for i := 1; i < 5; i++ {
		doOne(t, g, "m0", i)
		waitFor(t, func() bool {
			g.mu.Lock()
			defer g.mu.Unlock()
			return len(g.queues) == 0
		})
	}
	hints := f.hinted()
	for _, h := range hints {
		if h != hints[0] {
			t.Fatalf("home not sticky across reaps: %v", hints)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHomeTableRehomeIsCompareAndSwap: a re-home moves the entry only while
// it still names the home the caller saw saturate, so a second shard acting
// on the same stale home neither moves it again nor releases a count twice.
func TestHomeTableRehomeIsCompareAndSwap(t *testing.T) {
	stats := newFakeRouter("n0", "n1").NodeStats("fn")
	tb := newHomeTable()
	key := queueKey("fn", "m0")
	if h := tb.elect("fn", key, stats); h != "n0" {
		t.Fatalf("elected %q, want n0", h)
	}
	if !tb.rehome("fn", key, "n0", stats) {
		t.Fatal("re-home off the current home refused")
	}
	if tb.rehome("fn", key, "n0", stats) {
		t.Fatal("stale re-home moved the entry again")
	}
	if h := tb.get(key); h != "n1" {
		t.Fatalf("home %q, want n1", h)
	}
	if len(tb.counts) != 1 || tb.counts[homeKey("fn", "n1")] != 1 {
		t.Fatalf("counts %v, want only n1:1", tb.counts)
	}
}
