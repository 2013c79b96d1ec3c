package frontier

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
)

// homeRouter is an Invoker+Router double over a fixed node set. It echoes
// batches and records, per dispatch, the shard that sent it, the model and
// the node hint. With offHome set it reports every batch served on the node
// after the hinted one — a saturated home, which drives re-homing. While
// block is non-nil, shard 0's dispatches park until it is closed.
type homeRouter struct {
	mu      sync.Mutex
	nodes   []string
	offHome bool
	block   chan struct{}
	hints   []hint
}

type hint struct {
	shard       int
	model, node string
}

func newHomeRouter(nodes ...string) *homeRouter { return &homeRouter{nodes: nodes} }

// shards returns one backend per shard, all over r, each stamping its shard
// index on the dispatches it records.
func (r *homeRouter) shards(n int) []gateway.Invoker {
	invs := make([]gateway.Invoker, n)
	for i := range invs {
		invs[i] = shardRouter{r, i}
	}
	return invs
}

func (r *homeRouter) recorded() []hint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]hint(nil), r.hints...)
}

type shardRouter struct {
	*homeRouter
	shard int
}

func (s shardRouter) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	raw, _, err := s.InvokeOn(ctx, action, "", payload)
	return raw, err
}

func (s shardRouter) InvokeOn(ctx context.Context, _, node string, payload []byte) ([]byte, string, error) {
	s.mu.Lock()
	s.hints = append(s.hints, hint{s.shard, serverless.AffinityFrom(ctx), node})
	servedOn := node
	if s.offHome {
		for i, n := range s.nodes {
			if n == node {
				servedOn = s.nodes[(i+1)%len(s.nodes)]
			}
		}
	}
	block := s.block
	s.mu.Unlock()
	if block != nil && s.shard == 0 {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	_, batch, err := semirt.DecodeEnvelope(payload)
	if err != nil {
		return nil, "", err
	}
	results := make([]semirt.BatchResult, len(batch))
	for i, r := range batch {
		results[i].Response = semirt.Response{Payload: r.Payload, Kind: semirt.Hot}
	}
	raw, err := semirt.EncodeBatchResults(results)
	return raw, servedOn, err
}

func (s shardRouter) NodeStats(string) []serverless.NodeStat {
	stats := make([]serverless.NodeStat, len(s.nodes))
	for i, n := range s.nodes {
		stats[i] = serverless.NodeStat{Node: n, Capacity: 1 << 30}
	}
	return stats
}

// tenantOn finds a tenant whose (action, model, tenant) key routes to the
// wanted shard.
func tenantOn(t *testing.T, f *Frontier, action, model string, shard int) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if homeShard(f, action, model, tenant) == shard {
			return tenant
		}
	}
	t.Fatalf("no tenant routes %s to shard %d", model, shard)
	return ""
}

// submitAll runs one request per (model, tenant, rep) concurrently and
// fails the test on any error or wrong answer.
func submitAll(t *testing.T, f *Frontier, models, tenants []string, reps int) {
	t.Helper()
	var wg sync.WaitGroup
	for _, m := range models {
		for _, tn := range tenants {
			for i := 0; i < reps; i++ {
				wg.Add(1)
				go func(m, tn string, i int) {
					defer wg.Done()
					payload := fmt.Sprintf("%s/%s/%d", m, tn, i)
					tk, err := f.Submit(context.Background(), gateway.Request{Action: "a", Tenant: tn,
						Body: semirt.Request{UserID: secure.ID(tn), ModelID: m, Payload: []byte(payload)}})
					if err != nil {
						t.Errorf("submit %s: %v", payload, err)
						return
					}
					resp, err := tk.Wait(context.Background())
					if err != nil || string(resp.Payload) != payload {
						t.Errorf("%s answered %q, %v", payload, resp.Payload, err)
					}
				}(m, tn, i)
			}
		}
	}
	wg.Wait()
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// TestShardsShareModelHomes: the ring splits every model's tenants across
// both shards, yet each model's batches carry one node hint whichever shard
// formed them, and the spread rule sees the frontier-wide count — 4 models
// split 2/2 over 2 nodes.
func TestShardsShareModelHomes(t *testing.T) {
	r := newHomeRouter("n0", "n1")
	f := NewPerShard(Config{
		Config:        gateway.Config{MaxBatch: 4, MaxWait: 100 * time.Microsecond, Affinity: true},
		StealInterval: -1,
	}, r.shards(2))
	defer f.Close()
	models := names("m", 4)
	submitAll(t, f, models, names("t", 32), 1)

	home := map[string]string{}
	shardsSeen := map[string]map[int]bool{}
	for _, h := range r.recorded() {
		if h.node == "" {
			t.Fatalf("unhinted dispatch of %s from shard %d", h.model, h.shard)
		}
		if prev, ok := home[h.model]; ok && prev != h.node {
			t.Fatalf("model %s hinted to %s and %s", h.model, prev, h.node)
		}
		home[h.model] = h.node
		if shardsSeen[h.model] == nil {
			shardsSeen[h.model] = map[int]bool{}
		}
		shardsSeen[h.model][h.shard] = true
	}
	perNode := map[string]int{}
	for _, m := range models {
		if len(shardsSeen[m]) != 2 {
			t.Fatalf("model %s dispatched from shards %v, want both", m, shardsSeen[m])
		}
		perNode[home[m]]++
	}
	if perNode["n0"] != 2 || perNode["n1"] != 2 {
		t.Fatalf("models per node %v, want 2/2", perNode)
	}
	if a, b := f.Shard(0).Homes(), f.Shard(1).Homes(); len(a.Homes) != 4 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("shard tables differ or incomplete: %v vs %v", a, b)
	}
}

// TestStolenDrainDispatchesToExistingHome: a drain stolen onto a shard that
// has never seen the model goes to the home shard 0 elected, not to the node
// a fresh election on the thief would pick.
func TestStolenDrainDispatchesToExistingHome(t *testing.T) {
	r := newHomeRouter("n0", "n1")
	f := NewPerShard(Config{
		Config: gateway.Config{MaxBatch: 1, MaxWait: 50 * time.Microsecond, MaxInFlight: 1,
			Affinity: true},
		SpillDepth:     -1,
		StealInterval:  -1, // steals are driven by hand below
		StealThreshold: 4,
	}, r.shards(2))
	defer f.Close()

	// Home a throwaway model first so m lands on n1: an election on an
	// empty table (what a private per-shard table would hold) picks n0.
	submitAll(t, f, []string{"warm"}, []string{tenantOn(t, f, "a", "warm", 0)}, 1)
	tenant := tenantOn(t, f, "a", "m", 0)
	submitAll(t, f, []string{"m"}, []string{tenant}, 1)
	want := f.Shard(0).Homes().Homes["a\x1fm"]
	if want != "n1" {
		t.Fatalf("m homed on %q, want n1", want)
	}

	r.mu.Lock()
	r.block = make(chan struct{})
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		submitAll(t, f, []string{"m"}, []string{tenant}, 8)
	}()
	waitFor(t, func() bool { return f.Shard(0).Backlog() == 7 })
	if n := f.stealOnce(); n == 0 {
		t.Fatal("nothing stolen")
	}
	waitFor(t, func() bool { return f.Shard(1).Stats().Served > 0 })
	r.mu.Lock()
	close(r.block)
	r.block = nil
	r.mu.Unlock()
	<-done

	stolen := 0
	for _, h := range r.recorded() {
		if h.shard == 1 {
			stolen++
			if h.model != "m" || h.node != want {
				t.Fatalf("stolen drain dispatched %s to %q, want m to %s", h.model, h.node, want)
			}
		}
	}
	if stolen == 0 {
		t.Fatal("the thief dispatched nothing")
	}
}

// TestConcurrentRehomesKeepCountsConsistent is the table's property under
// -race: both shards re-home the same models concurrently (every batch is
// served off-home, RehomeAfter 1), and the compare-and-swap keeps the
// per-node counts an exact tally of the entries — none negative, none
// released twice.
func TestConcurrentRehomesKeepCountsConsistent(t *testing.T) {
	r := newHomeRouter("n0", "n1", "n2")
	r.offHome = true
	f := NewPerShard(Config{
		Config: gateway.Config{MaxBatch: 2, MaxWait: 50 * time.Microsecond, Affinity: true,
			RehomeAfter: 1},
		StealInterval: 100 * time.Microsecond,
	}, r.shards(2))
	defer f.Close()
	models := names("m", 4)
	submitAll(t, f, models, names("t", 16), 4)

	if f.Stats().Rehomes == 0 {
		t.Fatal("no re-homes: the property was not exercised")
	}
	snap := f.Shard(0).Homes()
	if fmt.Sprint(snap) != fmt.Sprint(f.Shard(1).Homes()) {
		t.Fatal("shards report different tables")
	}
	sum := 0
	for k, c := range snap.Counts {
		if c <= 0 {
			t.Fatalf("count %s = %d", k, c)
		}
		sum += c
	}
	if sum != len(snap.Homes) || len(snap.Homes) != len(models) {
		t.Fatalf("counts sum %d over %d entries (%d models): %v", sum, len(snap.Homes), len(models), snap)
	}
}
