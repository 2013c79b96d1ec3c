package serverless

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sesemi/internal/vclock"
)

// fakeSandbox builds a snapshot entry with the given state, in-flight count
// and affinity tag ("" = untagged) without going through placement.
func fakeSandbox(as *actionState, n *Node, state, inFlight int32, tag string) *Sandbox {
	sb := &Sandbox{action: as.a, as: as, node: n}
	sb.state.Store(state)
	sb.inFlight.Store(inFlight)
	sb.tag(tag)
	return sb
}

func affinityTestCluster(t *testing.T) (*Cluster, *actionState, *Node) {
	t.Helper()
	n := &Node{Name: "n0", MemoryBytes: 1 << 30}
	c := NewCluster(Config{Clock: vclock.Real{Scale: 0}}, n)
	t.Cleanup(c.Close)
	if err := c.Deploy(&Action{Name: "fn", MemoryBudget: 128 << 20, Concurrency: 4,
		New: func(*Node) (Instance, error) { return nopInst{}, nil }}); err != nil {
		t.Fatal(err)
	}
	as, err := c.actionState("fn")
	if err != nil {
		t.Fatal(err)
	}
	return c, as, n
}

// TestKeyedClaimPreferenceOrder walks the keyed claim ladder: a sandbox
// tagged with the key, then an untagged one, then an idle one, then first
// fit — regardless of where each sits in the busiest-first snapshot.
func TestKeyedClaimPreferenceOrder(t *testing.T) {
	const max = 4
	type entry struct {
		name     string
		state    int32
		inFlight int32
		tag      string
	}
	var (
		fitsOther = entry{"fits-other", sandboxReady, 2, "m2"}
		fitsBusy  = entry{"fits-busy", sandboxReady, 3, "m3"}
		idleOther = entry{"idle-other", sandboxReady, 0, "m2"}
		untagged  = entry{"untagged", sandboxReady, 1, ""}
		match     = entry{"match", sandboxReady, 3, "m1"}
		matchFull = entry{"match-full", sandboxReady, max, "m1"}
		matchDead = entry{"match-dying", sandboxDying, 0, "m1"}
	)
	cases := []struct {
		name string
		snap []entry
		want string // "" = no claim
	}{
		{"match beats everything", []entry{fitsOther, idleOther, untagged, match}, "match"},
		{"untagged beats idle and fit", []entry{fitsOther, idleOther, untagged}, "untagged"},
		{"idle beats fit", []entry{fitsBusy, fitsOther, idleOther}, "idle-other"},
		{"first fit last", []entry{fitsBusy, fitsOther}, "fits-busy"},
		{"full match skipped", []entry{matchFull, fitsOther, untagged}, "untagged"},
		{"dying match skipped", []entry{matchDead, fitsOther}, "fits-other"},
		{"nothing claimable", []entry{matchFull, matchDead}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, as, n := affinityTestCluster(t)
			snap := make([]*Sandbox, len(tc.snap))
			byPtr := map[*Sandbox]entry{}
			for i, e := range tc.snap {
				snap[i] = fakeSandbox(as, n, e.state, e.inFlight, e.tag)
				byPtr[snap[i]] = e
			}
			got := c.claimFrom(snap, nil, max, "m1")
			if tc.want == "" {
				if got != nil {
					t.Fatalf("claimed %q, want no claim", byPtr[got].name)
				}
				return
			}
			if got == nil {
				t.Fatalf("no claim, want %q", tc.want)
			}
			e := byPtr[got]
			if e.name != tc.want {
				t.Fatalf("claimed %q, want %q", e.name, tc.want)
			}
			if got.inFlight.Load() != e.inFlight+1 {
				t.Fatalf("inFlight %d, want %d", got.inFlight.Load(), e.inFlight+1)
			}
			if p := got.affinity.Load(); p == nil || *p != "m1" {
				t.Fatalf("claimed sandbox not re-tagged with the claim's key")
			}
			for _, sb := range snap {
				if sb != got && sb.inFlight.Load() != byPtr[sb].inFlight {
					t.Fatalf("%q: slot leaked by an unclaimed candidate", byPtr[sb].name)
				}
			}
		})
	}
}

// TestEmptyKeyIsFirstFit: a claim without an affinity key takes exactly the
// sandbox first fit takes — the first ready entry with a spare slot in
// snapshot order — and leaves every tag untouched.
func TestEmptyKeyIsFirstFit(t *testing.T) {
	const max = 3
	c, as, n := affinityTestCluster(t)
	rng := rand.New(rand.NewSource(7))
	states := []int32{sandboxStarting, sandboxReady, sandboxReady, sandboxReady, sandboxDying, sandboxDead}
	tags := []string{"", "m1", "m2"}
	for trial := 0; trial < 500; trial++ {
		snap := make([]*Sandbox, 1+rng.Intn(8))
		want := -1
		for i := range snap {
			st := states[rng.Intn(len(states))]
			fl := int32(rng.Intn(max + 1))
			snap[i] = fakeSandbox(as, n, st, fl, tags[rng.Intn(len(tags))])
			if want < 0 && st == sandboxReady && fl < max {
				want = i
			}
		}
		before := make([]*string, len(snap))
		for i, sb := range snap {
			before[i] = sb.affinity.Load()
		}
		got := c.claimFrom(snap, nil, max, "")
		switch {
		case want < 0 && got != nil:
			t.Fatalf("trial %d: claimed an entry, first fit claims none", trial)
		case want >= 0 && got != snap[want]:
			t.Fatalf("trial %d: claimed a different entry than first fit (index %d)", trial, want)
		}
		for i, sb := range snap {
			if sb.affinity.Load() != before[i] {
				t.Fatalf("trial %d: empty-key claim changed entry %d's tag", trial, i)
			}
		}
	}
}

// TestKeyedClaimsKeepModelsOnTheirSandboxes is the end-to-end effect: two
// keys alternating through a pool of warm sandboxes each stick to the
// sandbox that first served them instead of taking turns on the busiest one.
func TestKeyedClaimsKeepModelsOnTheirSandboxes(t *testing.T) {
	c, _, _ := affinityTestCluster(t)
	if _, err := c.Prewarm("fn", 2); err != nil {
		t.Fatal(err)
	}
	served := map[string]map[*Sandbox]int{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("m%d", i%2)
		sb, err := c.acquire(WithAffinity(context.Background(), key), "fn", "")
		if err != nil {
			t.Fatal(err)
		}
		if served[key] == nil {
			served[key] = map[*Sandbox]int{}
		}
		served[key][sb]++
		sb.inFlight.Add(-1)
	}
	for key, sbs := range served {
		if len(sbs) != 1 {
			t.Fatalf("key %s was served by %d sandboxes, want 1", key, len(sbs))
		}
	}
	var m0, m1 *Sandbox
	for sb := range served["m0"] {
		m0 = sb
	}
	for sb := range served["m1"] {
		m1 = sb
	}
	if m0 == m1 {
		t.Fatal("both keys share one sandbox while another sat warm")
	}
}

// TestKeyedClaimsRaceReaperAndEviction mixes affinity keys across two actions
// on nodes too small for both, with the reaper and eviction running. Checked
// under -race in CI: no claim ever lands in a sandbox being destroyed (its
// instance is never stopped mid-call), node memory is never over-reserved,
// and every sandbox's in-flight count drains back to 0.
func TestKeyedClaimsRaceReaperAndEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = vclock.Real{Scale: 0}
	cfg.KeepWarm = time.Millisecond
	nodes := []*Node{
		{Name: "n0", MemoryBytes: 256 << 20},
		{Name: "n1", MemoryBytes: 256 << 20},
	}
	c := NewCluster(cfg, nodes...)
	defer c.Close()
	var violated atomic.Bool
	for _, name := range []string{"a", "b"} {
		if err := c.Deploy(&Action{Name: name, MemoryBudget: 128 << 20, Concurrency: 2,
			New: func(*Node) (Instance, error) {
				return &trackedInstance{t: t, violated: &violated}, nil
			}}); err != nil {
			t.Fatal(err)
		}
	}
	stopReaper := c.StartReaper(time.Millisecond)
	defer stopReaper()

	const workers, perWorker = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			action := []string{"a", "b"}[w%2]
			for i := 0; i < perWorker; i++ {
				ctx := WithAffinity(context.Background(), []string{"", "m0", "m1", "m2"}[rng.Intn(4)])
				node := []string{"", "n0", "n1"}[rng.Intn(3)]
				if _, _, err := c.InvokeOn(ctx, action, node, []byte{byte(i)}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%37 == 0 {
					c.ReapIdle()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("deadlock: workers did not finish")
	}
	if violated.Load() {
		t.Fatal("a claim landed in a sandbox that was destroyed under it")
	}
	for _, n := range nodes {
		if r := n.Reserved(); r < 0 || r > n.MemoryBytes {
			t.Fatalf("node %s reservation out of bounds: %d", n.Name, r)
		}
		n.mu.Lock()
		for action, sbs := range n.sandboxes {
			for _, sb := range sbs {
				if f := sb.inFlight.Load(); f != 0 {
					n.mu.Unlock()
					t.Fatalf("node %s action %s: sandbox in flight %d after drain", n.Name, action, f)
				}
			}
		}
		n.mu.Unlock()
	}
	for _, action := range []string{"a", "b"} {
		st, err := c.ActionStats(action)
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight != 0 {
			t.Fatalf("action %s: in flight %d after drain", action, st.InFlight)
		}
	}
	if st := c.Stats(); st.Invocations != workers*perWorker {
		t.Fatalf("invocations %d, want %d", st.Invocations, workers*perWorker)
	}
}
