package gateway

// The affinity home table: the node each (action, model) queue sends its
// batches to, and how many models are homed on each node (the spread rule's
// input). A lone gateway owns a private table. The shards of a frontier
// share one (NewShards): the frontier hashes (action, model, tenant), so
// every model's traffic reaches every shard, and per-shard tables would
// home one model on several nodes — each shard's batches then evict the
// other's model from the same warm enclaves.
//
// The table is the truth. A queue holds no home of its own; it re-reads
// the table on every flush, so a home elected or moved by one shard is
// adopted by every other shard's queue for the same model on its next
// batch — including a queue recreated after reaping or by a steal.
// Re-homing is compare-and-swap on the entry, so two shards that both see
// the home saturate move it once and never release the same count twice.
//
// Lock order: a gateway's mu before the table's mu, never the reverse. The
// table calls nothing while holding its lock; the NodeStats scans that feed
// elections and re-homes run outside both.

import (
	"math/rand"
	"sync"

	"sesemi/internal/serverless"
)

// maxHomes bounds the table so caller-supplied model ids cannot grow
// it without bound.
const maxHomes = 8192

type homeTable struct {
	mu sync.Mutex
	// homes maps a queue key to its home node. Entries outlive queue
	// reaping: the warm enclave state a home describes outlives the
	// (bursty) queue, so a re-created queue returns to it instead of
	// reshuffling the cluster.
	homes  map[string]string
	counts map[string]int // homeKey(action, node) -> models homed there
}

func newHomeTable() *homeTable {
	return &homeTable{homes: map[string]string{}, counts: map[string]int{}}
}

// get returns the queue's home, "" while it has none.
func (t *homeTable) get(key string) string {
	t.mu.Lock()
	h := t.homes[key]
	t.mu.Unlock()
	return h
}

// elect returns the queue's home, electing one from stats when it has none.
// The choice spreads hot models across the cluster: nodes with fewer models
// already homed on them win, then warm ready capacity for the action, then
// free memory — so a fresh model claims an un-homed node with room. An
// existing entry (a peer shard elected first) always wins.
func (t *homeTable) elect(action, key string, stats []serverless.NodeStat) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.homes[key]; ok || len(stats) == 0 {
		return h
	}
	best := stats[0]
	for _, st := range stats[1:] {
		if t.lessLocked(action, st, best) {
			best = st
		}
	}
	t.setLocked(action, key, best.Node)
	return best.Node
}

// adopt homes the queue on node unless it already has a home.
func (t *homeTable) adopt(action, key, node string) {
	t.mu.Lock()
	if _, ok := t.homes[key]; !ok {
		t.setLocked(action, key, node)
	}
	t.mu.Unlock()
}

// rehome moves the queue off from by power of two choices: two random
// candidates (from excluded), keep the better one. Randomization stops
// every starved queue from stampeding onto the one globally best node in
// the same instant. It is a compare-and-swap: the entry moves only while it
// still names from; otherwise (a peer shard moved it, or eviction dropped
// it) nothing changes and the queue's next flush adopts whatever the entry
// now says. Reports whether the entry moved.
func (t *homeTable) rehome(action, key, from string, stats []serverless.NodeStat) bool {
	cands := stats[:0:0]
	for _, st := range stats {
		if st.Node != from {
			cands = append(cands, st)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.homes[key]; !ok || h != from || len(cands) == 0 {
		return false
	}
	pick := cands[rand.Intn(len(cands))]
	if len(cands) > 1 {
		other := cands[rand.Intn(len(cands)-1)]
		if other.Node == pick.Node {
			other = cands[len(cands)-1]
		}
		if t.lessLocked(action, other, pick) {
			pick = other
		}
	}
	t.releaseLocked(action, from)
	delete(t.homes, key)
	t.setLocked(action, key, pick.Node)
	return true
}

// lessLocked reports whether candidate a is a strictly better home than b.
func (t *homeTable) lessLocked(action string, a, b serverless.NodeStat) bool {
	ha, hb := t.counts[homeKey(action, a.Node)], t.counts[homeKey(action, b.Node)]
	if ha != hb {
		return ha < hb
	}
	if a.ReadySlots != b.ReadySlots {
		return a.ReadySlots > b.ReadySlots
	}
	fa, fb := a.Capacity-a.Reserved, b.Capacity-b.Reserved
	return fa > fb
}

// setLocked records a home for a key that has none. Past maxHomes an
// arbitrary entry is dropped with its count; if it belonged to a live
// queue, that queue's next flush reads no home and elects again.
func (t *homeTable) setLocked(action, key, node string) {
	if node == "" {
		return
	}
	if len(t.homes) >= maxHomes {
		for victim, h := range t.homes {
			va, _, _ := splitQueueKey(victim)
			t.releaseLocked(va, h)
			delete(t.homes, victim)
			break
		}
	}
	t.homes[key] = node
	t.counts[homeKey(action, node)]++
}

func (t *homeTable) releaseLocked(action, node string) {
	k := homeKey(action, node)
	if t.counts[k]--; t.counts[k] <= 0 {
		delete(t.counts, k)
	}
}

func homeKey(action, node string) string { return action + "\x1f" + node }

// HomeSnapshot is a copy of the affinity home table a gateway routes by.
type HomeSnapshot struct {
	// Homes maps each homed queue, keyed action + "\x1f" + model, to its
	// node.
	Homes map[string]string
	// Counts maps action + "\x1f" + node to the number of models homed
	// there.
	Counts map[string]int
}

// Homes snapshots the affinity home table. The shards of one frontier
// (NewShards) report the same table.
func (g *Gateway) Homes() HomeSnapshot {
	t := g.homes
	t.mu.Lock()
	defer t.mu.Unlock()
	s := HomeSnapshot{Homes: make(map[string]string, len(t.homes)), Counts: make(map[string]int, len(t.counts))}
	for k, v := range t.homes {
		s.Homes[k] = v
	}
	for k, v := range t.counts {
		s.Counts[k] = v
	}
	return s
}
