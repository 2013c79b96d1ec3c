// Package serverless is an OpenWhisk-like serverless platform: a controller
// (proxy) that schedules function invocations onto per-node invokers, which
// run actions inside sandbox instances (containers).
//
// It reproduces the OpenWhisk behaviours the paper's evaluation depends on
// (§VI, Appendix F):
//
//   - memory-only scheduling: a sandbox occupies its action's configured
//     memory budget on a node; nodes have an invoker memory limit;
//   - placement prefers a node that already hosts sandboxes of the action;
//   - unlike OpenWhisk's model-agnostic proxy, a claim carrying an affinity
//     key (WithAffinity: the model) prefers the sandbox that last served
//     that key, so models keep their warm enclaves (§IV-C);
//   - keep-warm: idle sandboxes linger for a configurable timeout
//     (3 minutes in the paper) before being reclaimed;
//   - per-sandbox concurrency: an action may allow multiple in-flight
//     requests per sandbox (how SeMIRT's multi-TCS enclaves are driven);
//   - cold-start cost: starting a sandbox charges a modeled container
//     start latency before the action instance is created;
//   - eviction: when no node has room, idle sandboxes (least recently used
//     first) are reclaimed to make space.
//
// Scheduling is sharded for concurrency (README "Scheduling & locality"):
// there is no cluster-wide mutex. Each node owns a lock over its memory
// reservations and the sandboxes it hosts; each action owns a placement lock
// that serializes cold-start/eviction decisions for that action only; and the
// hot path — claiming a slot in an already-warm sandbox — is lock-free: it
// CAS-claims a slot from an atomic per-action snapshot of ready sandboxes, so
// hundreds of concurrent clients do not convoy on any mutex.
//
// The same Cluster type backs the live servers in cmd/ and the functional
// integration tests; the large-scale experiments replay its scheduling
// policy inside the discrete-event harness.
package serverless

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/faults"
	"sesemi/internal/obs"
	"sesemi/internal/vclock"
)

// Instance is a running action runtime inside a sandbox.
type Instance interface {
	// Invoke handles one request payload and returns the response payload.
	Invoke(payload []byte) ([]byte, error)
	// Stop releases the instance's resources (e.g. destroys its enclave).
	Stop()
}

type affinityKey struct{}

// WithAffinity returns ctx carrying a placement affinity key — for a SeMIRT
// action, the model id the invocation serves. Acquires made with it prefer a
// sandbox whose last keyed claim carried the same key, so each model keeps
// the warm enclave that already holds it instead of swapping models through
// whichever sandbox is first free (the model-agnostic choice the paper's
// FnPacker exists to avoid, §IV-C). An empty key is no affinity.
func WithAffinity(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, affinityKey{}, key)
}

// AffinityFrom returns the affinity key ctx carries ("" when none).
func AffinityFrom(ctx context.Context) string {
	key, _ := ctx.Value(affinityKey{}).(string)
	return key
}

// InstanceFactory creates the action runtime for a new sandbox on a node.
type InstanceFactory func(node *Node) (Instance, error)

// Action is a deployed function.
type Action struct {
	// Name is the action identifier (its endpoint).
	Name string
	// MemoryBudget is the container memory limit; the paper provisions the
	// smallest multiple of 128 MiB that fits the enclave (Appendix F).
	MemoryBudget int64
	// Concurrency is the max in-flight requests per sandbox.
	Concurrency int
	// New creates the runtime inside a fresh sandbox.
	New InstanceFactory
}

// Node is one invoker machine. Its lock covers only this node's reservations
// and hosted sandboxes — scheduling on one node never blocks another.
type Node struct {
	// Name identifies the node.
	Name string
	// MemoryBytes is the invoker memory available for sandboxes.
	MemoryBytes int64
	// Extra carries node-local substrate (e.g. the *enclave.Platform);
	// instance factories type-assert it.
	Extra any

	mu        sync.Mutex
	reserved  int64
	sandboxes map[string][]*Sandbox // action name -> sandboxes hosted here

	// Locality counters: warmHits counts acquires served by an
	// already-ready sandbox on this node; coldStarts counts sandboxes
	// started here.
	warmHits   atomic.Uint64
	coldStarts atomic.Uint64

	// Circuit breaker + health scoring, fed by per-invoke outcomes
	// (noteNodeOutcome). brkState is one of brkClosed/brkOpen/brkHalfOpen;
	// brkStamp is the clock nanos of the last open/half-open transition (the
	// cooldown anchor); brkFails counts consecutive failures; health holds
	// math.Float64bits of the invoke-success EWMA (0 means "no sample yet",
	// read as 1.0 — Float64bits(1.0) is nonzero, so the encoding is
	// unambiguous: a sampled EWMA never reaches exactly +0).
	brkState atomic.Int32
	brkStamp atomic.Int64
	brkFails atomic.Int32
	health   atomic.Uint64
}

const (
	brkClosed int32 = iota
	brkOpen
	brkHalfOpen
)

// healthAlpha is the EWMA weight of each invoke outcome in the node's health
// score: ~13 consecutive failures take a perfect node below 0.02.
const healthAlpha = 0.25

// noteHealth folds one invoke outcome into the node's health EWMA.
func (n *Node) noteHealth(ok bool) {
	for {
		old := n.health.Load()
		h := 1.0
		if old != 0 {
			h = math.Float64frombits(old)
		}
		x := 0.0
		if ok {
			x = 1.0
		}
		h = (1-healthAlpha)*h + healthAlpha*x
		if n.health.CompareAndSwap(old, math.Float64bits(h)) {
			return
		}
	}
}

// Health is the node's invoke-success EWMA in [0, 1]; a node that has never
// served an invoke scores 1.
func (n *Node) Health() float64 {
	bits := n.health.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// Reserved returns the memory currently reserved on the node.
func (n *Node) Reserved() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reserved
}

// removeLocked unlinks sb from the node's hosting list. Caller holds n.mu.
func (n *Node) removeLocked(sb *Sandbox) {
	list := n.sandboxes[sb.action.Name]
	for i, s := range list {
		if s == sb {
			n.sandboxes[sb.action.Name] = append(list[:i], list[i+1:]...)
			break
		}
	}
}

const (
	sandboxStarting int32 = iota
	sandboxReady
	sandboxDying // claimed for destruction, idleness being verified
	sandboxDead
)

// Sandbox is one container instance of an action on a node. Its state and
// in-flight count are atomics so the ready fast path can claim a slot without
// holding any lock; state transitions to/from dead happen under the owning
// node's lock.
type Sandbox struct {
	action *Action
	as     *actionState
	node   *Node
	inst   Instance

	state    atomic.Int32
	inFlight atomic.Int32
	lastUsed atomic.Int64 // clock nanos
	born     time.Time
	// affinity is the key the sandbox's last keyed claim carried (nil:
	// never claimed with one) — for a SeMIRT action, the model its enclave
	// most likely holds. claimFrom prefers a sandbox whose tag matches.
	affinity atomic.Pointer[string]
}

// tag records key as the sandbox's affinity. The pointer is replaced only
// when the key changes, so a steady stream of same-key claims allocates
// nothing.
func (sb *Sandbox) tag(key string) {
	if key == "" {
		return
	}
	if p := sb.affinity.Load(); p == nil || *p != key {
		sb.affinity.Store(&key)
	}
}

// Claim preference ranks for a keyed claim, best first (claimFrom).
const (
	rankMatch    = iota // ready, tagged with the claim's key
	rankUntagged        // ready, never claimed with a key (e.g. prewarmed)
	rankIdle            // ready, nothing in flight: its swap disturbs no one
	rankFits            // ready with a spare slot (first fit)
	rankNone            // not claimable
)

// rank classifies sb for a claim carrying key. It reads only atomics; the
// claim itself (tryClaim) revalidates.
func (sb *Sandbox) rank(key string, max int32) int {
	if sb.state.Load() != sandboxReady {
		return rankNone
	}
	n := sb.inFlight.Load()
	if n >= max {
		return rankNone
	}
	p := sb.affinity.Load()
	switch {
	case p != nil && *p == key:
		return rankMatch
	case p == nil:
		return rankUntagged
	case n == 0:
		return rankIdle
	}
	return rankFits
}

// tryClaim reserves one slot if the sandbox is ready and has spare
// concurrency, additionally reporting whether the claim ended an idle period
// (the sandbox had nothing in flight). The claim/undo protocol pairs with the
// evictors' dying CAS: an evictor first CASes ready→dying and only destroys
// after re-reading inFlight == 0, so either the evictor observes our
// increment and reverts, or we observe its dying state and undo — a slot is
// never claimed in a sandbox that gets destroyed.
func (sb *Sandbox) tryClaim(max int32) (ok, wasIdle bool) {
	if sb.state.Load() != sandboxReady {
		return false, false
	}
	n := sb.inFlight.Add(1)
	if n > max {
		sb.inFlight.Add(-1)
		return false, false
	}
	if sb.state.Load() != sandboxReady {
		sb.inFlight.Add(-1)
		return false, false
	}
	return true, n == 1
}

// Config tunes the cluster.
type Config struct {
	// KeepWarm is how long an idle sandbox is kept before reclamation
	// ("container unused timeout", 3 minutes in Table V).
	KeepWarm time.Duration
	// SandboxStart is the modeled container start latency (image pull is
	// assumed cached, as in the paper's warmed-up clusters).
	SandboxStart time.Duration
	// InvokeOverhead is the modeled per-activation platform overhead — the
	// controller → invoker → action-proxy hop every OpenWhisk activation
	// pays. It is charged while the request holds its sandbox slot, so it
	// bounds per-slot activation throughput; a batching front-end
	// (internal/gateway) amortizes it across a whole batch. Zero disables it.
	InvokeOverhead time.Duration
	// Clock injects time; nil means the system clock.
	Clock vclock.Clock
	// Faults, when non-nil, is the fault-injection plane: node crashes and
	// latency spikes are applied per invoke and crashed nodes are skipped by
	// placement. Nil (the default) injects nothing and costs one nil check.
	Faults *faults.Injector
	// BreakerFailures is how many consecutive invoke failures on a node open
	// its circuit breaker (default 3). While open, the node is skipped by
	// InvokeOn/PrewarmOn placement; after BreakerCooldown a single half-open
	// probe is admitted — success closes the breaker, failure re-opens it.
	BreakerFailures int
	// BreakerCooldown is the open-breaker backoff before a half-open probe
	// (default 2s).
	BreakerCooldown time.Duration
}

// DefaultConfig mirrors the paper's Table V settings.
func DefaultConfig() Config {
	return Config{KeepWarm: 3 * time.Minute, SandboxStart: 500 * time.Millisecond}
}

// actionState is the per-action scheduling shard.
type actionState struct {
	a *Action

	// count is live sandboxes (starting + ready); starting counts only
	// those still starting. Both are maintained by whoever performs the
	// state transition.
	count    atomic.Int32
	starting atomic.Int32
	// Autoscaling telemetry: warmHits counts slot claims served by an
	// already-ready sandbox of this action; coldStarts counts sandboxes
	// started for it; idleNanos accrues sandbox idle time (closed idle
	// periods — a claim ending one, or an idle sandbox being destroyed).
	warmHits   atomic.Uint64
	coldStarts atomic.Uint64
	idleNanos  atomic.Int64
	// keepWarm, when positive, overrides Config.KeepWarm for this action —
	// the scale-down lever an autoscaler adapts from warm-hit/idle telemetry.
	keepWarm atomic.Int64
	// waiters counts acquires currently between registration and claim;
	// releases skip the notification machinery when it is zero.
	waiters atomic.Int32
	// ready is the lock-free fast path: a snapshot of the action's ready
	// sandboxes across all nodes. nil means stale — the next placement
	// rebuilds it under startMu. Entries are validated by tryClaim, so a
	// stale snapshot is safe, merely slower.
	ready atomic.Pointer[[]*Sandbox]
	// notifyCh is closed and replaced whenever capacity may have appeared
	// (slot release, sandbox ready, sandbox destroyed, start failure).
	notifyCh atomic.Pointer[chan struct{}]
	// startMu serializes placement decisions (cold starts, eviction) for
	// this action. It is never held during the slow container start itself.
	startMu sync.Mutex
}

func newActionState(a *Action) *actionState {
	as := &actionState{a: a}
	ch := make(chan struct{})
	as.notifyCh.Store(&ch)
	return as
}

// notify wakes every waiter. Safe for concurrent use: each caller closes
// exactly the channel it swapped out.
func (as *actionState) notify() {
	ch := make(chan struct{})
	old := as.notifyCh.Swap(&ch)
	close(*old)
}

func (as *actionState) notifyIfWaiters() {
	if as.waiters.Load() > 0 {
		as.notify()
	}
}

// Cluster is the platform controller.
type Cluster struct {
	cfg   Config
	clock vclock.Clock
	nodes []*Node

	amu     sync.RWMutex
	actions map[string]*actionState

	closed   atomic.Bool
	closedCh chan struct{}

	// waiters is the cluster-wide registered-waiter count (the sum of every
	// action's waiters). A slot release that idles a sandbox makes it
	// evictable — capacity for ANY action — so it must wake other actions'
	// waiters too; this counter lets that cross-action notify be skipped on
	// the contended-free hot path.
	waiters atomic.Int32

	// lifetime counters
	coldStarts  atomic.Uint64
	invocations atomic.Uint64
	evictions   atomic.Uint64
	nodeFails   atomic.Uint64

	// orphans holds instances of crash-killed sandboxes that still had
	// requests in flight — stopping them mid-call would race the call, so
	// they are parked here and stopped at Close.
	orphanMu sync.Mutex
	orphans  []Instance
}

// Errors returned by the cluster.
var (
	ErrUnknownAction = errors.New("serverless: unknown action")
	ErrClosed        = errors.New("serverless: cluster closed")
	// ErrNodeDown reports an invoke routed to a node the fault plane has
	// crashed. The request's slot is released and the node's sandboxes are
	// torn down, so a retrying caller lands on healthy capacity.
	ErrNodeDown = errors.New("serverless: node down")
)

// NewCluster creates a controller over the given invoker nodes.
func NewCluster(cfg Config, nodes ...*Node) *Cluster {
	if cfg.Clock == nil {
		cfg.Clock = vclock.System
	}
	for _, n := range nodes {
		n.mu.Lock()
		if n.sandboxes == nil {
			n.sandboxes = map[string][]*Sandbox{}
		}
		n.mu.Unlock()
	}
	return &Cluster{
		cfg:      cfg,
		clock:    cfg.Clock,
		nodes:    nodes,
		actions:  map[string]*actionState{},
		closedCh: make(chan struct{}),
	}
}

// Deploy registers an action.
func (c *Cluster) Deploy(a *Action) error {
	if a.Name == "" || a.New == nil {
		return errors.New("serverless: action needs a name and a factory")
	}
	if a.MemoryBudget <= 0 {
		return fmt.Errorf("serverless: action %q: memory budget %d", a.Name, a.MemoryBudget)
	}
	if a.Concurrency < 1 {
		a.Concurrency = 1
	}
	c.amu.Lock()
	defer c.amu.Unlock()
	if _, dup := c.actions[a.Name]; dup {
		return fmt.Errorf("serverless: action %q already deployed", a.Name)
	}
	c.actions[a.Name] = newActionState(a)
	return nil
}

// Actions lists deployed action names.
func (c *Cluster) Actions() []string {
	c.amu.RLock()
	defer c.amu.RUnlock()
	names := make([]string, 0, len(c.actions))
	for n := range c.actions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Cluster) actionState(action string) (*actionState, error) {
	c.amu.RLock()
	as := c.actions[action]
	c.amu.RUnlock()
	if as == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAction, action)
	}
	return as, nil
}

func (c *Cluster) nodeByName(name string) *Node {
	if name == "" {
		return nil
	}
	for _, n := range c.nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Invoke routes one request to a sandbox of the action, starting one if
// needed (and evicting idle sandboxes when memory is tight). It blocks while
// the cluster is saturated, until ctx is done.
func (c *Cluster) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	out, _, err := c.InvokeOn(ctx, action, "", payload)
	return out, err
}

// InvokeOn is Invoke with a placement hint: ready sandboxes on the hinted
// node are preferred, and a cold start lands there while it has room. The
// hint is advisory — when the hinted node is saturated the request is served
// wherever capacity exists — and servedOn reports the node that actually
// served it, so an affinity router (internal/gateway) can detect off-home
// dispatch and re-home. An empty or unknown hint behaves exactly like Invoke.
func (c *Cluster) InvokeOn(ctx context.Context, action, node string, payload []byte) (out []byte, servedOn string, err error) {
	sb, err := c.acquire(ctx, action, node)
	if err != nil {
		return nil, "", err
	}
	c.clock.Sleep(c.cfg.InvokeOverhead)
	out, err = c.invokeSandbox(sb, payload)
	sb.lastUsed.Store(c.clock.Now().UnixNano())
	if sb.inFlight.Add(-1) == 0 {
		// The sandbox went idle: it is now an eviction candidate, i.e.
		// capacity for EVERY action, not just this one. The old global
		// scheduler's cond.Broadcast had this property; the sharded one must
		// reproduce it or a foreign action blocked on memory sleeps forever.
		if c.waiters.Load() > 0 {
			c.notifyAllActions()
		}
	} else {
		sb.as.notifyIfWaiters()
	}
	return out, sb.node.Name, err
}

// Session is a pinned claim on one sandbox slot: every Step reaches the same
// sandbox — and therefore the same enclave — which is what lets a continuous
// gateway batch admit members and preempt between execution steps without
// re-entering placement. The slot stays counted in the sandbox's in-flight
// total until Close, so the evictor can never reap a sandbox with a live
// session.
type Session struct {
	c      *Cluster
	sb     *Sandbox
	closed atomic.Bool
}

// ErrSessionClosed reports a Step on a closed session.
var ErrSessionClosed = errors.New("serverless: session closed")

// OpenSession claims one slot of a sandbox for the action — preferring the
// hinted node, exactly like InvokeOn — and returns a session pinned to it.
// The per-activation InvokeOverhead is charged once here: that is the
// amortization a continuous session buys, N step frames entering the sandbox
// for one activation's platform overhead.
func (c *Cluster) OpenSession(ctx context.Context, action, node string) (*Session, error) {
	sb, err := c.acquire(ctx, action, node)
	if err != nil {
		return nil, err
	}
	c.clock.Sleep(c.cfg.InvokeOverhead)
	return &Session{c: c, sb: sb}, nil
}

// Node reports the node serving this session.
func (s *Session) Node() string { return s.sb.node.Name }

// Step delivers one opaque frame to the pinned sandbox's instance.
func (s *Session) Step(payload []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	out, err := s.c.invokeSandbox(s.sb, payload)
	s.sb.lastUsed.Store(s.c.clock.Now().UnixNano())
	return out, err
}

// invokeSandbox runs one instance call with the fault plane applied and feeds
// the node's health score and circuit breaker from the outcome. An invoke on
// a crashed node fails with ErrNodeDown and tears the node's sandboxes down,
// so retried demand rebuilds on healthy capacity. The down check repeats
// after the call: a node that died mid-execution never delivered its
// response, so a completed in-process Invoke must not count as one.
func (c *Cluster) invokeSandbox(sb *Sandbox, payload []byte) ([]byte, error) {
	if d := c.cfg.Faults.NodeDelay(sb.node.Name); d > 0 {
		c.clock.Sleep(d)
	}
	var out []byte
	var err error
	if c.cfg.Faults.NodeDown(sb.node.Name) {
		err = fmt.Errorf("%w: %s", ErrNodeDown, sb.node.Name)
		c.failNode(sb.node)
	} else {
		out, err = sb.inst.Invoke(payload)
		if err == nil && c.cfg.Faults.NodeDown(sb.node.Name) {
			out, err = nil, fmt.Errorf("%w: %s (mid-invoke)", ErrNodeDown, sb.node.Name)
			c.failNode(sb.node)
		}
	}
	c.noteNodeOutcome(sb.node, err == nil)
	return out, err
}

func (c *Cluster) breakerFailures() int {
	if c.cfg.BreakerFailures > 0 {
		return c.cfg.BreakerFailures
	}
	return 3
}

func (c *Cluster) breakerCooldown() time.Duration {
	if c.cfg.BreakerCooldown > 0 {
		return c.cfg.BreakerCooldown
	}
	return 2 * time.Second
}

// noteNodeOutcome folds one invoke outcome into the node's health EWMA and
// circuit breaker. A success closes the breaker outright (a half-open probe
// succeeded, or the node recovered on its own); the breakerFailures-th
// consecutive failure — or any failure while probing — opens it and stamps
// the cooldown anchor.
func (c *Cluster) noteNodeOutcome(n *Node, ok bool) {
	n.noteHealth(ok)
	if ok {
		n.brkFails.Store(0)
		n.brkState.Store(brkClosed)
		return
	}
	fails := n.brkFails.Add(1)
	if n.brkState.Load() != brkClosed || int(fails) >= c.breakerFailures() {
		n.brkStamp.Store(c.clock.Now().UnixNano())
		n.brkState.Store(brkOpen)
	}
}

// nodeAvailable reports whether placement may target n. A node the fault
// plane has crashed is never available; a node with an open breaker is
// skipped until its cooldown expires, after which exactly one caller wins the
// CAS into half-open and is admitted as the probe (its invoke outcome then
// closes or re-opens the breaker; the stamp reset bounds a probe that never
// lands to one cooldown). This is the filter every placement rung —
// claimFrom, tryReserve, evictAndReserve — consults.
func (c *Cluster) nodeAvailable(n *Node) bool {
	if c.cfg.Faults.NodeCrashed(n.Name) {
		return false
	}
	st := n.brkState.Load()
	if st == brkClosed {
		return true
	}
	if c.clock.Now().UnixNano()-n.brkStamp.Load() < int64(c.breakerCooldown()) {
		return false
	}
	if n.brkState.CompareAndSwap(st, brkHalfOpen) {
		n.brkStamp.Store(c.clock.Now().UnixNano())
		return true
	}
	return false
}

// failNode tears down every sandbox on a crashed node (Close's sweep, scoped
// to one node): demand must rebuild on healthy nodes, and the downed node's
// warm state is gone. Idle instances are stopped here; in-flight ones are
// parked on the orphan list and stopped at Close — stopping them mid-call
// would race the call. Starting sandboxes are marked dead and their starter's
// finalize owns the instance cleanup, exactly as under a racing Close.
func (c *Cluster) failNode(n *Node) {
	var stops []Instance
	var affected []*actionState
	now := c.clock.Now().UnixNano()
	n.mu.Lock()
	for _, sbs := range n.sandboxes {
		for _, sb := range sbs {
			st := sb.state.Load()
			if st == sandboxDead {
				continue
			}
			if st == sandboxReady && sb.inFlight.Load() == 0 {
				accrueIdle(sb, now)
			}
			sb.state.Store(sandboxDead)
			n.reserved -= sb.action.MemoryBudget
			sb.as.count.Add(-1)
			affected = append(affected, sb.as)
			if st == sandboxStarting {
				sb.as.starting.Add(-1)
				continue
			}
			if sb.inst == nil {
				continue
			}
			if sb.inFlight.Load() == 0 {
				stops = append(stops, sb.inst)
			} else {
				c.orphanMu.Lock()
				c.orphans = append(c.orphans, sb.inst)
				c.orphanMu.Unlock()
			}
		}
	}
	killed := len(affected)
	n.sandboxes = map[string][]*Sandbox{}
	n.mu.Unlock()
	if killed == 0 {
		return
	}
	c.nodeFails.Add(1)
	for _, as := range affected {
		as.ready.Store(nil)
	}
	for _, inst := range stops {
		inst.Stop()
	}
	c.notifyAllActions()
}

// Close releases the pinned slot (idempotent). The release replicates
// InvokeOn's tail: an idle sandbox is capacity for every action, not just
// this one, so cluster-wide waiters must be notified.
func (s *Session) Close() {
	if s.closed.Swap(true) {
		return
	}
	sb, c := s.sb, s.c
	sb.lastUsed.Store(c.clock.Now().UnixNano())
	if sb.inFlight.Add(-1) == 0 {
		if c.waiters.Load() > 0 {
			c.notifyAllActions()
		}
	} else {
		sb.as.notifyIfWaiters()
	}
}

// acquire finds or creates a sandbox with spare concurrency and reserves one
// slot in it.
func (c *Cluster) acquire(ctx context.Context, action, hint string) (*Sandbox, error) {
	as, err := c.actionState(action)
	if err != nil {
		return nil, err
	}
	hintNode := c.nodeByName(hint)
	key := AffinityFrom(ctx)
	for {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Register as a waiter BEFORE attempting, and capture the current
		// notification channel: any capacity that appears after this point
		// either is visible to the attempts below or closes ch.
		// Fast path first, without touching the waiter count: the common
		// case claims a warm slot with a handful of atomic ops.
		if sb := c.claimReady(as, hintNode, key); sb != nil {
			c.invocations.Add(1)
			return sb, nil
		}
		// Register as a waiter (per-action and cluster-wide) and retry before
		// sleeping: releases skip notification when no waiter is registered,
		// so capacity freed between the miss above and the registration is
		// only visible to a re-claim made after it. Stay registered through
		// the select — deregistering earlier would lose the wakeup.
		as.waiters.Add(1)
		c.waiters.Add(1)
		ch := *as.notifyCh.Load()
		sb := c.claimReady(as, hintNode, key)
		if sb == nil {
			sb, err = c.place(ctx, as, hintNode, key)
		}
		if err != nil || sb != nil {
			as.waiters.Add(-1)
			c.waiters.Add(-1)
			if err != nil {
				return nil, err
			}
			c.invocations.Add(1)
			return sb, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
		case <-c.closedCh:
		}
		as.waiters.Add(-1)
		c.waiters.Add(-1)
	}
}

// claimReady is the lock-free fast path: claim a slot from the action's
// ready-sandbox snapshot. A hinted claim is restricted to the hinted node —
// whether to spill off-home (and disturb warm state other streams built
// elsewhere) is a slow-path decision in place, made only after the home's
// options are exhausted. Returns nil when the snapshot is stale or has no
// claimable slot.
func (c *Cluster) claimReady(as *actionState, hint *Node, key string) *Sandbox {
	p := as.ready.Load()
	if p == nil {
		return nil
	}
	snap := *p
	max := int32(as.a.Concurrency)
	return c.claimFrom(snap, hint, max, key)
}

// claimFrom claims a slot among snapshot entries (restricted to node only
// when only != nil). Without an affinity key it is first fit: snapshots are
// built busiest-first, so first fit approximates the bin-packing preference
// for the busiest sandbox with a spare slot while letting the hot path stop
// at the first claim instead of scanning the whole pool.
//
// A keyed claim (WithAffinity) ranks candidates instead: a sandbox tagged
// with the key, then an untagged one, then an idle one (its model swap
// stalls no in-flight request), then first fit. One scan claims the first
// tag match outright and remembers the best fallback; a fallback lost to a
// racing claim leaves the first-fit scan below.
func (c *Cluster) claimFrom(snap []*Sandbox, only *Node, max int32, key string) *Sandbox {
	if key != "" {
		var fallback *Sandbox
		best := rankNone
		for _, sb := range snap {
			if only != nil && sb.node != only {
				continue
			}
			r := sb.rank(key, max)
			if r >= best || !c.nodeAvailable(sb.node) {
				continue
			}
			if r == rankMatch {
				if ok, wasIdle := sb.tryClaim(max); ok {
					return c.claimed(sb, wasIdle, key)
				}
				continue
			}
			best, fallback = r, sb
		}
		if fallback != nil {
			if ok, wasIdle := fallback.tryClaim(max); ok {
				return c.claimed(fallback, wasIdle, key)
			}
		}
	}
	for _, sb := range snap {
		if only != nil && sb.node != only {
			continue
		}
		if !c.nodeAvailable(sb.node) {
			continue
		}
		if ok, wasIdle := sb.tryClaim(max); ok {
			return c.claimed(sb, wasIdle, key)
		}
	}
	return nil
}

// claimed books a successful slot claim: a warm hit (node- and
// action-level), the claim's affinity tag, and — for a claim that ends an
// idle period — the period's length in the action's idle-seconds telemetry.
func (c *Cluster) claimed(sb *Sandbox, wasIdle bool, key string) *Sandbox {
	sb.node.warmHits.Add(1)
	sb.as.warmHits.Add(1)
	sb.tag(key)
	if wasIdle {
		// lastUsed is read AFTER the idle-ending claim: the releaser
		// stores lastUsed before decrementing inFlight, so having
		// observed inFlight go 0→1 guarantees the store is visible —
		// reading earlier could misattribute a whole busy period as
		// idle. Only the claimer that ends the period accrues it.
		if idle := c.clock.Now().UnixNano() - sb.lastUsed.Load(); idle > 0 {
			sb.as.idleNanos.Add(idle)
		}
	}
	return sb
}

// place is the slow path: under the action's placement lock, rebuild the
// ready snapshot and retry the claim; otherwise reserve memory on a node and
// start a new sandbox there. Returns (nil, nil) when the caller should wait
// for capacity.
//
// A hinted placement walks a locality-first ladder: ready slot on the home,
// then a cold start on the home while it has room, then wait for home
// sandboxes that are already starting (warm capacity is imminent — spilling
// off-home now would trample warm state other streams built elsewhere), and
// only then the unhinted ladder: any ready slot, any node with room,
// eviction.
func (c *Cluster) place(ctx context.Context, as *actionState, hint *Node, key string) (*Sandbox, error) {
	if hint != nil && !c.nodeAvailable(hint) {
		// A hint pointing at a crashed or breaker-open node is void: walking
		// its locality rungs would only wait on capacity that cannot serve.
		hint = nil
	}
	as.startMu.Lock()
	if c.closed.Load() {
		as.startMu.Unlock()
		return nil, ErrClosed
	}
	snap := c.rebuildSnapshot(as)
	max := int32(as.a.Concurrency)
	if hint != nil {
		if sb := c.claimFrom(snap, hint, max, key); sb != nil {
			as.startMu.Unlock()
			return sb, nil
		}
		if c.tryReserve(hint, as.a.MemoryBudget) {
			sb := c.registerStarting(as, hint, 1, key)
			as.startMu.Unlock()
			if err := c.confirmOpenOrAbort(sb); err != nil {
				return nil, err
			}
			return c.startSandboxTraced(ctx, sb)
		}
		if c.startingOn(hint, as) > 0 {
			as.startMu.Unlock()
			return nil, nil
		}
	}
	if sb := c.claimFrom(snap, nil, max, key); sb != nil {
		as.startMu.Unlock()
		return sb, nil
	}
	// Sandboxes already starting absorb pending demand: if their spare
	// slots cover every current waiter, wait for them instead of starting
	// more. (Start failures notify, so absorbed waiters always re-place.)
	if st := as.starting.Load(); st > 0 && int(st)*as.a.Concurrency >= int(as.waiters.Load()) {
		as.startMu.Unlock()
		return nil, nil
	}
	node := c.reserveNode(as, hint, true)
	if node == nil {
		as.startMu.Unlock()
		return nil, nil
	}
	sb := c.registerStarting(as, node, 1, key)
	as.startMu.Unlock()
	if err := c.confirmOpenOrAbort(sb); err != nil {
		return nil, err
	}
	return c.startSandboxTraced(ctx, sb)
}

// startSandboxTraced wraps the cold start with the placement-level span: if
// the invoking context carries an obs.Sink (the gateway's traced-dispatch
// collector), the container start + instance factory time is recorded as a
// cold_start span and stitched into every member trace of the dispatch.
func (c *Cluster) startSandboxTraced(ctx context.Context, sb *Sandbox) (*Sandbox, error) {
	sink := obs.SinkFrom(ctx)
	if sink == nil {
		return c.startSandbox(sb)
	}
	t0 := c.clock.Now()
	out, err := c.startSandbox(sb)
	if err == nil && out != nil {
		sink.Observe(obs.StageColdStart, t0, c.clock.Now())
	}
	return out, err
}

// confirmOpenOrAbort is the post-registration closed re-check. Close() does
// not take the per-action placement locks, so a placement can pass its
// closed check, lose the CPU, and register a starting sandbox on a node
// Close has already swept — a resurrected sandbox whose instance would never
// be stopped and whose reservation would never be released. Re-checking
// after registration closes the window: reading closed==false here proves
// the registration happened before Close's sweep (which then owns the
// cleanup); reading true aborts, with the starting→dead transition under
// the node lock deciding exactly-once bookkeeping between this and Close.
func (c *Cluster) confirmOpenOrAbort(sb *Sandbox) error {
	if !c.closed.Load() {
		return nil
	}
	n := sb.node
	n.mu.Lock()
	if sb.state.Load() == sandboxStarting {
		sb.state.Store(sandboxDead)
		n.reserved -= sb.action.MemoryBudget
		n.removeLocked(sb)
		n.mu.Unlock()
		sb.as.count.Add(-1)
		sb.as.starting.Add(-1)
		return ErrClosed
	}
	n.mu.Unlock() // Close's sweep saw it and already cleaned up
	return ErrClosed
}

// rebuildSnapshot refreshes the action's ready snapshot from the per-node
// hosting lists. Caller holds as.startMu.
func (c *Cluster) rebuildSnapshot(as *actionState) []*Sandbox {
	snap := make([]*Sandbox, 0, as.count.Load())
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, sb := range n.sandboxes[as.a.Name] {
			if sb.state.Load() == sandboxReady {
				snap = append(snap, sb)
			}
		}
		n.mu.Unlock()
	}
	// Busiest first: first-fit claims then pack requests into the fewest
	// sandboxes (the snapshot's ordering is advisory — tryClaim revalidates).
	sort.Slice(snap, func(i, j int) bool { return snap[i].inFlight.Load() > snap[j].inFlight.Load() })
	as.ready.Store(&snap)
	return snap
}

// startingOn counts the action's starting sandboxes on node n.
func (c *Cluster) startingOn(n *Node, as *actionState) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	starting := 0
	for _, sb := range n.sandboxes[as.a.Name] {
		if sb.state.Load() == sandboxStarting {
			starting++
		}
	}
	return starting
}

// reserveNode picks a node for a new sandbox of the action and reserves the
// memory budget on it — check and reservation are atomic under the node's
// lock, so racing placements can never over-reserve a node. Preference
// order: the hinted node, nodes already hosting the action, any node with
// room, then (when evict) a node where reclaiming idle sandboxes frees
// enough. Caller holds as.startMu.
func (c *Cluster) reserveNode(as *actionState, hint *Node, evict bool) *Node {
	budget := as.a.MemoryBudget
	if hint != nil && c.tryReserve(hint, budget) {
		return hint
	}
	for _, n := range c.nodes {
		if n == hint || !c.nodeAvailable(n) {
			continue
		}
		n.mu.Lock()
		hosting := len(n.sandboxes[as.a.Name]) > 0
		if hosting && n.reserved+budget <= n.MemoryBytes {
			n.reserved += budget
			n.mu.Unlock()
			return n
		}
		n.mu.Unlock()
	}
	for _, n := range c.nodes {
		if n != hint && c.tryReserve(n, budget) {
			return n
		}
	}
	if !evict {
		return nil
	}
	if hint != nil && c.evictAndReserve(hint, budget) {
		return hint
	}
	for _, n := range c.nodes {
		if n != hint && c.evictAndReserve(n, budget) {
			return n
		}
	}
	return nil
}

func (c *Cluster) tryReserve(n *Node, budget int64) bool {
	if !c.nodeAvailable(n) {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reserved+budget > n.MemoryBytes {
		return false
	}
	n.reserved += budget
	return true
}

// evictAndReserve destroys idle sandboxes on node n (least recently used
// first) until budget bytes fit, then reserves them — all under the node's
// lock, so the freed memory cannot be stolen by a racing placement. It evicts
// nothing if even reclaiming every idle sandbox would not fit. In-flight
// sandboxes are never victims: candidates are claimed with a ready→dying CAS
// and destroyed only if still idle.
func (c *Cluster) evictAndReserve(n *Node, budget int64) bool {
	if !c.nodeAvailable(n) {
		return false
	}
	var stops []Instance
	var victims []*Sandbox
	ok := func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.reserved+budget <= n.MemoryBytes {
			n.reserved += budget
			return true
		}
		var idle []*Sandbox
		var reclaimable int64
		for _, sbs := range n.sandboxes {
			for _, sb := range sbs {
				if sb.state.Load() == sandboxReady && sb.inFlight.Load() == 0 {
					idle = append(idle, sb)
					reclaimable += sb.action.MemoryBudget
				}
			}
		}
		if n.reserved-reclaimable+budget > n.MemoryBytes {
			return false
		}
		sort.Slice(idle, func(i, j int) bool { return idle[i].lastUsed.Load() < idle[j].lastUsed.Load() })
		for _, sb := range idle {
			if n.reserved+budget <= n.MemoryBytes {
				break
			}
			if !sb.state.CompareAndSwap(sandboxReady, sandboxDying) {
				continue
			}
			if sb.inFlight.Load() != 0 {
				// Claimed by the lock-free fast path since we collected it.
				sb.state.Store(sandboxReady)
				continue
			}
			sb.state.Store(sandboxDead)
			n.reserved -= sb.action.MemoryBudget
			n.removeLocked(sb)
			victims = append(victims, sb)
			if sb.inst != nil {
				stops = append(stops, sb.inst)
			}
		}
		if n.reserved+budget > n.MemoryBytes {
			return false
		}
		n.reserved += budget
		return true
	}()
	now := c.clock.Now().UnixNano()
	for _, sb := range victims {
		accrueIdle(sb, now)
		sb.as.count.Add(-1)
		sb.as.ready.Store(nil)
		c.evictions.Add(1)
	}
	for _, inst := range stops {
		inst.Stop()
	}
	if len(victims) > 0 {
		c.notifyAllActions()
	}
	return ok
}

// accrueIdle closes an idle sandbox's final idle period into its action's
// telemetry — the destruction-path counterpart of claimFrom's accounting.
func accrueIdle(sb *Sandbox, nowNanos int64) {
	if idle := nowNanos - sb.lastUsed.Load(); idle > 0 {
		sb.as.idleNanos.Add(idle)
	}
}

// registerStarting creates a starting sandbox on a node whose memory is
// already reserved, linking it into the node's hosting list. claimed pre-books
// slots for the creator (1 from acquire, 0 from Prewarm); key is the
// creator's affinity, tagged before the sandbox can turn ready so no other
// key's claim takes it for untagged.
func (c *Cluster) registerStarting(as *actionState, n *Node, claimed int32, key string) *Sandbox {
	sb := &Sandbox{action: as.a, as: as, node: n, born: c.clock.Now()}
	sb.tag(key)
	sb.state.Store(sandboxStarting)
	sb.inFlight.Store(claimed)
	n.mu.Lock()
	n.sandboxes[as.a.Name] = append(n.sandboxes[as.a.Name], sb)
	n.mu.Unlock()
	as.count.Add(1)
	as.starting.Add(1)
	return sb
}

// startSandbox runs the slow part of a cold start — the modeled container
// start plus the instance factory — without holding any scheduling lock, then
// finalizes the sandbox under its node's lock. The starting→ready (or, on
// failure / racing Close, →dead) transition is performed exactly once; its
// performer owns the bookkeeping.
func (c *Cluster) startSandbox(sb *Sandbox) (*Sandbox, error) {
	as, n := sb.as, sb.node
	var inst Instance
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serverless: instance factory panicked: %v", r)
			}
		}()
		c.clock.Sleep(c.cfg.SandboxStart)
		inst, err = as.a.New(n)
	}()
	n.mu.Lock()
	if sb.state.Load() == sandboxDead {
		// Close destroyed the sandbox while it was starting (and already
		// released its reservation and counts): don't resurrect it, and
		// don't orphan the instance we just built.
		n.mu.Unlock()
		if inst != nil {
			inst.Stop()
		}
		as.notify()
		return nil, ErrClosed
	}
	if err != nil {
		sb.state.Store(sandboxDead)
		n.reserved -= as.a.MemoryBudget
		n.removeLocked(sb)
		n.mu.Unlock()
		as.count.Add(-1)
		as.starting.Add(-1)
		// The failed start released node memory — capacity for ANY action —
		// and absorbed waiters of this action must re-place, so the wakeup
		// is unconditional and cluster-wide.
		c.notifyAllActions()
		return nil, fmt.Errorf("serverless: start %q on %q: %w", as.a.Name, n.Name, err)
	}
	sb.inst = inst
	sb.lastUsed.Store(c.clock.Now().UnixNano())
	sb.state.Store(sandboxReady)
	n.mu.Unlock()
	as.starting.Add(-1)
	as.ready.Store(nil) // membership changed: next placement rebuilds
	n.coldStarts.Add(1)
	as.coldStarts.Add(1)
	c.coldStarts.Add(1)
	as.notify()
	return sb, nil
}

// Prewarm ensures up to want sandboxes of the action exist (starting or
// ready) without dispatching a request — the warm-capacity hook a front-end
// scheduler drives from queue depth. It starts sandboxes only while a node
// has spare memory (it never evicts, and never blocks waiting for capacity)
// and returns how many sandboxes it started; on full nodes that can be 0.
// Memory is reserved under the owning node's lock, so racing with acquire on
// the same action can never over-reserve a node.
func (c *Cluster) Prewarm(action string, want int) (int, error) {
	return c.PrewarmOn(action, "", want)
}

// PrewarmOn is Prewarm with a placement hint: new sandboxes are reserved on
// the hinted node first (falling back to the usual placement order when it
// is full), so a locality-aware front-end can land warm capacity on the
// node its affinity router will dispatch the action's batches to. An empty
// or unknown node name means no preference.
func (c *Cluster) PrewarmOn(action, node string, want int) (int, error) {
	as, err := c.actionState(action)
	if err != nil {
		return 0, err
	}
	hint := c.nodeByName(node)
	deficit := want - int(as.count.Load())
	if deficit <= 0 {
		return 0, nil
	}
	// Container starts are independent: run them concurrently so warm
	// capacity arrives in ~one SandboxStart, not deficit of them. Each
	// goroutine re-checks the live count under the placement lock, so the
	// target is not overshot.
	var wg sync.WaitGroup
	var mu sync.Mutex
	started := 0
	var firstErr error
	for i := 0; i < deficit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			as.startMu.Lock()
			if c.closed.Load() || int(as.count.Load()) >= want {
				as.startMu.Unlock()
				return
			}
			// Never evict for warm capacity: evicting idle sandboxes to
			// prewarm would cannibalize the warm pool this call is building.
			n := c.reserveNode(as, hint, false)
			if n == nil {
				as.startMu.Unlock()
				return
			}
			sb := c.registerStarting(as, n, 0, "")
			as.startMu.Unlock()
			if c.confirmOpenOrAbort(sb) != nil {
				return // racing Close: registration aborted
			}
			_, err := c.startSandbox(sb)
			mu.Lock()
			switch {
			case err == nil:
				started++
			case !errors.Is(err, ErrClosed) && firstErr == nil:
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return started, firstErr
}

// notifyAllActions wakes waiters of every action — memory freed on a node can
// unblock any of them.
func (c *Cluster) notifyAllActions() {
	c.amu.RLock()
	defer c.amu.RUnlock()
	for _, as := range c.actions {
		as.notify()
	}
}

// ReapIdle destroys sandboxes idle past their keep-warm deadline — the
// action's adaptive override (SetKeepWarm) when set, Config.KeepWarm
// otherwise — and returns how many were reclaimed. Call it periodically
// (StartReaper does).
func (c *Cluster) ReapIdle() int {
	now := c.clock.Now().UnixNano()
	reaped := 0
	var stops []Instance
	var victims []*Sandbox
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, sbs := range n.sandboxes {
			for _, sb := range append([]*Sandbox(nil), sbs...) {
				cutoff := now - int64(c.effectiveKeepWarm(sb.as))
				if sb.state.Load() != sandboxReady || sb.inFlight.Load() != 0 || sb.lastUsed.Load() > cutoff {
					continue
				}
				if !sb.state.CompareAndSwap(sandboxReady, sandboxDying) {
					continue
				}
				if sb.inFlight.Load() != 0 {
					sb.state.Store(sandboxReady)
					continue
				}
				sb.state.Store(sandboxDead)
				n.reserved -= sb.action.MemoryBudget
				n.removeLocked(sb)
				victims = append(victims, sb)
				if sb.inst != nil {
					stops = append(stops, sb.inst)
				}
				reaped++
			}
		}
		n.mu.Unlock()
	}
	for _, sb := range victims {
		accrueIdle(sb, now)
		sb.as.count.Add(-1)
		sb.as.ready.Store(nil)
	}
	for _, inst := range stops {
		inst.Stop()
	}
	if reaped > 0 {
		c.notifyAllActions()
	}
	return reaped
}

// effectiveKeepWarm is the action's reaping deadline: its adaptive override
// when set, the cluster default otherwise.
func (c *Cluster) effectiveKeepWarm(as *actionState) time.Duration {
	if kw := as.keepWarm.Load(); kw > 0 {
		return time.Duration(kw)
	}
	return c.cfg.KeepWarm
}

// SetKeepWarm overrides the action's keep-warm deadline — the scale-down
// lever an autoscaler drives from warm-hit and idle telemetry. d <= 0
// restores Config.KeepWarm. The override applies from the next ReapIdle; it
// never destroys anything by itself, and an in-flight sandbox is never a
// reaping victim regardless of how short the deadline gets.
func (c *Cluster) SetKeepWarm(action string, d time.Duration) error {
	as, err := c.actionState(action)
	if err != nil {
		return err
	}
	if d < 0 {
		d = 0
	}
	as.keepWarm.Store(int64(d))
	return nil
}

// KeepWarm reports the action's effective keep-warm deadline.
func (c *Cluster) KeepWarm(action string) (time.Duration, error) {
	as, err := c.actionState(action)
	if err != nil {
		return 0, err
	}
	return c.effectiveKeepWarm(as), nil
}

// StartReaper runs ReapIdle on an interval of the cluster's clock until the
// returned function is called (or the cluster closes). With the default
// system clock that is a wall-clock interval; with an injected clock
// (vclock.Manual) the ticks follow virtual time, so sim-time tests drive
// reaping deterministically by advancing the clock.
func (c *Cluster) StartReaper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		// The pre-clock implementation's time.NewTicker panicked here; keep
		// the loud failure — a zero interval would busy-spin the reap loop.
		panic("serverless: StartReaper interval must be positive")
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-vclock.After(c.clock, interval):
				c.ReapIdle()
			case <-done:
				return
			case <-c.closedCh:
				return
			}
		}
	}()
	return func() { close(done) }
}

// Stats is a snapshot of cluster state.
type Stats struct {
	// Sandboxes counts live sandboxes per action.
	Sandboxes map[string]int
	// Serving counts sandboxes with at least one in-flight request.
	Serving map[string]int
	// MemoryReserved is the total reserved bytes across nodes.
	MemoryReserved int64
	// ColdStarts, Invocations and Evictions are lifetime counters.
	ColdStarts, Invocations, Evictions uint64
	// NodeFailures counts node-crash teardowns (failNode sweeps that killed
	// at least one sandbox).
	NodeFailures uint64
}

// Stats returns a snapshot.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Sandboxes:    map[string]int{},
		Serving:      map[string]int{},
		ColdStarts:   c.coldStarts.Load(),
		Invocations:  c.invocations.Load(),
		Evictions:    c.evictions.Load(),
		NodeFailures: c.nodeFails.Load(),
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		for name, sbs := range n.sandboxes {
			for _, sb := range sbs {
				if sb.state.Load() == sandboxDead {
					continue
				}
				st.Sandboxes[name]++
				if sb.inFlight.Load() > 0 {
					st.Serving[name]++
				}
			}
		}
		st.MemoryReserved += n.reserved
		n.mu.Unlock()
	}
	return st
}

// RegisterMetrics exports the cluster's lifetime counters and per-node
// health on the unified registry. Per-node series carry a "node" label on
// top of the caller's labels; everything is a scrape-time read over state
// the cluster already maintains.
func (c *Cluster) RegisterMetrics(reg *obs.Registry, labels obs.Labels) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sesemi_cluster_invocations_total", "Sandbox slots acquired.", labels,
		func() float64 { return float64(c.invocations.Load()) })
	reg.CounterFunc("sesemi_cluster_cold_starts_total", "Sandboxes started.", labels,
		func() float64 { return float64(c.coldStarts.Load()) })
	reg.CounterFunc("sesemi_cluster_evictions_total", "Idle sandboxes evicted.", labels,
		func() float64 { return float64(c.evictions.Load()) })
	reg.CounterFunc("sesemi_cluster_node_failures_total", "Node-crash teardowns.", labels,
		func() float64 { return float64(c.nodeFails.Load()) })
	reg.GaugeFunc("sesemi_cluster_memory_reserved_bytes", "Reserved container memory across nodes.", labels,
		func() float64 { return float64(c.Stats().MemoryReserved) })
	for _, n := range c.nodes {
		n := n
		l := labels.With("node", n.Name)
		reg.GaugeFunc("sesemi_cluster_node_health", "Node invoke-success EWMA in [0, 1].", l,
			func() float64 { return n.Health() })
		reg.CounterFunc("sesemi_cluster_node_warm_hits_total", "Acquires served warm on this node.", l,
			func() float64 { return float64(n.warmHits.Load()) })
		reg.CounterFunc("sesemi_cluster_node_cold_starts_total", "Sandboxes started on this node.", l,
			func() float64 { return float64(n.coldStarts.Load()) })
	}
}

// NodeStat is one node's scheduling snapshot for an action — what an
// affinity router needs to pick and keep a home node.
type NodeStat struct {
	// Node is the node name (the InvokeOn hint).
	Node string
	// Capacity and Reserved are the node's invoker memory and current
	// reservation in bytes.
	Capacity, Reserved int64
	// Sandboxes is the node's live sandbox count for the action;
	// ReadySlots is the spare concurrency across its ready sandboxes.
	Sandboxes, ReadySlots int
	// WarmHits counts acquires served by a ready sandbox on this node;
	// ColdStarts counts sandboxes started here (all actions).
	WarmHits, ColdStarts uint64
	// Health is the node's invoke-success EWMA in [0, 1] (1 = healthy).
	Health float64
	// BreakerOpen reports whether the node's circuit breaker currently
	// refuses placement (open, or half-open with a probe in flight).
	BreakerOpen bool
}

// NodeStats returns per-node scheduling state for the action, in node order.
func (c *Cluster) NodeStats(action string) []NodeStat {
	c.amu.RLock()
	as := c.actions[action]
	c.amu.RUnlock()
	out := make([]NodeStat, 0, len(c.nodes))
	for _, n := range c.nodes {
		st := NodeStat{
			Node:        n.Name,
			Capacity:    n.MemoryBytes,
			WarmHits:    n.warmHits.Load(),
			ColdStarts:  n.coldStarts.Load(),
			Health:      n.Health(),
			BreakerOpen: n.brkState.Load() != brkClosed,
		}
		n.mu.Lock()
		st.Reserved = n.reserved
		if as != nil {
			for _, sb := range n.sandboxes[action] {
				s := sb.state.Load()
				if s == sandboxDead {
					continue
				}
				st.Sandboxes++
				if s == sandboxReady {
					if spare := as.a.Concurrency - int(sb.inFlight.Load()); spare > 0 {
						st.ReadySlots += spare
					}
				}
			}
		}
		n.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// ActionStats is one action's autoscaling telemetry: the warm-pool shape an
// arrival-rate forecaster sizes against, and the warm-hit/idle signals a
// scale-down policy adapts the keep-warm deadline from.
type ActionStats struct {
	// Live counts the action's sandboxes (starting + ready); Starting only
	// those still starting; Idle the ready ones with nothing in flight.
	Live, Starting, Idle int
	// InFlight is the action's in-flight request count across sandboxes.
	InFlight int
	// WarmHits counts slot claims served by an already-ready sandbox;
	// ColdStarts counts sandboxes started for the action (prewarmed ones
	// included). Both are lifetime counters.
	WarmHits, ColdStarts uint64
	// IdleSeconds is the cumulative idle sandbox-seconds the action has
	// accrued — closed idle periods plus the open ones of currently idle
	// sandboxes. The enclave-memory squatting a scale-down policy shrinks.
	IdleSeconds float64
	// KeepWarm is the action's effective keep-warm deadline.
	KeepWarm time.Duration
}

// ActionStats returns the action's telemetry snapshot.
func (c *Cluster) ActionStats(action string) (ActionStats, error) {
	as, err := c.actionState(action)
	if err != nil {
		return ActionStats{}, err
	}
	now := c.clock.Now().UnixNano()
	st := ActionStats{
		WarmHits:   as.warmHits.Load(),
		ColdStarts: as.coldStarts.Load(),
		KeepWarm:   c.effectiveKeepWarm(as),
	}
	idleNanos := as.idleNanos.Load()
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, sb := range n.sandboxes[action] {
			state := sb.state.Load()
			if state == sandboxDead {
				continue
			}
			st.Live++
			if state == sandboxStarting {
				st.Starting++
			}
			inFlight := int(sb.inFlight.Load())
			st.InFlight += inFlight
			if state == sandboxReady && inFlight == 0 {
				st.Idle++
				if open := now - sb.lastUsed.Load(); open > 0 {
					idleNanos += open
				}
			}
		}
		n.mu.Unlock()
	}
	st.IdleSeconds = float64(idleNanos) / float64(time.Second)
	return st, nil
}

// Close destroys all sandboxes and refuses further invocations.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.closedCh)
	now := c.clock.Now().UnixNano()
	var stops []Instance
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, sbs := range n.sandboxes {
			for _, sb := range sbs {
				st := sb.state.Load()
				if st == sandboxDead {
					continue
				}
				if st == sandboxReady && sb.inFlight.Load() == 0 {
					accrueIdle(sb, now)
				}
				sb.state.Store(sandboxDead)
				n.reserved -= sb.action.MemoryBudget
				sb.as.count.Add(-1)
				if st == sandboxStarting {
					// The starter's finalize will observe dead: it stops the
					// instance it built and performs no further bookkeeping,
					// so the starting count is settled here.
					sb.as.starting.Add(-1)
					continue
				}
				if sb.inst != nil {
					stops = append(stops, sb.inst)
				}
			}
		}
		n.sandboxes = map[string][]*Sandbox{}
		n.mu.Unlock()
	}
	c.amu.RLock()
	for _, as := range c.actions {
		as.ready.Store(nil)
	}
	c.amu.RUnlock()
	for _, inst := range stops {
		inst.Stop()
	}
	// Crash-killed instances that were in flight at fail time were parked
	// rather than stopped; their calls have long returned by teardown.
	c.orphanMu.Lock()
	orphans := c.orphans
	c.orphans = nil
	c.orphanMu.Unlock()
	for _, inst := range orphans {
		inst.Stop()
	}
	c.notifyAllActions()
}
