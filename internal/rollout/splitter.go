// Package rollout implements attested canary rollout for model revisions:
// a traffic splitter that ramps a canary revision under live traffic, and an
// SLO-gated controller that promotes it step by step or rolls it back
// automatically on regression (kserve's InferenceService canary machinery,
// grown an enclave dimension).
//
// The enclave twist over a plain canary rollout: every revision is its own
// enclave build with its own measurement (semirt.Config.ForRevision), so
// shifting traffic is only half the story — the keyservice measurement
// allowlist must admit the canary's measurement before it can decrypt user
// keys, and a rollback revokes it, so a bad revision loses key access
// cluster-wide in one operation even if some path still routes to it.
//
// Split decisions are sticky: the (tenant, user) pair hashes to a fixed
// percentile bucket, and a bucket is on the canary exactly when it is below
// the current weight. A monotone ramp (1 → 5 → 25 → 50 → 100) therefore
// moves each caller from stable to canary AT MOST ONCE, and a caller never
// flaps between revisions mid-ramp — one user always sees one model.
package rollout

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/metrics"
	"sesemi/internal/semirt"
)

// Submitter is the serving tier the splitter routes into: satisfied by both
// *gateway.Gateway and *frontier.Frontier.
type Submitter interface {
	Submit(ctx context.Context, req gateway.Request) (*gateway.Ticket, error)
}

// splitState is the immutable routing snapshot swapped atomically on every
// control-plane change, so the per-request Target path is one atomic load
// plus a hash — no lock, no contention, ≈0 steady-state overhead.
type splitState struct {
	stable string
	canary string // "" = no canary in flight
	weight uint32 // canary percent, 0..100
	pins   map[string]string
}

// Splitter routes each request to one revision of a model: the stable
// revision by default, the canary for the sticky hash buckets below the
// current weight, or a tenant's pinned revision unconditionally.
type Splitter struct {
	state atomic.Pointer[splitState]

	// mu guards the observation plane (windows, in-flight, cumulative
	// counters); the routing plane above never takes it.
	mu       sync.Mutex
	windows  map[string]*window
	inflight map[string]int
	served   map[string]uint64
	errored  map[string]uint64
}

// windowSamples caps the latencies one revision window retains for its p95.
// Without a controller nothing calls TakeWindow (loadgen's fixed
// -canary-weight), so an unbounded window would grow for the whole run.
const windowSamples = 1024

// window is one revision's SLO observation window since the last snapshot.
// The mean is exact (a running sum); the p95 comes from a uniform reservoir
// of at most windowSamples successful latencies (Vitter's Algorithm R),
// exact while the window holds fewer.
type window struct {
	samples []time.Duration
	sum     time.Duration
	ok      int    // successful latencies observed (the reservoir's stream)
	rng     uint64 // splitmix64 state for reservoir replacement
	count   int
	errors  int
}

// observe folds one successful latency into the window.
func (w *window) observe(d time.Duration) {
	w.ok++
	w.sum += d
	if len(w.samples) < windowSamples {
		w.samples = append(w.samples, d)
		return
	}
	// Keep the ok-th sample with probability windowSamples/ok, replacing a
	// uniformly chosen resident.
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if j := z % uint64(w.ok); j < windowSamples {
		w.samples[j] = d
	}
}

// WindowStats is one revision's observation window, snapshotted for an SLO
// evaluation.
type WindowStats struct {
	Count  int
	Errors int
	Mean   time.Duration
	P95    time.Duration
}

// ErrorRate returns Errors/Count (0 for an empty window).
func (w WindowStats) ErrorRate() float64 {
	if w.Count == 0 {
		return 0
	}
	return float64(w.Errors) / float64(w.Count)
}

// NewSplitter creates a splitter serving only the stable revision id.
func NewSplitter(stable string) *Splitter {
	s := &Splitter{
		windows:  map[string]*window{},
		inflight: map[string]int{},
		served:   map[string]uint64{},
		errored:  map[string]uint64{},
	}
	s.state.Store(&splitState{stable: stable})
	return s
}

// Stable returns the stable revision id.
func (s *Splitter) Stable() string { return s.state.Load().stable }

// Canary returns the canary revision id ("" when none is in flight).
func (s *Splitter) Canary() string { return s.state.Load().canary }

// Weight returns the canary traffic percentage.
func (s *Splitter) Weight() int { return int(s.state.Load().weight) }

// SetCanary installs (or re-weights) the canary revision. Weight is clamped
// to [0, 100]; weight 0 keeps the canary installed but routes no traffic to
// it. An empty canary id clears the canary regardless of weight.
func (s *Splitter) SetCanary(canary string, weight int) {
	if weight < 0 {
		weight = 0
	}
	if weight > 100 {
		weight = 100
	}
	if canary == "" {
		weight = 0
	}
	for {
		old := s.state.Load()
		next := &splitState{stable: old.stable, canary: canary, weight: uint32(weight), pins: old.pins}
		if s.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Promote makes the canary the new stable revision (rollout complete) and
// clears the canary slot.
func (s *Splitter) Promote() {
	for {
		old := s.state.Load()
		if old.canary == "" {
			return
		}
		next := &splitState{stable: old.canary, pins: old.pins}
		if s.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Pin routes every request of one tenant to a fixed revision id, overriding
// the weighted split (a tenant that opted out of canaries, or an early-access
// tenant pinned onto one). An empty id unpins.
func (s *Splitter) Pin(tenant, modelID string) {
	for {
		old := s.state.Load()
		pins := make(map[string]string, len(old.pins)+1)
		for k, v := range old.pins {
			pins[k] = v
		}
		if modelID == "" {
			delete(pins, tenant)
		} else {
			pins[tenant] = modelID
		}
		next := &splitState{stable: old.stable, canary: old.canary, weight: old.weight, pins: pins}
		if s.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Target picks the revision id for one (tenant, user) caller. The decision
// must be made BEFORE the request is built: request payloads are encrypted
// under the per-model request key, so the revision choice binds the key and
// the blob, not just the route.
func (s *Splitter) Target(tenant, user string) string {
	st := s.state.Load()
	if id, ok := st.pins[tenant]; ok {
		return id
	}
	if st.canary == "" || st.weight == 0 {
		return st.stable
	}
	if st.weight >= 100 || stickyBucket(tenant, user) < st.weight {
		return st.canary
	}
	return st.stable
}

// stickyBucket hashes a caller onto a fixed percentile in [0, 100): FNV-1a
// over the separator-framed pair, finalized with the mix64 avalanche the
// frontier ring uses, so adjacent tenant/user strings land uniformly.
func stickyBucket(tenant, user string) uint32 {
	const (
		fnvOffset uint64 = 14695981039346656037
		fnvPrime  uint64 = 1099511628211
	)
	h := fnvOffset
	for _, part := range [2]string{tenant, user} {
		for i := 0; i < len(part); i++ {
			h ^= uint64(part[i])
			h *= fnvPrime
		}
		h ^= 0x1f
		h *= fnvPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h % 100)
}

// Begin records one request dispatched to a revision (paired with End). The
// in-flight count is what a rollback drains to zero before revoking the
// canary's measurement — revoking earlier would strand in-flight requests
// mid-decrypt and lose them.
func (s *Splitter) Begin(modelID string) {
	s.mu.Lock()
	s.inflight[modelID]++
	s.mu.Unlock()
}

// End closes a Begin.
func (s *Splitter) End(modelID string) {
	s.mu.Lock()
	if s.inflight[modelID]--; s.inflight[modelID] <= 0 {
		delete(s.inflight, modelID)
	}
	s.mu.Unlock()
}

// InFlight returns the revision's currently dispatched request count.
func (s *Splitter) InFlight(modelID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight[modelID]
}

// Observe records one completed request into the revision's SLO window and
// cumulative counters.
func (s *Splitter) Observe(modelID string, d time.Duration, failed bool) {
	s.mu.Lock()
	w := s.windows[modelID]
	if w == nil {
		w = &window{}
		s.windows[modelID] = w
	}
	w.count++
	s.served[modelID]++
	if failed {
		w.errors++
		s.errored[modelID]++
	} else {
		w.observe(d)
	}
	s.mu.Unlock()
}

// TakeWindow snapshots and resets the revision's SLO window — the
// controller's per-step read.
func (s *Splitter) TakeWindow(modelID string) WindowStats {
	s.mu.Lock()
	w := s.windows[modelID]
	delete(s.windows, modelID)
	s.mu.Unlock()
	if w == nil {
		return WindowStats{}
	}
	ws := WindowStats{Count: w.count, Errors: w.errors}
	if w.ok > 0 {
		var lat metrics.Latency
		for _, d := range w.samples {
			lat.Add(d)
		}
		ws.Mean = w.sum / time.Duration(w.ok)
		ws.P95 = lat.Percentile(95)
	}
	return ws
}

// Served returns the revision's cumulative completed-request count (errors
// included) — the "requests affected" ledger of a rollback.
func (s *Splitter) Served(modelID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served[modelID]
}

// Errored returns the revision's cumulative failed-request count.
func (s *Splitter) Errored(modelID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errored[modelID]
}

// Do routes one caller's request through the splitter: pick the revision,
// build the (revision-bound, encrypted) request via build, submit it, wait,
// and feed the outcome back into the revision's SLO window. It is the
// closed-loop serving path the rollout bench and loadgen drive.
func (s *Splitter) Do(ctx context.Context, sub Submitter, tenant, user string,
	build func(modelID string) (gateway.Request, error)) (semirt.Response, error) {
	target := s.Target(tenant, user)
	req, err := build(target)
	if err != nil {
		return semirt.Response{}, fmt.Errorf("rollout: build request for %q: %w", target, err)
	}
	s.Begin(target)
	defer s.End(target)
	t0 := time.Now()
	tk, err := sub.Submit(ctx, req)
	if err != nil {
		s.Observe(target, 0, true)
		return semirt.Response{}, err
	}
	resp, err := tk.Wait(ctx)
	s.Observe(target, time.Since(t0), err != nil)
	return resp, err
}
