package rollout

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sesemi/internal/vclock"
)

func TestStickySplitMonotone(t *testing.T) {
	// Each (tenant, user) pair must move stable→canary at most once across a
	// monotone ramp, and the canary share must roughly track the weight.
	s := NewSplitter("mbnet")
	const callers = 2000
	onCanary := make([]bool, callers)
	for _, w := range []int{0, 1, 5, 25, 50, 100} {
		s.SetCanary("mbnet@v2", w)
		canaryN := 0
		for i := 0; i < callers; i++ {
			got := s.Target(fmt.Sprintf("tenant-%d", i%7), fmt.Sprintf("user-%d", i))
			switch got {
			case "mbnet@v2":
				canaryN++
				onCanary[i] = true
			case "mbnet":
				if onCanary[i] {
					t.Fatalf("caller %d flapped canary→stable at weight %d", i, w)
				}
			default:
				t.Fatalf("unexpected target %q", got)
			}
		}
		want := callers * w / 100
		slack := callers / 20 // ±5 points
		if canaryN < want-slack || canaryN > want+slack {
			t.Fatalf("weight %d%%: %d/%d on canary, want ≈%d", w, canaryN, callers, want)
		}
	}
}

func TestStickySplitDeterministic(t *testing.T) {
	s := NewSplitter("m")
	s.SetCanary("m@v2", 37)
	for i := 0; i < 100; i++ {
		a := s.Target("t1", "u1")
		if b := s.Target("t1", "u1"); b != a {
			t.Fatalf("same caller got %q then %q", a, b)
		}
	}
}

func TestPinOverridesWeight(t *testing.T) {
	s := NewSplitter("m")
	s.SetCanary("m@v2", 100)
	s.Pin("vip", "m")
	if got := s.Target("vip", "anyone"); got != "m" {
		t.Fatalf("pinned tenant got %q, want stable", got)
	}
	if got := s.Target("other", "anyone"); got != "m@v2" {
		t.Fatalf("unpinned tenant got %q, want canary at weight 100", got)
	}
	s.Pin("vip", "")
	if got := s.Target("vip", "anyone"); got != "m@v2" {
		t.Fatalf("unpinned vip got %q, want canary", got)
	}
}

func TestWindowsAndCounters(t *testing.T) {
	s := NewSplitter("m")
	s.Begin("m@v2")
	if got := s.InFlight("m@v2"); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
	s.Observe("m@v2", 10*time.Millisecond, false)
	s.Observe("m@v2", 30*time.Millisecond, false)
	s.Observe("m@v2", 0, true)
	s.End("m@v2")
	if got := s.InFlight("m@v2"); got != 0 {
		t.Fatalf("in-flight = %d, want 0", got)
	}
	w := s.TakeWindow("m@v2")
	if w.Count != 3 || w.Errors != 1 {
		t.Fatalf("window = %+v", w)
	}
	if w.Mean != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms (errors excluded from latency)", w.Mean)
	}
	if w.ErrorRate() < 0.33 || w.ErrorRate() > 0.34 {
		t.Fatalf("error rate = %v", w.ErrorRate())
	}
	if got := s.TakeWindow("m@v2"); got.Count != 0 {
		t.Fatalf("window not reset: %+v", got)
	}
	if s.Served("m@v2") != 3 || s.Errored("m@v2") != 1 {
		t.Fatalf("cumulative served=%d errored=%d", s.Served("m@v2"), s.Errored("m@v2"))
	}
}

// TestWindowBoundedWithoutTakeWindow: with no controller draining the
// windows (a fixed canary weight), a million observations must retain at
// most windowSamples latencies while the mean stays exact and the reservoir
// p95 stays close to the true one.
func TestWindowBoundedWithoutTakeWindow(t *testing.T) {
	s := NewSplitter("m")
	const n = 1_000_000
	for i := 0; i < n; i++ {
		// 1..1000 µs, cycling: true mean 500.5 µs, true p95 950 µs.
		s.Observe("m", time.Duration(i%1000+1)*time.Microsecond, false)
	}
	s.mu.Lock()
	retained := len(s.windows["m"].samples)
	s.mu.Unlock()
	if retained > windowSamples {
		t.Fatalf("window retains %d samples, cap %d", retained, windowSamples)
	}
	w := s.TakeWindow("m")
	if w.Count != n {
		t.Fatalf("count = %d, want %d", w.Count, n)
	}
	if want := 500500 * time.Nanosecond; w.Mean != want {
		t.Fatalf("mean = %v, want %v (exact running sum)", w.Mean, want)
	}
	if w.P95 < 900*time.Microsecond || w.P95 > 1000*time.Microsecond {
		t.Fatalf("reservoir p95 = %v, want ~950µs", w.P95)
	}
}

func TestEvaluate(t *testing.T) {
	slo := SLO{MaxErrorRate: 0.05, MaxLatencyRatio: 2, MaxP95: 100 * time.Millisecond}
	ok := WindowStats{Count: 50, Mean: 10 * time.Millisecond, P95: 20 * time.Millisecond}
	stable := WindowStats{Count: 500, Mean: 10 * time.Millisecond, P95: 18 * time.Millisecond}
	cases := []struct {
		name   string
		canary WindowStats
		want   Decision
	}{
		{"promote", ok, Promote},
		{"hold-few-samples", WindowStats{Count: 5, Mean: time.Millisecond}, Hold},
		{"hold-empty", WindowStats{}, Hold},
		{"rollback-errors", WindowStats{Count: 50, Errors: 10, Mean: 10 * time.Millisecond}, Rollback},
		{"rollback-latency-ratio", WindowStats{Count: 50, Mean: 25 * time.Millisecond, P95: 30 * time.Millisecond}, Rollback},
		{"rollback-p95", WindowStats{Count: 50, Mean: 12 * time.Millisecond, P95: 150 * time.Millisecond}, Rollback},
	}
	for _, c := range cases {
		if got := Evaluate(slo, c.canary, stable, 10); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	// Latency-ratio check is skipped without a stable baseline.
	slow := WindowStats{Count: 50, Mean: 25 * time.Millisecond, P95: 30 * time.Millisecond}
	if got := Evaluate(slo, slow, WindowStats{}, 10); got != Promote {
		t.Errorf("no stable baseline: got %v, want Promote", got)
	}
}

// feed observes n requests with the given latency per revision.
func feed(s *Splitter, id string, n int, d time.Duration, errEvery int) {
	for i := 0; i < n; i++ {
		failed := errEvery > 0 && i%errEvery == 0
		s.Observe(id, d, failed)
	}
}

func TestControllerFullPromotion(t *testing.T) {
	clock := vclock.NewManual()
	s := NewSplitter("mbnet")
	c, err := NewController(Config{
		Splitter:     s,
		Canary:       "mbnet@v2",
		StepInterval: 10 * time.Second,
		MinSamples:   10,
		SLO:          SLO{MaxErrorRate: 0.05, MaxLatencyRatio: 2},
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Begin()
	if s.Weight() != 1 || s.Canary() != "mbnet@v2" {
		t.Fatalf("after Begin: weight=%d canary=%q", s.Weight(), s.Canary())
	}
	for i, wantW := range []int{5, 25, 50, 100} {
		feed(s, "mbnet", 200, 10*time.Millisecond, 0)
		feed(s, "mbnet@v2", 50, 11*time.Millisecond, 0)
		clock.Advance(10 * time.Second)
		if got := c.Tick(); got != Promote {
			t.Fatalf("step %d: decision %v, want Promote", i, got)
		}
		if i < 3 && s.Weight() != wantW {
			t.Fatalf("step %d: weight %d, want %d", i, s.Weight(), wantW)
		}
	}
	// Final promote at 100%: canary becomes stable.
	feed(s, "mbnet@v2", 50, 11*time.Millisecond, 0)
	if got := c.Tick(); got != Promote {
		t.Fatalf("final step: %v, want Promote", got)
	}
	if s.Stable() != "mbnet@v2" || s.Canary() != "" {
		t.Fatalf("after promotion: stable=%q canary=%q", s.Stable(), s.Canary())
	}
	if st := c.Status(); st.Phase != PhasePromoted {
		t.Fatalf("phase = %v", st.Phase)
	}
	// Terminal: further ticks are inert.
	if got := c.Tick(); got != Hold {
		t.Fatalf("post-terminal tick = %v", got)
	}
}

func TestControllerHoldsWithoutSamples(t *testing.T) {
	clock := vclock.NewManual()
	s := NewSplitter("m")
	c, err := NewController(Config{
		Splitter: s, Canary: "m@v2", MinSamples: 10, Clock: clock,
		SLO: SLO{MaxErrorRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Begin()
	feed(s, "m@v2", 3, time.Millisecond, 0) // below MinSamples
	if got := c.Tick(); got != Hold {
		t.Fatalf("decision %v, want Hold", got)
	}
	if s.Weight() != 1 {
		t.Fatalf("weight moved to %d on hold", s.Weight())
	}
	if st := c.Status(); st.Holds != 1 || st.Phase != PhaseRamping {
		t.Fatalf("status %+v", st)
	}
}

func TestControllerRollbackRevokesAfterDrain(t *testing.T) {
	clock := vclock.NewManual()
	s := NewSplitter("mbnet")
	var (
		mu             sync.Mutex
		revoked        []string
		inFlightAtRevo = -1
	)
	c, err := NewController(Config{
		Splitter:     s,
		Canary:       "mbnet@v2",
		StepInterval: 10 * time.Second,
		MinSamples:   10,
		SLO:          SLO{MaxErrorRate: 0.05, MaxLatencyRatio: 2},
		Clock:        clock,
		Revoke: func(canary string) error {
			mu.Lock()
			defer mu.Unlock()
			revoked = append(revoked, canary)
			inFlightAtRevo = s.InFlight("mbnet@v2")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Begin()
	// First step healthy, second step the canary is 5x slower than stable.
	feed(s, "mbnet", 200, 10*time.Millisecond, 0)
	feed(s, "mbnet@v2", 50, 11*time.Millisecond, 0)
	clock.Advance(10 * time.Second)
	if got := c.Tick(); got != Promote {
		t.Fatalf("healthy step: %v", got)
	}
	feed(s, "mbnet", 200, 10*time.Millisecond, 0)
	feed(s, "mbnet@v2", 50, 50*time.Millisecond, 0)
	clock.Advance(10 * time.Second)
	if got := c.Tick(); got != Rollback {
		t.Fatalf("slow step: %v, want Rollback", got)
	}
	if s.Weight() != 0 {
		t.Fatalf("weight %d after rollback, want 0", s.Weight())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(revoked) != 1 || revoked[0] != "mbnet@v2" {
		t.Fatalf("revoked = %v", revoked)
	}
	if inFlightAtRevo != 0 {
		t.Fatalf("revoke ran with %d canary requests in flight", inFlightAtRevo)
	}
	st := c.Status()
	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %v", st.Phase)
	}
	if st.TimeToRollback != 20*time.Second {
		t.Fatalf("time-to-rollback = %v, want 20s of virtual time", st.TimeToRollback)
	}
	if st.RequestsAffected != 100 {
		t.Fatalf("requests affected = %d, want 100", st.RequestsAffected)
	}
	// Stable keeps serving: routing all back to stable.
	if got := s.Target("t", "u"); got != "mbnet" {
		t.Fatalf("post-rollback target %q", got)
	}
}

func TestControllerRollbackWaitsForInFlight(t *testing.T) {
	// Live-clock drain: one canary request still in flight when the breach
	// tick fires; the revoke hook must only run after it completes.
	s := NewSplitter("m")
	revokeSawInflight := make(chan int, 1)
	c, err := NewController(Config{
		Splitter:     s,
		Canary:       "m@v2",
		StepInterval: time.Second,
		MinSamples:   5,
		SLO:          SLO{MaxErrorRate: 0.05},
		Clock:        vclock.System,
		DrainTimeout: 5 * time.Second,
		DrainPoll:    time.Millisecond,
		Revoke: func(string) error {
			revokeSawInflight <- s.InFlight("m@v2")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Begin()
	feed(s, "m@v2", 20, time.Millisecond, 2) // 50% errors → breach
	s.Begin("m@v2")                          // one straggler in flight
	done := make(chan Decision, 1)
	go func() { done <- c.Tick() }()
	time.Sleep(20 * time.Millisecond) // tick is now draining
	s.End("m@v2")                     // straggler completes
	select {
	case d := <-done:
		if d != Rollback {
			t.Fatalf("decision %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rollback never completed")
	}
	if n := <-revokeSawInflight; n != 0 {
		t.Fatalf("revoke ran with %d in flight", n)
	}
}

func TestControllerRunLoop(t *testing.T) {
	// End-to-end Run on a real (unscaled-interval) clock with a feeder
	// goroutine supplying healthy traffic: the ramp must reach promoted.
	s := NewSplitter("m")
	c, err := NewController(Config{
		Splitter:     s,
		Canary:       "m@v2",
		Steps:        []int{10, 50, 100},
		StepInterval: 5 * time.Millisecond,
		MinSamples:   1,
		SLO:          SLO{MaxErrorRate: 0.5},
		Clock:        vclock.System,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopFeed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopFeed:
				return
			default:
				s.Observe("m", time.Millisecond, false)
				s.Observe("m@v2", time.Millisecond, false)
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	stop := make(chan struct{})
	st := c.Run(stop)
	close(stopFeed)
	wg.Wait()
	if st.Phase != PhasePromoted {
		t.Fatalf("run ended in phase %v", st.Phase)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed after Run returned")
	}
}

func TestNewControllerValidation(t *testing.T) {
	s := NewSplitter("m")
	if _, err := NewController(Config{Canary: "m@v2"}); err == nil {
		t.Fatal("missing splitter accepted")
	}
	if _, err := NewController(Config{Splitter: s}); err == nil {
		t.Fatal("missing canary accepted")
	}
	if _, err := NewController(Config{Splitter: s, Canary: "c", Steps: []int{5, 5}}); err == nil {
		t.Fatal("non-increasing steps accepted")
	}
	if _, err := NewController(Config{Splitter: s, Canary: "c", Steps: []int{0}}); err == nil {
		t.Fatal("zero step accepted")
	}
}
