package gateway

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
)

// affinityRecorder records, for every activation, the placement affinity
// its context carried next to the models of the batch it shipped.
type affinityRecorder struct {
	mu       sync.Mutex
	mismatch []string
	calls    int
}

func (a *affinityRecorder) note(ctx context.Context, payload []byte) ([]byte, error) {
	key := serverless.AffinityFrom(ctx)
	return echoBatch(payload, func(batch []semirt.Request) {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.calls++
		for _, r := range batch {
			if r.ModelID != key {
				a.mismatch = append(a.mismatch, fmt.Sprintf("member of %q dispatched with affinity %q", r.ModelID, key))
			}
		}
	})
}

func (a *affinityRecorder) check(t *testing.T, wantCalls int) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.mismatch {
		t.Error(m)
	}
	if a.calls < wantCalls {
		t.Fatalf("%d activations recorded, want at least %d", a.calls, wantCalls)
	}
}

// plainAffinityBackend is a bare Invoker.
type plainAffinityBackend struct{ affinityRecorder }

func (p *plainAffinityBackend) Invoke(ctx context.Context, _ string, payload []byte) ([]byte, error) {
	return p.note(ctx, payload)
}

// routedAffinityBackend is a Router, so dispatch takes the hinted path.
type routedAffinityBackend struct {
	affinityRecorder
	*fakeRouter
}

func (r *routedAffinityBackend) InvokeOn(ctx context.Context, _, node string, payload []byte) ([]byte, string, error) {
	raw, err := r.note(ctx, payload)
	return raw, node, err
}

// TestDispatchCarriesModelAffinity: every batch reaches the backend with
// serverless.AffinityFrom(ctx) equal to its queue's model, on the plain and
// the affinity-routed dispatch path alike.
func TestDispatchCarriesModelAffinity(t *testing.T) {
	plain := &plainAffinityBackend{}
	routed := &routedAffinityBackend{fakeRouter: newFakeRouter("n0", "n1")}
	backends := []struct {
		name   string
		inv    Invoker
		rec    *affinityRecorder
		routed bool
	}{
		{"plain", plain, &plain.affinityRecorder, false},
		{"routed", routed, &routed.affinityRecorder, true},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := New(Config{MaxBatch: 4, MaxWait: time.Millisecond, Affinity: b.routed}, b.inv)
			defer g.Close()
			models := []string{"m0", "m1", "m2"}
			var wg sync.WaitGroup
			for i := 0; i < 24; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					model := models[i%len(models)]
					if _, err := g.Do(context.Background(), "fn", semirt.Request{ModelID: model, Payload: []byte{byte(i)}}); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			b.rec.check(t, len(models))
		})
	}
}

// affinitySessionBackend records the affinity each continuous session was
// opened with.
type affinitySessionBackend struct {
	*fakeSessionBackend
	mu     sync.Mutex
	opened []string
}

func (a *affinitySessionBackend) OpenSession(ctx context.Context, action, node string) (InvokeSession, error) {
	a.mu.Lock()
	a.opened = append(a.opened, serverless.AffinityFrom(ctx))
	a.mu.Unlock()
	return a.fakeSessionBackend.OpenSession(ctx, action, node)
}

// TestSessionCarriesModelAffinity: a continuous session is opened with its
// queue's model as the placement affinity.
func TestSessionCarriesModelAffinity(t *testing.T) {
	b := &affinitySessionBackend{fakeSessionBackend: newFakeSessionBackend()}
	g := New(Config{MaxBatch: 2, MaxWait: time.Millisecond, Continuous: true}, b)
	defer g.Close()
	for _, model := range []string{"m0", "m1"} {
		if _, err := g.Do(context.Background(), "fn",
			semirt.Request{UserID: "u", ModelID: model, Payload: []byte(model), ExecSteps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.opened) != 2 || b.opened[0] != "m0" || b.opened[1] != "m1" {
		t.Fatalf("sessions opened with affinities %q, want [m0 m1]", b.opened)
	}
}
