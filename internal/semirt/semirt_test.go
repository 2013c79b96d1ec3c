package semirt

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"sesemi/internal/attest"
	"sesemi/internal/costmodel"
	"sesemi/internal/enclave"
	"sesemi/internal/inference"
	_ "sesemi/internal/inference/tinytflm"
	_ "sesemi/internal/inference/tinytvm"
	"sesemi/internal/keyservice"
	"sesemi/internal/model"
	"sesemi/internal/obs"
	"sesemi/internal/secure"
	"sesemi/internal/storage"
	"sesemi/internal/tensor"
	"sesemi/internal/vclock"
)

// testWorld is a complete single-node SeSeMI deployment: CA, KeyService,
// storage, one platform, and registered owner/user principals.
type testWorld struct {
	t      testing.TB
	ca     *attest.CA
	ksAddr string
	ksMeas attest.Measurement
	store  *storage.Memory
	plat   *enclave.Platform
	clock  *vclock.Manual

	ownerKey, userKey secure.Key
	owner, user       *keyservice.Client

	modelKeys map[string]secure.Key // modelID -> K_M
	reqKeys   map[string]secure.Key // modelID -> K_R (this user)
}

func newWorld(t testing.TB) *testWorld {
	t.Helper()
	w := &testWorld{t: t, clock: vclock.NewManual(), modelKeys: map[string]secure.Key{}, reqKeys: map[string]secure.Key{}}
	var err error
	w.ca, err = attest.NewCA()
	if err != nil {
		t.Fatal(err)
	}

	// KeyService node.
	ksKey, err := w.ca.Provision("ks-node")
	if err != nil {
		t.Fatal(err)
	}
	ksPlat := enclave.NewPlatform(costmodel.SGX2, vclock.Real{Scale: 0}, ksKey)
	svc := keyservice.NewService()
	ksEnc, err := ksPlat.Launch(keyservice.ManifestFor(keyservice.DefaultTCS), svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ksEnc.Destroy)
	w.ksMeas = ksEnc.Measurement()
	srv, err := keyservice.NewServer(svc, w.ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	w.ksAddr = ln.Addr().String()

	// Worker node platform and storage.
	nodeKey, err := w.ca.Provision("worker-node")
	if err != nil {
		t.Fatal(err)
	}
	w.plat = enclave.NewPlatform(costmodel.SGX2, w.clock, nodeKey)
	w.store = storage.NewMemory(w.clock, nil)

	// Principals.
	w.ownerKey = secure.KeyFromSeed("owner")
	w.userKey = secure.KeyFromSeed("user")
	dial := keyservice.TCPDialer(w.ksAddr)
	w.owner = keyservice.NewClient(dial, w.ca.PublicKey(), w.ksMeas, w.ownerKey)
	w.user = keyservice.NewClient(dial, w.ca.PublicKey(), w.ksMeas, w.userKey)
	t.Cleanup(func() { w.owner.Close(); w.user.Close() })
	if err := w.owner.Register(); err != nil {
		t.Fatal(err)
	}
	if err := w.user.Register(); err != nil {
		t.Fatal(err)
	}
	return w
}

// deployModel encrypts and uploads a functional model and sets up keys and
// grants for the given enclave measurement.
func (w *testWorld) deployModel(modelID string, es attest.Measurement) {
	w.t.Helper()
	m, err := model.NewFunctional(strings.Split(modelID, "-")[0])
	if err != nil {
		w.t.Fatal(err)
	}
	m.Name = modelID
	data, err := model.Marshal(m)
	if err != nil {
		w.t.Fatal(err)
	}
	km := secure.KeyFromSeed("km-" + modelID)
	kr := secure.KeyFromSeed("kr-" + modelID)
	w.modelKeys[modelID] = km
	w.reqKeys[modelID] = kr
	ct, err := EncryptModel(km, modelID, data)
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.store.Put(ModelBlobName(modelID), ct); err != nil {
		w.t.Fatal(err)
	}
	if err := w.owner.AddModelKey(modelID, km); err != nil {
		w.t.Fatal(err)
	}
	if err := w.owner.GrantAccess(modelID, es, w.user.ID()); err != nil {
		w.t.Fatal(err)
	}
	if err := w.user.AddReqKey(modelID, es, kr); err != nil {
		w.t.Fatal(err)
	}
}

// extraUser is an additional registered user principal with its own
// per-model request keys (multi-user key-locality tests).
type extraUser struct {
	client  *keyservice.Client
	id      secure.ID
	reqKeys map[string]secure.Key // modelID -> K_R
}

// newUser registers another user principal.
func (w *testWorld) newUser(seed string) *extraUser {
	w.t.Helper()
	c := keyservice.NewClient(keyservice.TCPDialer(w.ksAddr), w.ca.PublicKey(), w.ksMeas,
		secure.KeyFromSeed(seed))
	w.t.Cleanup(func() { c.Close() })
	if err := c.Register(); err != nil {
		w.t.Fatal(err)
	}
	return &extraUser{client: c, id: c.ID(), reqKeys: map[string]secure.Key{}}
}

// grantUser authorizes the user on an already-deployed model under its own
// request key.
func (w *testWorld) grantUser(u *extraUser, modelID string, es attest.Measurement) {
	w.t.Helper()
	if err := w.owner.GrantAccess(modelID, es, u.id); err != nil {
		w.t.Fatal(err)
	}
	kr := secure.KeyFromSeed("kr-" + modelID + "-" + string(u.id))
	if err := u.client.AddReqKey(modelID, es, kr); err != nil {
		w.t.Fatal(err)
	}
	u.reqKeys[modelID] = kr
}

// requestAs builds an encrypted request for the model under the user's key.
func (w *testWorld) requestAs(u *extraUser, modelID string, seed int) Request {
	w.t.Helper()
	base, err := model.NewFunctional(strings.Split(modelID, "-")[0])
	if err != nil {
		w.t.Fatal(err)
	}
	in := tensor.New(base.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32((i+seed)%17) * 0.05
	}
	payload, err := EncryptRequest(u.reqKeys[modelID], modelID, inference.EncodeTensor(in))
	if err != nil {
		w.t.Fatal(err)
	}
	return Request{UserID: u.id, ModelID: modelID, Payload: payload}
}

// decodeAs opens a response with the user's own request key — failure means
// the enclave sealed the result under some other principal's keys.
func (w *testWorld) decodeAs(u *extraUser, modelID string, resp Response) (*tensor.Tensor, error) {
	plain, err := DecryptResponse(u.reqKeys[modelID], modelID, resp.Payload)
	if err != nil {
		return nil, err
	}
	return inference.DecodeTensor(plain)
}

func (w *testWorld) deps() Deps {
	return Deps{
		Platform:    w.plat,
		Store:       w.store,
		KSDialer:    keyservice.TCPDialer(w.ksAddr),
		CAPublicKey: w.ca.PublicKey(),
		ExpectEK:    w.ksMeas,
	}
}

// requestFor builds an encrypted request for the model's input shape.
func (w *testWorld) requestFor(modelID string, seed int) Request {
	w.t.Helper()
	base, err := model.NewFunctional(strings.Split(modelID, "-")[0])
	if err != nil {
		w.t.Fatal(err)
	}
	in := tensor.New(base.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32((i+seed)%17) * 0.05
	}
	payload, err := EncryptRequest(w.reqKeys[modelID], modelID, inference.EncodeTensor(in))
	if err != nil {
		w.t.Fatal(err)
	}
	return Request{UserID: w.user.ID(), ModelID: modelID, Payload: payload}
}

func (w *testWorld) decode(modelID string, resp Response) *tensor.Tensor {
	w.t.Helper()
	plain, err := DecryptResponse(w.reqKeys[modelID], modelID, resp.Payload)
	if err != nil {
		w.t.Fatal(err)
	}
	out, err := inference.DecodeTensor(plain)
	if err != nil {
		w.t.Fatal(err)
	}
	return out
}

func mustConfig(t testing.TB, fw, modelID string, conc int) Config {
	t.Helper()
	cfg, err := DefaultConfig(fw, strings.Split(modelID, "-")[0], conc)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestColdWarmHotClassification(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 2)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	w.deployModel("dsnet", rt.Measurement())

	r1, err := rt.Handle(w.requestFor("mbnet", 1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != Cold {
		t.Fatalf("first invocation %v, want cold", r1.Kind)
	}
	r2, err := rt.Handle(w.requestFor("mbnet", 2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Kind != Hot {
		t.Fatalf("second invocation %v, want hot", r2.Kind)
	}
	r3, err := rt.Handle(w.requestFor("dsnet", 3))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Kind != Warm {
		t.Fatalf("model switch %v, want warm", r3.Kind)
	}
	if rt.LoadedModel() != "dsnet" {
		t.Fatalf("loaded model %q", rt.LoadedModel())
	}
	st := rt.Stats()
	if st.Cold != 1 || st.Warm != 1 || st.Hot != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestModelLoadsCountsSwaps: ModelLoads counts every model installed into
// the enclave — the cold load and each swap — but not hot requests, and not
// a new user's key fetch on the already-loaded model (which Warm lumps in).
func TestModelLoadsCountsSwaps(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 2)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	w.deployModel("dsnet", rt.Measurement())
	u := w.newUser("model-loads-user")
	w.grantUser(u, "mbnet", rt.Measurement())

	steps := []struct {
		req   Request
		loads uint64
	}{
		{w.requestFor("mbnet", 1), 1},   // cold load
		{w.requestFor("mbnet", 2), 1},   // hot
		{w.requestFor("dsnet", 3), 2},   // swap
		{w.requestFor("dsnet", 4), 2},   // hot
		{w.requestFor("mbnet", 5), 3},   // swap back
		{w.requestAs(u, "mbnet", 6), 3}, // key fetch only
	}
	for i, s := range steps {
		if _, err := rt.Handle(s.req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := rt.Stats().ModelLoads; got != s.loads {
			t.Fatalf("step %d: ModelLoads = %d, want %d", i, got, s.loads)
		}
	}
	if st := rt.Stats(); st.Warm != 3 {
		t.Fatalf("Warm = %d, want 3 (two swaps + one key fetch)", st.Warm)
	}

	reg := obs.NewRegistry()
	rt.RegisterMetrics(reg, nil)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sesemi_semirt_model_loads_total 3") {
		t.Fatalf("exposition lacks the model-load counter:\n%s", buf.String())
	}
}

func TestOutputMatchesDirectInference(t *testing.T) {
	w := newWorld(t)
	for _, fwName := range []string{"tvm", "tflm"} {
		cfg := mustConfig(t, fwName, "mbnet", 1)
		rt, err := New(cfg, w.deps())
		if err != nil {
			t.Fatal(err)
		}
		w.deployModel("mbnet", rt.Measurement())
		resp, err := rt.Handle(w.requestFor("mbnet", 5))
		if err != nil {
			t.Fatal(err)
		}
		got := w.decode("mbnet", resp)

		// Compute the expectation directly, outside any enclave.
		fw, err := inference.Lookup(fwName)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.NewFunctional("mbnet")
		if err != nil {
			t.Fatal(err)
		}
		m.Name = "mbnet"
		data, err := model.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := fw.ModelLoad(data)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := fw.RuntimeInit(lm)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(m.InputShape...)
		for i := range in.Data() {
			in.Data()[i] = float32((i+5)%17) * 0.05
		}
		if err := dr.Exec(in); err != nil {
			t.Fatal(err)
		}
		want, err := dr.Output()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("%s: enclave output differs at %d", fwName, i)
			}
		}
		rt.Stop()
	}
}

func TestUnauthorizedUserDenied(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())

	// A stranger with their own request key but no grant.
	strangerKey := secure.KeyFromSeed("stranger")
	dial := keyservice.TCPDialer(w.ksAddr)
	stranger := keyservice.NewClient(dial, w.ca.PublicKey(), w.ksMeas, strangerKey)
	defer stranger.Close()
	if err := stranger.Register(); err != nil {
		t.Fatal(err)
	}
	kr := secure.KeyFromSeed("stranger-kr")
	if err := stranger.AddReqKey("mbnet", rt.Measurement(), kr); err != nil {
		t.Fatal(err)
	}
	payload, err := EncryptRequest(kr, "mbnet", inference.EncodeTensor(tensor.New(1, 16, 16, 3)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Handle(Request{UserID: stranger.ID(), ModelID: "mbnet", Payload: payload})
	if err == nil || !strings.Contains(err.Error(), "not authorized") {
		t.Fatalf("stranger served: %v", err)
	}
}

func TestWrongConfigurationEnclaveDenied(t *testing.T) {
	// The grant pins ES for concurrency 2; an enclave built with
	// concurrency 1 has a different measurement and must be refused keys.
	w := newWorld(t)
	granted := mustConfig(t, "tvm", "mbnet", 2)
	w.deployModel("mbnet", granted.Manifest().Measure())

	other := mustConfig(t, "tvm", "mbnet", 1)
	rt, err := New(other, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.Handle(w.requestFor("mbnet", 1)); err == nil {
		t.Fatal("differently-configured enclave obtained keys")
	}
}

func TestTamperedModelRejected(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tflm", "dsnet", 1)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("dsnet", rt.Measurement())
	ct, err := w.store.Get(ModelBlobName("dsnet"))
	if err != nil {
		t.Fatal(err)
	}
	ct[len(ct)/2] ^= 1
	if err := w.store.Put(ModelBlobName("dsnet"), ct); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Handle(w.requestFor("dsnet", 1)); err == nil {
		t.Fatal("tampered model accepted")
	}
}

func TestTamperedRequestRejected(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	req := w.requestFor("mbnet", 1)
	req.Payload[len(req.Payload)-1] ^= 1
	if _, err := rt.Handle(req); err == nil {
		t.Fatal("tampered request accepted")
	}
}

func TestFixedModelPinning(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	cfg.FixedModel = "mbnet"
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	w.deployModel("dsnet", rt.Measurement())
	if _, err := rt.Handle(w.requestFor("mbnet", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Handle(w.requestFor("dsnet", 1)); err == nil {
		t.Fatal("pinned enclave served another model")
	}
}

func TestStrongIsolationMode(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	cfg.Concurrency = 1
	cfg.Sequential = true
	cfg.DisableKeyCache = true
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	if _, err := rt.Handle(w.requestFor("mbnet", 1)); err != nil {
		t.Fatal(err)
	}
	// Subsequent requests refetch keys, so they are warm, never hot.
	for i := 0; i < 3; i++ {
		resp, err := rt.Handle(w.requestFor("mbnet", i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind == Hot {
			t.Fatal("strong isolation produced a hot invocation")
		}
	}
	st := rt.Stats()
	if st.Hot != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSequentialRequiresConcurrencyOne(t *testing.T) {
	cfg := Config{Framework: "tvm", Concurrency: 4, Sequential: true, EnclaveMemoryBytes: 1 << 20}
	if err := cfg.Validate(); err == nil {
		t.Fatal("sequential with concurrency 4 accepted")
	}
}

func TestConcurrentHotRequests(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tflm", "mbnet", 4)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	if _, err := rt.Handle(w.requestFor("mbnet", 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := rt.Handle(w.requestFor("mbnet", i))
			if err != nil {
				errs <- err
				return
			}
			if resp.Kind != Hot {
				errs <- fmt.Errorf("request %d: kind %v", i, resp.Kind)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Hot != 32 {
		t.Fatalf("stats %+v, want 32 hot", st)
	}
}

func TestConcurrentModelSwitching(t *testing.T) {
	// Interleaved requests for two models must all succeed and decrypt
	// correctly: the swap lock may thrash, but never corrupt state.
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "rsnet", 2)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	w.deployModel("dsnet", rt.Measurement())
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		modelID := "mbnet"
		if i%2 == 1 {
			modelID = "dsnet"
		}
		wg.Add(1)
		go func(modelID string, i int) {
			defer wg.Done()
			resp, err := rt.Handle(w.requestFor(modelID, i))
			if err != nil {
				errs <- fmt.Errorf("%s/%d: %w", modelID, i, err)
				return
			}
			out := w.decode(modelID, resp)
			var sum float64
			for _, v := range out.Data() {
				sum += float64(v)
			}
			if sum < 0.99 || sum > 1.01 {
				errs <- fmt.Errorf("%s/%d: output sum %v", modelID, i, sum)
			}
		}(modelID, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestModeledStagesCharged(t *testing.T) {
	w := newWorld(t)
	stages, err := costmodel.Stages(costmodel.SGX2, "tvm", "mbnet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	cfg.ModeledStages = &stages
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())

	before := w.clock.TotalSlept()
	if _, err := rt.Handle(w.requestFor("mbnet", 1)); err != nil {
		t.Fatal(err)
	}
	coldCharged := w.clock.TotalSlept() - before
	// Cold ≥ enclave init + cold key fetch + model load + runtime init +
	// exec (attestation adds a little more).
	if coldCharged < stages.ColdPath() {
		t.Fatalf("cold charged %v, want >= %v", coldCharged, stages.ColdPath())
	}

	before = w.clock.TotalSlept()
	if _, err := rt.Handle(w.requestFor("mbnet", 2)); err != nil {
		t.Fatal(err)
	}
	hotCharged := w.clock.TotalSlept() - before
	if hotCharged != stages.HotPath() {
		t.Fatalf("hot charged %v, want %v", hotCharged, stages.HotPath())
	}
	if coldCharged < 10*hotCharged {
		t.Fatalf("cold/hot ratio %v/%v too small", coldCharged, hotCharged)
	}
}

func TestEnclaveTooSmallForModel(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	cfg.EnclaveMemoryBytes = 4096 // absurdly small
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	if _, err := rt.Handle(w.requestFor("mbnet", 1)); err == nil {
		t.Fatal("model accepted into undersized enclave")
	}
}

func TestMissingModelBlob(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	w.deployModel("mbnet", rt.Measurement())
	// Grant exists, but the blob is gone.
	req := w.requestFor("mbnet", 1)
	req.ModelID = "mbnet"
	st := w.store
	// Overwrite blob name by deploying grant for a phantom model id.
	if err := w.owner.AddModelKey("phantom", secure.KeyFromSeed("pk")); err != nil {
		t.Fatal(err)
	}
	if err := w.owner.GrantAccess("phantom", rt.Measurement(), w.user.ID()); err != nil {
		t.Fatal(err)
	}
	if err := w.user.AddReqKey("phantom", rt.Measurement(), secure.KeyFromSeed("rk")); err != nil {
		t.Fatal(err)
	}
	w.reqKeys["phantom"] = secure.KeyFromSeed("rk")
	payload, err := EncryptRequest(w.reqKeys["phantom"], "phantom", inference.EncodeTensor(tensor.New(1, 16, 16, 3)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Handle(Request{UserID: w.user.ID(), ModelID: "phantom", Payload: payload})
	if !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("missing blob: %v", err)
	}
	_ = st
	// After the failed load, a valid model still works (no corrupt state).
	if _, err := rt.Handle(w.requestFor("mbnet", 2)); err != nil {
		t.Fatalf("recovery after failed load: %v", err)
	}
}

func TestStopIsFinal(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	w.deployModel("mbnet", rt.Measurement())
	if _, err := rt.Handle(w.requestFor("mbnet", 1)); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	if _, err := rt.Handle(w.requestFor("mbnet", 2)); err == nil {
		t.Fatal("stopped runtime served a request")
	}
	if w.plat.Enclaves() != 0 {
		t.Fatalf("enclave leaked: %d", w.plat.Enclaves())
	}
}

func TestRequestValidation(t *testing.T) {
	w := newWorld(t)
	cfg := mustConfig(t, "tvm", "mbnet", 1)
	rt, err := New(cfg, w.deps())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if _, err := rt.Handle(Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
}
