package semirt

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/enclave"
	"sesemi/internal/inference"
	"sesemi/internal/keyservice"
	"sesemi/internal/secure"
	"sesemi/internal/vclock"
)

// program is the trusted half of SeMIRT: the enclave program holding
// Algorithm 2's state. Its fields are only touched from within ECalls.
type program struct {
	cfg  Config
	fw   inference.Framework
	deps Deps
	enc  *enclave.Enclave

	// swapMu guards the loaded model: requests whose model is loaded run
	// under RLock (concurrently); switching the model takes the write lock,
	// i.e. happens "when not in use" (§IV-B). Keys are NOT under this lock
	// anymore — they live in the bounded LRU below and are copied out per
	// request, so a user flip never stalls the other TCS slots.
	swapMu  sync.RWMutex
	modelID string
	loaded  inference.LoadedModel

	// keys is the bounded LRU of provisioned ⟨Moid‖uid‖KeyService⟩ key
	// pairs (Config.KeyCacheSize entries; nil when DisableKeyCache). Misses
	// provision under a per-tag singleflight, so N concurrent requests for
	// one new principal cost one KeyService round trip.
	keys *keyCache

	// fetches counts KeyService Provision calls; wired to the runtime's
	// counter so Stats can report the key-fetch volume a cache saves.
	fetches *atomic.Uint64
	// loads counts successful model loads, wired to the runtime's counter
	// like fetches.
	loads *atomic.Uint64

	// sessMu guards the cached RA-TLS sessions, one per KeyService address
	// ("" is the deployment default). Caching per address lets one enclave
	// serve users homed on different KeyServices (§IV-D) while still
	// amortizing mutual attestation. The mutex covers session lookup and
	// establishment only; provisioning round trips run outside it (the
	// Session serializes its own wire protocol).
	sessMu   sync.Mutex
	sessions map[string]*keyservice.Session

	// brownoutUntil is the end of the current key-service brownout window
	// (Deps.KSBrownout): until then, fresh key fetches fail fast with
	// ErrKeyServiceUnavailable while cached principals keep being served.
	brownoutMu    sync.Mutex
	brownoutUntil time.Time

	// slots are the thread-local execution contexts, one per TCS.
	slots chan *rtSlot

	// seqMu serializes requests in strong-isolation mode.
	seqMu sync.Mutex
}

// rtSlot is one thread's context: its model runtime (model_rt in
// Algorithm 2) survives across hot invocations of the same model.
type rtSlot struct {
	modelID string
	rt      inference.Runtime
}

type invocationDetail struct {
	loadedModel bool
	fetchedKeys bool
	// keyFetchDur is the KeyService provisioning round-trip time when this
	// request performed one (fetchedKeys) — the key_fetch stage of a trace.
	// Zero for cache hits and singleflight waiters.
	keyFetchDur time.Duration
}

func newProgram(cfg Config, fw inference.Framework, deps Deps) *program {
	p := &program{cfg: cfg, fw: fw, deps: deps, sessions: map[string]*keyservice.Session{},
		fetches: &atomic.Uint64{}, loads: &atomic.Uint64{}}
	if size := cfg.EffectiveKeyCacheSize(); size > 0 {
		p.keys = newKeyCache(size)
	}
	p.slots = make(chan *rtSlot, cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		p.slots <- &rtSlot{}
	}
	return p
}

// Init implements enclave.Program.
func (p *program) Init(e *enclave.Enclave) error {
	p.enc = e
	return nil
}

func (p *program) loadedModelID() string {
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	return p.modelID
}

// cacheID builds the ⟨Moid‖uid‖KeyService⟩ key-cache tag; the KeyService
// address participates so a user homed on a different KeyService never hits
// another principal's cached keys.
func cacheID(modelID string, uid secure.ID, ksAddr string) string {
	return modelID + "\x1f" + string(uid) + "\x1f" + ksAddr
}

// modelInf is EC_MODEL_INF (Algorithm 2). It runs on a TCS (the caller is
// inside ECall).
func (p *program) modelInf(req Request) ([]byte, invocationDetail, error) {
	var detail invocationDetail
	if p.cfg.FixedModel != "" && req.ModelID != p.cfg.FixedModel {
		return nil, detail, fmt.Errorf("semirt: enclave pinned to model %q, got %q", p.cfg.FixedModel, req.ModelID)
	}
	if req.ModelID == "" || req.UserID == "" {
		return nil, detail, errors.New("semirt: request missing model or user id")
	}
	if p.cfg.Sequential {
		p.seqMu.Lock()
		defer p.seqMu.Unlock()
	}

	// Key provisioning (lines 6-8): resolve the request's key pair into
	// request-local copies — from the LRU (per-shard read path, singleflight
	// misses), or straight from the KeyService when the cache is disabled.
	// An entry evicted after this point cannot affect the request: it
	// executes with its own copies.
	km, kr, err := p.obtainKeys(req, &detail)
	if err != nil {
		return nil, detail, err
	}

	// Acquire the loaded model in read mode, switching under the write lock
	// when the request's model is not the resident one (lines 11-13).
	for {
		p.swapMu.RLock()
		if p.modelID == req.ModelID && p.loaded != nil {
			break
		}
		p.swapMu.RUnlock()
		if err := p.switchModel(req.ModelID, km, &detail); err != nil {
			return nil, detail, err
		}
	}
	sealed, err := p.execLocked(req, kr)
	p.swapMu.RUnlock()
	return sealed, detail, err
}

// obtainKeys resolves (K_M, K_R) for the request. detail.fetchedKeys is set
// only when this request performed a KeyService round trip — singleflight
// waiters and cache hits report false, preserving the historical hot/warm
// classification.
func (p *program) obtainKeys(req Request, detail *invocationDetail) (secure.Key, secure.Key, error) {
	if p.keys == nil {
		// Strong isolation: provision afresh into request-local keys. The
		// shared state is never touched, so two concurrent users cannot
		// thrash each other (the pre-LRU code ping-ponged a shared pair
		// under a retry loop here).
		t0 := p.enc.Clock().Now()
		km, kr, err := p.provision(req.UserID, req.ModelID, req.KeyService)
		if err != nil {
			return secure.Key{}, secure.Key{}, err
		}
		detail.fetchedKeys = true
		detail.keyFetchDur = p.enc.Clock().Now().Sub(t0)
		p.fetches.Add(1)
		return km, kr, nil
	}
	tag := cacheID(req.ModelID, req.UserID, req.KeyService)
	var fetchDur time.Duration
	km, kr, fetched, err := p.keys.get(tag, func() (secure.Key, secure.Key, error) {
		t0 := p.enc.Clock().Now()
		km, kr, err := p.provision(req.UserID, req.ModelID, req.KeyService)
		fetchDur = p.enc.Clock().Now().Sub(t0)
		return km, kr, err
	})
	if err != nil {
		return secure.Key{}, secure.Key{}, err
	}
	if fetched {
		detail.fetchedKeys = true
		detail.keyFetchDur = fetchDur
		p.fetches.Add(1)
	}
	return km, kr, nil
}

// execLocked runs the execution stages of EC_MODEL_INF with swapMu
// read-held, so the model cannot be swapped underneath it. kr is the
// request's own key copy.
func (p *program) execLocked(req Request, kr secure.Key) ([]byte, error) {
	// Thread-local runtime (lines 14-15).
	slot := <-p.slots
	defer func() { p.slots <- slot }()
	if slot.rt == nil || slot.modelID != p.modelID {
		if p.cfg.ModeledStages != nil {
			p.enc.Clock().Sleep(p.cfg.ModeledStages.RuntimeInit)
		}
		rt, err := p.fw.RuntimeInit(p.loaded)
		if err != nil {
			return nil, fmt.Errorf("semirt: runtime init: %w", err)
		}
		slot.rt = rt
		slot.modelID = p.modelID
	}

	// Request decryption (line 16).
	plain, err := secure.Open(kr, secure.PurposeRequest, req.ModelID, req.Payload)
	if err != nil {
		// Deterministic: the same ciphertext will never decrypt on a retry.
		return nil, fmt.Errorf("%w: request decrypt: %v", ErrBadRequest, err)
	}

	// MODEL_EXEC (line 17); the modeled execution cost scales with the
	// platform's EPC paging factor. A request is ExecSteps scheduler steps
	// long and charges every step it has not yet executed: form-then-fire
	// paths run all remaining steps here in one go, while a continuous
	// session (HandleStep) pre-pays intermediate steps frame by frame and
	// arrives with StepsDone == ExecSteps-1, so both disciplines charge the
	// same total.
	if p.cfg.ModeledStages != nil {
		steps := req.ExecSteps - req.StepsDone
		if steps < 1 {
			steps = 1
		}
		p.enc.ChargeExec(time.Duration(steps) * p.cfg.ModeledStages.ModelExec)
	}
	if err := inference.ModelExec(slot.rt, plain); err != nil {
		return nil, fmt.Errorf("semirt: exec: %w", err)
	}

	// PREPARE_OUTPUT + result encryption (lines 18-19).
	out, err := inference.PrepareOutput(slot.rt)
	if err != nil {
		return nil, err
	}
	if p.cfg.RoundOutputDigits > 0 {
		if out, err = roundOutput(out, p.cfg.RoundOutputDigits); err != nil {
			return nil, err
		}
	}
	if p.cfg.ModeledStages != nil {
		p.enc.Clock().Sleep(p.cfg.ModeledStages.RequestCrypto)
	}
	sealed, err := secure.Seal(kr, secure.PurposeResponse, req.ModelID, out)
	if err != nil {
		return nil, err
	}

	// Strong isolation: return the enclave to a model-only state (§V).
	if p.cfg.Sequential {
		slot.rt = nil
		slot.modelID = ""
	}
	return sealed, nil
}

// switchModel takes the write lock and installs the target model (Algorithm
// 2 lines 11-13) using the request's model key. On return the model may
// match (the caller re-checks under RLock).
func (p *program) switchModel(modelID string, km secure.Key, detail *invocationDetail) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	if p.modelID == modelID && p.loaded != nil {
		return nil
	}
	if err := p.loadModel(modelID, km); err != nil {
		// A failed load leaves no model installed.
		p.modelID = ""
		p.loaded = nil
		return err
	}
	detail.loadedModel = true
	return nil
}

// provision resolves (K_M, K_R) with the key-service fault policy wrapped
// around the actual round trip (provisionOnce): a failure is retried
// Deps.KSRetries times with exponential backoff on the fault clock; when
// the budget is exhausted the program enters brownout (Deps.KSBrownout) —
// subsequent fresh fetches fail fast with ErrKeyServiceUnavailable until the
// window passes, while cached principals are untouched (their requests never
// reach provision). With neither knob set this is exactly the historical
// single-attempt call.
func (p *program) provision(uid secure.ID, modelID, ksAddr string) (secure.Key, secure.Key, error) {
	if p.inBrownout() {
		return secure.Key{}, secure.Key{}, ErrKeyServiceUnavailable
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		km, kr, err := p.provisionOnce(uid, modelID, ksAddr)
		if err == nil {
			return km, kr, nil
		}
		lastErr = err
		if attempt >= p.deps.KSRetries {
			break
		}
		p.faultClock().Sleep(p.ksBackoff(attempt))
	}
	p.enterBrownout()
	return secure.Key{}, secure.Key{}, lastErr
}

func (p *program) ksBackoff(attempt int) time.Duration {
	base := p.deps.KSRetryBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt > 6 {
		attempt = 6 // cap the exponent: 64x base
	}
	return base << attempt
}

// faultClock is the clock recovery waits run on: the fault plane's when one
// is installed (the clock its outage windows are measured on — a backoff can
// only ride out an outage if both advance together), the enclave's
// otherwise. The enclave clock may be muted (Scale 0), which would make
// retry backoff and brownout expiry instant against a real-time outage.
func (p *program) faultClock() vclock.Clock {
	if p.deps.Faults != nil {
		return p.deps.Faults.Clock()
	}
	return p.enc.Clock()
}

func (p *program) inBrownout() bool {
	if p.deps.KSBrownout <= 0 {
		return false
	}
	p.brownoutMu.Lock()
	defer p.brownoutMu.Unlock()
	return p.faultClock().Now().Before(p.brownoutUntil)
}

func (p *program) enterBrownout() {
	if p.deps.KSBrownout <= 0 {
		return
	}
	p.brownoutMu.Lock()
	defer p.brownoutMu.Unlock()
	p.brownoutUntil = p.faultClock().Now().Add(p.deps.KSBrownout)
}

// provisionOnce retrieves (K_M, K_R) from the KeyService at ksAddr ("" = the
// deployment default) over a cached mutually attested session, establishing
// it on first use (the expensive cold key fetch of Figures 8 and 17). Only
// session lookup/establishment holds sessMu; the provisioning round trip
// itself runs outside it, so misses for different principals overlap (the
// Session serializes its own wire exchanges).
func (p *program) provisionOnce(uid secure.ID, modelID, ksAddr string) (secure.Key, secure.Key, error) {
	if p.deps.Faults.KeyServiceDown() {
		return secure.Key{}, secure.Key{}, fmt.Errorf("%w: injected outage", ErrKeyServiceUnavailable)
	}
	sess, fresh, err := p.session(ksAddr)
	if err != nil {
		return secure.Key{}, secure.Key{}, err
	}
	if p.cfg.ModeledStages != nil {
		if fresh {
			p.enc.Clock().Sleep(p.cfg.ModeledStages.KeyFetchCold)
		} else {
			p.enc.Clock().Sleep(p.cfg.ModeledStages.KeyFetchWarm)
		}
	}
	km, kr, err := sess.Provision(uid, modelID)
	if err != nil {
		// Drop a broken session so the next request re-attests.
		p.sessMu.Lock()
		if p.sessions[ksAddr] == sess {
			delete(p.sessions, ksAddr)
		}
		p.sessMu.Unlock()
		sess.Close()
		return secure.Key{}, secure.Key{}, err
	}
	return km, kr, nil
}

// session returns the cached RA-TLS session for ksAddr, attesting a fresh
// one on first use. fresh reports whether this call performed the mutual
// attestation (the cold portion of the key-fetch cost).
func (p *program) session(ksAddr string) (*keyservice.Session, bool, error) {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	if sess := p.sessions[ksAddr]; sess != nil {
		return sess, false, nil
	}
	dial := p.deps.KSDialer
	if ksAddr != "" {
		dial = keyservice.TCPDialer(ksAddr)
	}
	ec := keyservice.NewEnclaveClient(dial, p.deps.CAPublicKey, p.deps.ExpectEK, p.enc)
	sess, err := ec.Connect()
	if err != nil {
		return nil, false, fmt.Errorf("semirt: keyservice attestation: %w", err)
	}
	p.sessions[ksAddr] = sess
	return sess, true, nil
}

// loadModel performs OC_LOAD_MODEL (fetch ciphertext into untrusted memory)
// followed by in-enclave decryption and MODEL_LOAD. Called with swapMu
// write-held; km is the requesting principal's model key.
func (p *program) loadModel(modelID string, km secure.Key) error {
	if p.cfg.ModeledStages != nil {
		p.enc.Clock().Sleep(p.cfg.ModeledStages.ModelLoad)
	}
	ciphertext, err := p.deps.Store.Get(ModelBlobName(modelID))
	if err != nil {
		return fmt.Errorf("semirt: model fetch: %w", err)
	}
	// The encrypted copy plus the decrypted model must fit the configured
	// enclave size (Appendix D's memory overhead of TEE protection).
	if need := int64(2 * len(ciphertext)); need > p.cfg.EnclaveMemoryBytes {
		return fmt.Errorf("semirt: model %q needs %d bytes, enclave configured with %d",
			modelID, need, p.cfg.EnclaveMemoryBytes)
	}
	plain, err := secure.Open(km, secure.PurposeModel, modelID, ciphertext)
	if err != nil {
		return fmt.Errorf("semirt: model decrypt: %w", err)
	}
	loaded, err := p.fw.ModelLoad(plain)
	if err != nil {
		return fmt.Errorf("semirt: model deserialize: %w", err)
	}
	p.modelID = modelID
	p.loaded = loaded
	p.loads.Add(1)
	// Invalidate thread-local runtimes built for the previous model: they
	// are rebuilt lazily per slot (slot.modelID no longer matches).
	return nil
}

func (p *program) close() {
	p.sessMu.Lock()
	for addr, sess := range p.sessions {
		sess.Close()
		delete(p.sessions, addr)
	}
	p.sessMu.Unlock()
}

// roundOutput quantizes the output tensor to the configured number of
// decimal digits (§IV-D's confidence-rounding mitigation).
func roundOutput(payload []byte, digits int) ([]byte, error) {
	t, err := inference.DecodeTensor(payload)
	if err != nil {
		return nil, err
	}
	scale := math.Pow(10, float64(digits))
	for i, v := range t.Data() {
		t.Data()[i] = float32(math.Round(float64(v)*scale) / scale)
	}
	return inference.EncodeTensor(t), nil
}

// EncryptModel is the model owner's helper: it seals serialized model bytes
// under K_M for upload (workflow step 2 in §III).
func EncryptModel(km secure.Key, modelID string, modelBytes []byte) ([]byte, error) {
	return secure.Seal(km, secure.PurposeModel, modelID, modelBytes)
}

// EncryptRequest seals a request payload under K_R.
func EncryptRequest(kr secure.Key, modelID string, tensorBytes []byte) ([]byte, error) {
	return secure.Seal(kr, secure.PurposeRequest, modelID, tensorBytes)
}

// DecryptResponse opens a response payload with K_R.
func DecryptResponse(kr secure.Key, modelID string, sealed []byte) ([]byte, error) {
	return secure.Open(kr, secure.PurposeResponse, modelID, sealed)
}
