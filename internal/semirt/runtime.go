package semirt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/enclave"
	"sesemi/internal/faults"
	"sesemi/internal/inference"
	"sesemi/internal/keyservice"
	"sesemi/internal/obs"
	"sesemi/internal/secure"
	"sesemi/internal/storage"
	"sesemi/internal/vclock"
)

// Fault-tolerance sentinels. Both survive the activation wire (wireError).
var (
	// ErrKeyServiceUnavailable reports that key provisioning is in brownout:
	// a recent provisioning failure exhausted its retries, so requests that
	// need a NEW key fetch are shed fast for the Deps.KSBrownout window while
	// requests whose keys are already cached keep being served
	// (shed-new-admit, finish-resident).
	ErrKeyServiceUnavailable = errors.New("semirt: key service unavailable")
	// ErrSandboxCrash reports an injected sandbox crash mid-ECall
	// (Deps.Faults): the activation fails as a whole, exactly like a real
	// sandbox death under the caller, and the gateway's retry machinery is
	// expected to re-dispatch.
	ErrSandboxCrash = errors.New("semirt: sandbox crashed")
)

// InvocationKind classifies how a request was served (Figure 4).
type InvocationKind int

const (
	// Cold: the enclave was created for this request.
	Cold InvocationKind = iota
	// Warm: the enclave existed but the model had to be loaded.
	Warm
	// Hot: model and keys were already cached.
	Hot
)

func (k InvocationKind) String() string {
	switch k {
	case Cold:
		return "cold"
	case Warm:
		return "warm"
	default:
		return "hot"
	}
}

// Request is one encrypted inference request, as delivered by the serverless
// platform.
type Request struct {
	// UserID identifies the requesting model user.
	UserID secure.ID `json:"user_id"`
	// ModelID names the target model.
	ModelID string `json:"model_id"`
	// Payload is secure.Seal(K_R, PurposeRequest, ModelID, tensor bytes).
	Payload []byte `json:"payload"`
	// KeyService optionally overrides the deployment's KeyService address.
	// §IV-D: multiple KeyServices can be deployed to isolate keys from
	// different users, "which require users to specify the address of the
	// corresponding KeyService in their requests". All KeyServices run the
	// same code and are verified against the same identity E_K.
	KeyService string `json:"key_service,omitempty"`
	// Deadline, when non-zero, is the instant the answer stops being useful.
	// HandleBatch sheds a member whose deadline has lapsed — including
	// mid-batch, while earlier members executed — with ErrDeadline instead
	// of spending enclave time on a response nobody will read. The gateway
	// threads its envelope deadline through here, so shedding continues past
	// dispatch into the backend.
	Deadline time.Time `json:"deadline"`
	// ExecSteps is the request's execution length in scheduler steps (0 and
	// 1 both mean a single step). Continuous sessions (HandleStep) run one
	// step per member per frame, so a long request interleaves with short
	// ones instead of holding the enclave for its whole duration; form-then-
	// fire paths charge all remaining steps in one go, so both disciplines
	// pay the same total execution cost.
	ExecSteps int `json:"exec_steps,omitempty"`
	// StepsDone counts steps already executed in earlier sessions. A member
	// preempted at a step boundary is re-queued by the gateway with its
	// progress here, so resumption pays only the remaining steps.
	StepsDone int `json:"steps_done,omitempty"`
	// Trace asks the runtime to measure this activation's stage durations
	// (cold_start, key_fetch, ecall) and return them in the response
	// envelope, so a gateway-side trace stitches the backend hops in. The
	// gateway sets it only for head-sampled requests — unsampled traffic
	// pays zero timing overhead on the backend.
	Trace bool `json:"trace,omitempty"`
}

// Response is the encrypted inference result.
type Response struct {
	// Payload is secure.Seal(K_R, PurposeResponse, ModelID, tensor bytes).
	Payload []byte `json:"payload"`
	// Kind reports the invocation path taken.
	Kind InvocationKind `json:"kind"`
	// Stages holds the runtime-measured stage durations (cold_start,
	// key_fetch, ecall) when the request asked for them (Request.Trace).
	Stages []obs.StageDur `json:"stages,omitempty"`
}

// Deps are the untrusted-world dependencies of a SeMIRT instance.
type Deps struct {
	// Platform hosts the enclave.
	Platform *enclave.Platform
	// Store holds encrypted models under "models/<id>".
	Store storage.Store
	// KSDialer reaches the KeyService.
	KSDialer keyservice.Dialer
	// CAPublicKey verifies the KeyService quote.
	CAPublicKey []byte
	// ExpectEK is the KeyService measurement to pin.
	ExpectEK attest.Measurement
	// Faults is the optional fault-injection plane (nil — the default — is a
	// no-op): it drives injected sandbox crashes and key-service outage
	// checks for chaos benchmarks and tests. Deliberately a dependency, not
	// Config: it must never fold into the enclave measurement.
	Faults *faults.Injector
	// KSRetries is how many times a failed KeyService provisioning round
	// trip is retried — with exponential backoff on the enclave clock —
	// before the failure surfaces (default 0: fail on the first error, the
	// historical behaviour).
	KSRetries int
	// KSRetryBackoff is the base delay between provisioning retries,
	// doubling per attempt (default 1ms).
	KSRetryBackoff time.Duration
	// KSBrownout, when positive, is the degraded-mode window entered after
	// provisioning fails with retries exhausted: for that long, requests
	// needing a fresh key fetch fail fast with ErrKeyServiceUnavailable
	// (shed-new-admit) while requests whose keys are already in the LRU keep
	// being served (finish-resident). 0 disables the mode.
	KSBrownout time.Duration
}

// ModelBlobName returns the storage key for a model's encrypted bytes.
func ModelBlobName(modelID string) string { return "models/" + modelID + ".enc" }

// Stats counts served invocations by path.
type Stats struct {
	Cold, Warm, Hot uint64
	// KeyFetches counts KeyService Provision round trips — the cold-path
	// volume the key cache amortizes away (with the LRU warm, a steady
	// multi-user stream fetches once per principal; with the single-pair
	// cache it fetched once per user flip).
	KeyFetches uint64
	// ModelLoads counts successful model loads (fetch, decrypt,
	// deserialize), cold loads included. Warm lumps model swaps together
	// with key refetches; this separates the swaps out.
	ModelLoads uint64
	// SessionSteps counts continuous-session scheduling frames (one enclave
	// entry each) — the step-loop volume costmodel.SchedulingOverhead prices.
	SessionSteps uint64
	// Preempted counts members evicted at a step boundary with ErrPreempted.
	Preempted uint64
}

// Runtime is one SeMIRT serverless instance (the sandbox contents in
// Figure 6). It is safe for concurrent use; concurrency is bounded by the
// enclave TCS count.
type Runtime struct {
	cfg  Config
	deps Deps

	fw inference.Framework

	mu      sync.Mutex
	enc     *enclave.Enclave
	prog    *program
	stopped bool

	cold, warm, hot atomic.Uint64
	// keyFetches and modelLoads outlive the program (Stop nils it), so the
	// counters keep reporting after shutdown.
	keyFetches atomic.Uint64
	modelLoads atomic.Uint64
	// sessionSteps / preempted mirror Stats: continuous-session frames
	// executed and members preempted at step boundaries.
	sessionSteps atomic.Uint64
	preempted    atomic.Uint64

	// stepMu guards the live continuous sessions. Each session is driven by
	// exactly one gateway goroutine (frames arrive strictly sequentially),
	// so the lock only covers map access, never frame execution.
	stepMu       sync.Mutex
	stepSessions map[string]*stepSession
}

// New creates an instance; the enclave is not launched until Start or the
// first request (a cold invocation).
func New(cfg Config, deps Deps) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deps.Platform == nil || deps.Store == nil || deps.KSDialer == nil {
		return nil, errors.New("semirt: missing platform, store or KeyService dialer")
	}
	fw, err := inference.Lookup(cfg.Framework)
	if err != nil {
		return nil, err
	}
	return &Runtime{cfg: cfg, deps: deps, fw: fw}, nil
}

// Config returns the instance configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Measurement returns the enclave identity ES of this configuration.
func (r *Runtime) Measurement() attest.Measurement { return r.cfg.Manifest().Measure() }

// Started reports whether the enclave is live.
func (r *Runtime) Started() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enc != nil
}

// Start launches the enclave (idempotent). Separating Start from request
// handling lets the serverless platform pre-warm instances.
func (r *Runtime) Start() error {
	_, err := r.ensureEnclave()
	return err
}

func (r *Runtime) ensureEnclave() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false, errors.New("semirt: stopped")
	}
	if r.enc != nil {
		return false, nil
	}
	prog := newProgram(r.cfg, r.fw, r.deps)
	prog.fetches = &r.keyFetches
	prog.loads = &r.modelLoads
	enc, err := r.deps.Platform.Launch(r.cfg.Manifest(), prog)
	if err != nil {
		return false, fmt.Errorf("semirt: launch: %w", err)
	}
	r.enc = enc
	r.prog = prog
	return true, nil
}

// clock returns the platform clock the runtime's stage timings are taken on.
func (r *Runtime) clock() vclock.Clock { return r.deps.Platform.Clock() }

// Handle serves one request (the OpenWhisk action /run entry point). The
// calling goroutine plays the role of a libuv pool thread: it enters the
// enclave through one TCS for the duration of EC_MODEL_INF.
func (r *Runtime) Handle(req Request) (Response, error) {
	var clk vclock.Clock
	var t0 time.Time
	if req.Trace {
		clk = r.clock()
		t0 = clk.Now()
	}
	launched, err := r.ensureEnclave()
	if err != nil {
		return Response{}, err
	}
	var stages []obs.StageDur
	if req.Trace && launched {
		stages = append(stages, obs.StageDur{Stage: obs.StageColdStart, Dur: clk.Now().Sub(t0)})
	}
	if r.deps.Faults.SandboxCrash() {
		return Response{}, ErrSandboxCrash
	}
	r.mu.Lock()
	enc, prog := r.enc, r.prog
	r.mu.Unlock()

	var out []byte
	var path InvocationKind
	var detail invocationDetail
	var ec0 time.Time
	if req.Trace {
		ec0 = clk.Now()
	}
	err = enc.ECall(func() error {
		out, detail, err = prog.modelInf(req)
		if err != nil {
			return err
		}
		switch {
		case launched:
			path = Cold
		case detail.loadedModel || detail.fetchedKeys:
			// The paper's hot path requires both the same loaded model and
			// the same user's cached keys (§IV-B); anything else that reuses
			// the enclave is warm.
			path = Warm
		default:
			path = Hot
		}
		return nil
	})
	if err != nil {
		return Response{}, err
	}
	if req.Trace {
		if detail.keyFetchDur > 0 {
			stages = append(stages, obs.StageDur{Stage: obs.StageKeyFetch, Dur: detail.keyFetchDur})
		}
		stages = append(stages, obs.StageDur{Stage: obs.StageECall, Dur: clk.Now().Sub(ec0)})
	}
	switch path {
	case Cold:
		r.cold.Add(1)
	case Warm:
		r.warm.Add(1)
	default:
		r.hot.Add(1)
	}
	return Response{Payload: out, Kind: path, Stages: stages}, nil
}

// Stats returns the invocation counters.
func (r *Runtime) Stats() Stats {
	return Stats{Cold: r.cold.Load(), Warm: r.warm.Load(), Hot: r.hot.Load(),
		KeyFetches:   r.keyFetches.Load(),
		ModelLoads:   r.modelLoads.Load(),
		SessionSteps: r.sessionSteps.Load(),
		Preempted:    r.preempted.Load()}
}

// RegisterMetrics exports the runtime's counters as labeled series on the
// unified registry — the Stats() adapter of the observability plane. The
// registrations are scrape-time reads over the existing atomics, so the
// serving path pays nothing.
func (r *Runtime) RegisterMetrics(reg *obs.Registry, labels obs.Labels) {
	if reg == nil {
		return
	}
	invHelp := "Invocations served, by warmth path."
	reg.CounterFunc("sesemi_semirt_invocations_total", invHelp, labels.With("path", "cold"),
		func() float64 { return float64(r.cold.Load()) })
	reg.CounterFunc("sesemi_semirt_invocations_total", invHelp, labels.With("path", "warm"),
		func() float64 { return float64(r.warm.Load()) })
	reg.CounterFunc("sesemi_semirt_invocations_total", invHelp, labels.With("path", "hot"),
		func() float64 { return float64(r.hot.Load()) })
	reg.CounterFunc("sesemi_semirt_key_fetches_total", "KeyService provisioning round trips.", labels,
		func() float64 { return float64(r.keyFetches.Load()) })
	reg.CounterFunc("sesemi_semirt_model_loads_total", "Models loaded into the enclave (cold loads and swaps).", labels,
		func() float64 { return float64(r.modelLoads.Load()) })
	reg.CounterFunc("sesemi_semirt_session_steps_total", "Continuous-session scheduling frames executed.", labels,
		func() float64 { return float64(r.sessionSteps.Load()) })
	reg.CounterFunc("sesemi_semirt_preempted_total", "Members evicted at a step boundary.", labels,
		func() float64 { return float64(r.preempted.Load()) })
	reg.GaugeFunc("sesemi_semirt_enclave_bytes", "EPC-reserved enclave size (0 when not started).", labels,
		func() float64 { return float64(r.EnclaveMemoryBytes()) })
}

// LoadedModel reports the id of the currently loaded model ("" if none).
func (r *Runtime) LoadedModel() string {
	r.mu.Lock()
	prog := r.prog
	r.mu.Unlock()
	if prog == nil {
		return ""
	}
	return prog.loadedModelID()
}

// EnclaveMemoryBytes reports the enclave's configured (EPC-reserved) size,
// 0 if not started.
func (r *Runtime) EnclaveMemoryBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.enc == nil {
		return 0
	}
	return r.cfg.EnclaveMemoryBytes
}

// Stop destroys the enclave and closes the KeyService session.
func (r *Runtime) Stop() {
	r.stepMu.Lock()
	r.stepSessions = nil
	r.stepMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	if r.prog != nil {
		r.prog.close()
		r.prog = nil
	}
	if r.enc != nil {
		r.enc.Destroy()
		r.enc = nil
	}
}
