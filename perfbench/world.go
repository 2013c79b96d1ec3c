package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/costmodel"
	"sesemi/internal/enclave"
	"sesemi/internal/frontier"
	"sesemi/internal/gateway"
	"sesemi/internal/inference"
	_ "sesemi/internal/inference/tinytvm"
	"sesemi/internal/keyservice"
	"sesemi/internal/model"
	"sesemi/internal/obs"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
	"sesemi/internal/storage"
	"sesemi/internal/tensor"
	"sesemi/internal/vclock"
)

const action = "fn-mbnet"

// sandboxMemory is the action's container memory budget.
const sandboxMemory = 256 << 20

// world is one in-process SeSeMI deployment: KeyService over loopback TCP,
// a serverless cluster of SGX2 platforms running SeMIRT actions, and a
// gateway (or sharded frontier) in front. It mirrors the stack's own wiring;
// the benchmark builds it itself so that, in the traced run, it can hand
// every seam a timing wrapper.
type world struct {
	sp      spec
	cluster *serverless.Cluster
	gw      *gateway.Gateway
	fr      *frontier.Frontier
	tracer  *obs.Tracer
	models  []string
	userIDs []secure.ID
	// reqKeys[u][m] is user u's K_R for model m.
	reqKeys [][]secure.Key
	// plainModels[m] is model m's serialized plaintext, for reference
	// inference.
	plainModels [][]byte
	shape       []int

	rtMu     sync.Mutex
	runtimes []*semirt.Runtime

	closers []func()
}

// submit admits one request through the deployment's front door.
func (w *world) submit(ctx context.Context, req gateway.Request) (*gateway.Ticket, error) {
	if w.fr != nil {
		return w.fr.Submit(ctx, req)
	}
	return w.gw.Submit(ctx, req)
}

// gatewayStats is the front door's counter snapshot (frontier shards
// summed).
func (w *world) gatewayStats() gateway.Stats {
	if w.fr != nil {
		return w.fr.Stats().Stats
	}
	return w.gw.Stats()
}

func (w *world) runtimeStats() semirt.Stats {
	w.rtMu.Lock()
	defer w.rtMu.Unlock()
	var s semirt.Stats
	for _, rt := range w.runtimes {
		st := rt.Stats()
		s.Cold += st.Cold
		s.Warm += st.Warm
		s.Hot += st.Hot
		s.KeyFetches += st.KeyFetches
	}
	return s
}

func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

// input is input tensor k of the workload (deterministic in k).
func (w *world) input(k int) []byte {
	in := tensor.New(w.shape...)
	for i := range in.Data() {
		in.Data()[i] = float32((i*7+k*13)%29) * 0.035
	}
	return inference.EncodeTensor(in)
}

// buildWorld deploys the workload's world and serves one request through
// the front door; everything it does is what setup_s times. pr, when
// non-nil, wraps every seam (traced run) and turns the tracer on.
func buildWorld(sp spec, pr *probes) (w *world, err error) {
	w = &world{sp: sp}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	ca, err := attest.NewCA()
	if err != nil {
		return nil, err
	}
	// The platform clock is muted: TEE latencies are real compute only. The
	// cluster clock runs at scale 1, so InvokeOverhead is slept for real.
	platClock := vclock.Real{Scale: 0}

	ksKey, err := ca.Provision("ks")
	if err != nil {
		return nil, err
	}
	svc := keyservice.NewService()
	ksEnc, err := enclave.NewPlatform(costmodel.SGX2, platClock, ksKey).
		Launch(keyservice.ManifestFor(keyServiceTCS), svc)
	if err != nil {
		return nil, err
	}
	w.closers = append(w.closers, ksEnc.Destroy)
	srv, err := keyservice.NewServer(svc, ca.PublicKey())
	if err != nil {
		return nil, err
	}
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	w.closers = append(w.closers, func() { _ = srv.Close() })
	principalDial := keyservice.TCPDialer(ln.Addr().String())
	rtDial := principalDial
	if pr != nil {
		rtDial = pr.dialer(rtDial)
	}

	var store storage.Store = storage.NewMemory(platClock, nil)
	if pr != nil {
		store = pr.store(store)
	}
	var nodes []*serverless.Node
	for i := 0; i < sp.nodes; i++ {
		key, err := ca.Provision(fmt.Sprintf("node-%d", i))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &serverless.Node{
			Name:        fmt.Sprintf("node-%d", i),
			MemoryBytes: sp.nodeMemory,
			Extra:       enclave.NewPlatform(costmodel.SGX2, platClock, key),
		})
	}
	ccfg := serverless.DefaultConfig()
	ccfg.Clock = vclock.Real{Scale: 1}
	ccfg.SandboxStart = 0
	ccfg.InvokeOverhead = invokeOverhead
	if sp.keepWarm > 0 {
		ccfg.KeepWarm = sp.keepWarm
	}
	w.cluster = serverless.NewCluster(ccfg, nodes...)
	w.closers = append(w.closers, w.cluster.Close)

	scfg, err := semirt.DefaultConfig("tvm", "mbnet", 4)
	if err != nil {
		return nil, err
	}
	es := scfg.Manifest().Measure()
	m, err := model.NewFunctional("mbnet")
	if err != nil {
		return nil, err
	}
	if sp.padBytes > 0 {
		if err := model.PadToSize(m, sp.padBytes); err != nil {
			return nil, err
		}
	}
	w.shape = m.InputShape
	data, err := model.Marshal(m)
	if err != nil {
		return nil, err
	}

	// Principal clients each hold a KeyService connection (one TCS) while
	// open, so they are opened one at a time and closed once their setup is
	// done: the KeyService then only ever holds the owner, one user and the
	// runtimes' sessions (one per live sandbox).
	owner := keyservice.NewClient(principalDial, ca.PublicKey(), ksEnc.Measurement(), secure.KeyFromSeed("bench-owner"))
	defer owner.Close()
	if err := owner.Register(); err != nil {
		return nil, err
	}
	for i := 0; i < sp.models; i++ {
		id := "mbnet"
		if i > 0 {
			id = fmt.Sprintf("m%d", i)
		}
		km := secure.KeyFromSeed("bench-km-" + id)
		ct, err := semirt.EncryptModel(km, id, data)
		if err != nil {
			return nil, err
		}
		if err := store.Put(semirt.ModelBlobName(id), ct); err != nil {
			return nil, err
		}
		if err := owner.AddModelKey(id, km); err != nil {
			return nil, err
		}
		w.models = append(w.models, id)
		w.plainModels = append(w.plainModels, data)
	}
	for u := 0; u < sp.users; u++ {
		uc := keyservice.NewClient(principalDial, ca.PublicKey(), ksEnc.Measurement(), secure.KeyFromSeed(fmt.Sprintf("bench-user-%d", u)))
		keys := make([]secure.Key, len(w.models))
		err := uc.Register()
		for mi, id := range w.models {
			if err != nil {
				break
			}
			if err = owner.GrantAccess(id, es, uc.ID()); err != nil {
				break
			}
			keys[mi] = secure.KeyFromSeed(fmt.Sprintf("bench-kr-%s-u%d", id, u))
			err = uc.AddReqKey(id, es, keys[mi])
		}
		uc.Close()
		if err != nil {
			return nil, fmt.Errorf("user %d: %w", u, err)
		}
		w.userIDs = append(w.userIDs, uc.ID())
		w.reqKeys = append(w.reqKeys, keys)
	}
	// Every sandbox's runtime holds one KeyService session.
	if need := 2 + int(int64(sp.nodes)*sp.nodeMemory/sandboxMemory); need > keyServiceTCS {
		return nil, fmt.Errorf("world needs %d KeyService TCSs, enclave has %d", need, keyServiceTCS)
	}

	err = w.cluster.Deploy(&serverless.Action{
		Name:         action,
		MemoryBudget: sandboxMemory,
		Concurrency:  scfg.Concurrency,
		New: func(n *serverless.Node) (serverless.Instance, error) {
			rt, err := semirt.New(scfg, semirt.Deps{
				Platform:    n.Extra.(*enclave.Platform),
				Store:       store,
				KSDialer:    rtDial,
				CAPublicKey: ca.PublicKey(),
				ExpectEK:    ksEnc.Measurement(),
			})
			if err != nil {
				return nil, err
			}
			w.rtMu.Lock()
			w.runtimes = append(w.runtimes, rt)
			w.rtMu.Unlock()
			var inst serverless.Instance = semirt.Instance{RT: rt}
			if pr != nil {
				inst = pr.instance(inst)
			}
			return inst, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if sp.reaper > 0 {
		w.closers = append(w.closers, w.cluster.StartReaper(sp.reaper))
	}

	gcfg := sp.gw
	var backend gateway.Invoker = w.cluster
	if pr != nil {
		// Every request is traced (sample 1); the ring keeps few records,
		// the stage decomposition counts all of them.
		w.tracer = obs.NewTracer(obs.Config{TraceSample: 1, Ring: 64})
		gcfg.Tracer = w.tracer
		backend = pr.backend(w.cluster)
	}
	if sp.shards > 1 {
		w.fr = frontier.New(frontier.Config{Config: gcfg, Shards: sp.shards}, backend)
		w.closers = append(w.closers, w.fr.Close)
	} else {
		w.gw = gateway.New(gcfg, backend)
		w.closers = append(w.closers, w.gw.Close)
	}

	// The first served request ends set-up.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := w.request(0, 0, w.input(0))
	if err != nil {
		return nil, err
	}
	tk, err := w.submit(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("first request: %w", err)
	}
	if _, err := tk.WaitCtx(ctx); err != nil {
		return nil, fmt.Errorf("first request: %w", err)
	}
	return w, nil
}

// request seals one input for (user, model) under the user's K_R. Each call
// draws a fresh nonce, so every request's ciphertext is unique.
func (w *world) request(user, mi int, input []byte) (gateway.Request, error) {
	id := w.models[mi]
	payload, err := semirt.EncryptRequest(w.reqKeys[user][mi], id, input)
	if err != nil {
		return gateway.Request{}, err
	}
	uid := w.userIDs[user]
	return gateway.Request{
		Action: action,
		Tenant: fmt.Sprintf("u%d", user),
		Hints:  gateway.Hints{User: string(uid)},
		Body:   semirt.Request{UserID: uid, ModelID: id, Payload: payload},
	}, nil
}

// reference computes the plaintext inference output of every (model, input)
// pair with the same framework the enclaves run, outside any enclave.
func (w *world) reference() ([][][]byte, error) {
	fw, err := inference.Lookup("tvm")
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, len(w.models))
	for mi := range w.models {
		lm, err := fw.ModelLoad(w.plainModels[mi])
		if err != nil {
			return nil, err
		}
		rt, err := fw.RuntimeInit(lm)
		if err != nil {
			return nil, err
		}
		for k := 0; k < w.sp.inputs; k++ {
			if err := inference.ModelExec(rt, w.input(k)); err != nil {
				return nil, err
			}
			o, err := inference.PrepareOutput(rt)
			if err != nil {
				return nil, err
			}
			out[mi] = append(out[mi], o)
		}
	}
	return out, nil
}
