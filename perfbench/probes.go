package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/keyservice"
	"sesemi/internal/obs"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
	"sesemi/internal/storage"
)

// probes time the calls that cross the stack's public seams in the traced
// run: the backend handed to the gateway, every serverless.Instance, the
// runtimes' KeyService dialer and the model store. Nothing inside the stack
// changes; the wrappers only sit between layers the stack already wires
// through interfaces.
type probes struct {
	// inflight links an activation payload (by its first byte's address)
	// to the record of the backend call carrying it, so the Instance
	// wrapper can fill in the time spent inside the runtime.
	inflight sync.Map

	// mu guards ids and the records below.
	mu sync.Mutex
	// ids maps a request ciphertext's nonce to the request's index in the
	// run, so a batch can be attributed to its members.
	ids     map[[nonceLen]byte]int
	calls   []*callRec
	gets    []time.Duration
	reqCall []int32 // request index -> index into calls (-1 = none)

	dials, ksBytes atomic.Int64
}

const nonceLen = 12

// callRec is one activation as the backend saw it.
type callRec struct {
	total   time.Duration // InvokeOn / Step, as the gateway waited for it
	inst    time.Duration // serverless.Instance.Invoke inside it
	stages  []obs.StageDur
	members int
	err     bool
}

func newProbes(nreq int) *probes {
	p := &probes{ids: map[[nonceLen]byte]int{}, reqCall: make([]int32, nreq)}
	for i := range p.reqCall {
		p.reqCall[i] = -1
	}
	return p
}

func (p *probes) register(i int, payload []byte) {
	var k [nonceLen]byte
	copy(k[:], payload)
	p.mu.Lock()
	p.ids[k] = i
	p.mu.Unlock()
}

// reset drops every record (the start of a measured phase).
func (p *probes) reset() {
	p.mu.Lock()
	p.calls, p.gets = nil, nil
	for i := range p.reqCall {
		p.reqCall[i] = -1
	}
	p.mu.Unlock()
	p.dials.Store(0)
	p.ksBytes.Store(0)
}

// call times one activation. The member attribution and stage decoding run
// after the timed window, on the dispatching goroutine.
func (p *probes) call(payload []byte, invoke func() ([]byte, error)) ([]byte, error) {
	rec := &callRec{}
	var key *byte
	if len(payload) > 0 {
		key = &payload[0]
		p.inflight.Store(key, rec)
	}
	t0 := time.Now()
	out, err := invoke()
	rec.total = time.Since(t0)
	if key != nil {
		p.inflight.Delete(key)
	}
	rec.err = err != nil
	_, batch, derr := semirt.DecodeEnvelope(payload)
	if derr == nil {
		rec.members = len(batch)
		if err == nil && len(batch) > 0 {
			if _, stages, serr := semirt.DecodeBatchResponseStages(out, len(batch)); serr == nil {
				rec.stages = stages
			}
		}
	}
	p.mu.Lock()
	idx := int32(len(p.calls))
	p.calls = append(p.calls, rec)
	for _, r := range batch {
		var k [nonceLen]byte
		copy(k[:], r.Payload)
		if i, ok := p.ids[k]; ok {
			p.reqCall[i] = idx
		}
	}
	p.mu.Unlock()
	return out, err
}

func (p *probes) noteInstance(payload []byte, d time.Duration) {
	if len(payload) == 0 {
		return
	}
	if v, ok := p.inflight.Load(&payload[0]); ok {
		v.(*callRec).inst += d
	}
}

// backend wraps the gateway's Invoker. The wrapper implements every
// optional surface the gateway type-asserts (Prewarmer, PlacedPrewarmer,
// Router, SessionOpener), so affinity, prewarm and sessions stay on.
func (p *probes) backend(cl *serverless.Cluster) gateway.Invoker {
	return &backendProbe{cl: cl, p: p}
}

type backendProbe struct {
	cl *serverless.Cluster
	p  *probes
}

var (
	_ gateway.Invoker         = (*backendProbe)(nil)
	_ gateway.Prewarmer       = (*backendProbe)(nil)
	_ gateway.PlacedPrewarmer = (*backendProbe)(nil)
	_ gateway.Router          = (*backendProbe)(nil)
	_ gateway.SessionOpener   = (*backendProbe)(nil)
)

func (b *backendProbe) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	out, _, err := b.InvokeOn(ctx, action, "", payload)
	return out, err
}

func (b *backendProbe) InvokeOn(ctx context.Context, action, node string, payload []byte) ([]byte, string, error) {
	var served string
	out, err := b.p.call(payload, func() ([]byte, error) {
		o, s, err := b.cl.InvokeOn(ctx, action, node, payload)
		served = s
		return o, err
	})
	return out, served, err
}

func (b *backendProbe) NodeStats(action string) []serverless.NodeStat {
	return b.cl.NodeStats(action)
}

func (b *backendProbe) Prewarm(action string, want int) (int, error) {
	return b.cl.Prewarm(action, want)
}

func (b *backendProbe) PrewarmOn(action, node string, want int) (int, error) {
	return b.cl.PrewarmOn(action, node, want)
}

func (b *backendProbe) OpenSession(ctx context.Context, action, node string) (gateway.InvokeSession, error) {
	s, err := b.cl.OpenSession(ctx, action, node)
	if err != nil {
		return nil, err
	}
	return sessionProbe{s: s, p: b.p}, nil
}

type sessionProbe struct {
	s *serverless.Session
	p *probes
}

func (s sessionProbe) Step(payload []byte) ([]byte, error) {
	return s.p.call(payload, func() ([]byte, error) { return s.s.Step(payload) })
}
func (s sessionProbe) Node() string { return s.s.Node() }
func (s sessionProbe) Close()       { s.s.Close() }

// instance wraps a sandbox's runtime.
func (p *probes) instance(in serverless.Instance) serverless.Instance {
	return instanceProbe{in: in, p: p}
}

type instanceProbe struct {
	in serverless.Instance
	p  *probes
}

func (i instanceProbe) Invoke(payload []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := i.in.Invoke(payload)
	i.p.noteInstance(payload, time.Since(t0))
	return out, err
}

func (i instanceProbe) Stop() { i.in.Stop() }

// dialer counts the runtimes' KeyService dials (each one is an RA-TLS mutual
// attestation) and the bytes their connections carry.
func (p *probes) dialer(d keyservice.Dialer) keyservice.Dialer {
	return func() (net.Conn, error) {
		c, err := d()
		if err != nil {
			return nil, err
		}
		p.dials.Add(1)
		return &countingConn{Conn: c, n: &p.ksBytes}, nil
	}
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// store times model fetches.
func (p *probes) store(s storage.Store) storage.Store { return storeProbe{Store: s, p: p} }

type storeProbe struct {
	storage.Store
	p *probes
}

func (s storeProbe) Get(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.Get(name)
	d := time.Since(t0)
	s.p.mu.Lock()
	s.p.gets = append(s.p.gets, d)
	s.p.mu.Unlock()
	return b, err
}
