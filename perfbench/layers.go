package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/costmodel"
	"sesemi/internal/enclave"
	"sesemi/internal/inference"
	"sesemi/internal/model"
	"sesemi/internal/ratls"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/tensor"
	"sesemi/internal/vclock"
)

// layerBudget is how long each single-layer operation is repeated.
const layerBudget = 250 * time.Millisecond

// measure repeats op for about layerBudget (at least 3 times) and reports
// its mean time and heap allocations per call.
func measure(op func() error) (per time.Duration, allocs float64, err error) {
	if err := op(); err != nil { // warm caches and lazy state
		return 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n := 0
	t0 := time.Now()
	for n < 3 || time.Since(t0) < layerBudget {
		if err := op(); err != nil {
			return 0, 0, err
		}
		n++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return el / time.Duration(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// layerPass times single layers on fixed inputs, outside the serving stack:
// tensor kernels, model execution, the SeMIRT hot path and wire codec,
// seal/open and the RA-TLS handshake and record.
func layerPass(m map[string]metric) error {
	add := func(name, unit string, scale time.Duration, op func() error) error {
		per, allocs, err := measure(op)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = metric{float64(per) / float64(scale), unit}
		m[name+".allocs"] = metric{allocs, "count"}
		return nil
	}

	// tensor: a 3x3 same-padded convolution, 16x16x16 → 16 channels.
	in := tensor.New(1, 16, 16, 16)
	for i := range in.Data() {
		in.Data()[i] = float32(i%17) * 0.01
	}
	wt := tensor.New(3, 3, 16, 16)
	for i := range wt.Data() {
		wt.Data()[i] = float32(i%5) * 0.02
	}
	out := tensor.New(tensor.ConvShape(in.Shape(), 3, 3, 16, 1, tensor.Same)...)
	if err := add("tensor.conv2d3x3_us", "us", time.Microsecond, func() error {
		return tensor.Conv2D(out, in, wt, nil, 1, tensor.Same)
	}); err != nil {
		return err
	}

	// A hot world supplies a warm runtime and well-formed requests.
	hot, _ := specByName("hot")
	w, err := buildWorld(hot, nil)
	if err != nil {
		return err
	}
	defer w.close()

	// inference: the functional MobileNet on one input.
	fw, err := inference.Lookup("tvm")
	if err != nil {
		return err
	}
	lm, err := fw.ModelLoad(w.plainModels[0])
	if err != nil {
		return err
	}
	rt, err := fw.RuntimeInit(lm)
	if err != nil {
		return err
	}
	input := w.input(1)
	if err := add("inference.mbnet_exec_us", "us", time.Microsecond, func() error {
		return inference.ModelExec(rt, input)
	}); err != nil {
		return err
	}

	// semirt: Runtime.Handle on a warm runtime (the hot path), and the
	// batch wire codec at batch size 8.
	w.rtMu.Lock()
	srt := w.runtimes[0]
	w.rtMu.Unlock()
	gr, err := w.request(0, 0, input)
	if err != nil {
		return err
	}
	req := gr.Body
	if err := add("semirt.hot_us", "us", time.Microsecond, func() error {
		resp, err := srt.Handle(req)
		if err == nil && resp.Kind != semirt.Hot {
			err = fmt.Errorf("served %v, want hot", resp.Kind)
		}
		return err
	}); err != nil {
		return err
	}
	batch := make([]semirt.Request, 8)
	results := make([]semirt.BatchResult, 8)
	resp, err := srt.Handle(req)
	if err != nil {
		return err
	}
	for i := range batch {
		batch[i] = req
		results[i] = semirt.BatchResult{Response: resp}
	}
	if err := add("semirt.codec_us.batch8", "us", time.Microsecond, func() error {
		raw, err := semirt.EncodeBatch(batch)
		if err != nil {
			return err
		}
		if _, got, err := semirt.DecodeEnvelope(raw); err != nil || len(got) != len(batch) {
			return fmt.Errorf("decode envelope: %v (%d members)", err, len(got))
		}
		rraw, err := semirt.EncodeBatchResults(results)
		if err != nil {
			return err
		}
		_, err = semirt.DecodeBatchResponse(rraw, len(results))
		return err
	}); err != nil {
		return err
	}

	// secure: seal+open of 1 KiB, and opening a model blob of the churn
	// workload's size.
	key := secure.KeyFromSeed("layer-pass")
	kib := make([]byte, 1024)
	if err := add("secure.seal_open_us.1k", "us", time.Microsecond, func() error {
		ct, err := secure.Seal(key, secure.PurposeRequest, "m", kib)
		if err != nil {
			return err
		}
		_, err = secure.Open(key, secure.PurposeRequest, "m", ct)
		return err
	}); err != nil {
		return err
	}
	churn, _ := specByName("churn")
	mdl, err := model.NewFunctional("mbnet")
	if err != nil {
		return err
	}
	if err := model.PadToSize(mdl, churn.padBytes); err != nil {
		return err
	}
	plain, err := model.Marshal(mdl)
	if err != nil {
		return err
	}
	blob, err := semirt.EncryptModel(key, "mbnet", plain)
	if err != nil {
		return err
	}
	if err := add("secure.open_ms.model", "ms", time.Millisecond, func() error {
		_, err := secure.Open(key, secure.PurposeModel, "mbnet", blob)
		return err
	}); err != nil {
		return err
	}

	return ratlsPass(add)
}

// ratlsPass times a mutually attested RA-TLS handshake and one 4 KiB record
// round trip over an established channel, both over in-memory pipes.
func ratlsPass(add func(name, unit string, scale time.Duration, op func() error) error) error {
	ca, err := attest.NewCA()
	if err != nil {
		return err
	}
	key, err := ca.Provision("layer-node")
	if err != nil {
		return err
	}
	enc, err := enclave.NewPlatform(costmodel.SGX2, vclock.Real{Scale: 0}, key).Launch(enclave.Manifest{
		Name: "layer", CodeHash: enclave.CodeIdentity("layer-pass"), TCSCount: 2, MemoryBytes: 1 << 20,
	}, nil)
	if err != nil {
		return err
	}
	defer enc.Destroy()
	pol := &attest.Policy{CAPublicKey: ca.PublicKey(), Allowed: []attest.Measurement{enc.Measurement()}}
	if err := add("ratls.handshake_us", "us", time.Microsecond, func() error {
		c, s := net.Pipe()
		defer c.Close()
		defer s.Close()
		done := make(chan error, 1)
		go func() {
			_, err := ratls.Server(s, ratls.Config{Quoter: enc, PeerPolicy: pol})
			done <- err
		}()
		_, err := ratls.Client(c, ratls.Config{Quoter: enc, PeerPolicy: pol})
		if err != nil {
			c.Close() // unblock the server side
		}
		if serr := <-done; err == nil {
			err = serr
		}
		return err
	}); err != nil {
		return err
	}

	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	type res struct {
		conn *ratls.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ratls.Server(s, ratls.Config{})
		ch <- res{conn, err}
	}()
	cc, err := ratls.Client(c, ratls.Config{})
	if err != nil {
		return err
	}
	sr := <-ch
	if sr.err != nil {
		return sr.err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			msg, err := sr.conn.Recv()
			if err != nil {
				return
			}
			if err := sr.conn.Send(msg); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 4096)
	err = add("ratls.record_rt_us", "us", time.Microsecond, func() error {
		if err := cc.Send(payload); err != nil {
			return err
		}
		_, err := cc.Recv()
		return err
	})
	c.Close()
	<-echoDone
	return err
}
