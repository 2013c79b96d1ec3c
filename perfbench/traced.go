package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"sesemi/internal/frontier"
	"sesemi/internal/gateway"
	"sesemi/internal/obs"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
)

// snap is the stack's counters at one instant.
type snap struct {
	gw     gateway.Stats
	fr     frontier.Stats
	cl     serverless.Stats
	act    serverless.ActionStats
	rt     semirt.Stats
	stages map[string]time.Duration
	traces uint64
}

func (w *world) snapshot() (snap, error) {
	s := snap{gw: w.gatewayStats(), cl: w.cluster.Stats(), rt: w.runtimeStats(), stages: map[string]time.Duration{}}
	if w.fr != nil {
		s.fr = w.fr.Stats()
	}
	act, err := w.cluster.ActionStats(action)
	if err != nil {
		return s, err
	}
	s.act = act
	for _, st := range w.tracer.Decomposition() {
		s.stages[st.Stage] = st.Total
	}
	ts := w.tracer.Stats()
	s.traces = ts.Kept + ts.Dropped
	return s, nil
}

// runTraced measures the per-layer metrics. It first runs rounds of low- and
// high-rate phases untraced (the baseline for trace.overhead, for the
// fidelity checks and for the tail latencies) and the goodput ladder, then
// replays the high-rate phases on a world whose seams are wrapped and whose
// tracer samples every request, then a pass over single layers.
func runTraced(sp spec, seed int64, S time.Duration) (*report, error) {
	pl := planFor(sp, S)
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	warmArr := schedule(sp, seed, phaseWarm, sp.low, pl.warm)
	var lowArrs, highArrs [][]arrival
	nHigh := 0
	for k := 0; k < pl.tracedRounds; k++ {
		lowArrs = append(lowArrs, schedule(sp, seed, phaseLow+k, sp.low, pl.low))
		a := schedule(sp, seed, phaseHigh+k, sp.high, pl.high)
		highArrs = append(highArrs, a)
		nHigh += len(a)
	}
	account := func(r *phaseResult) {
		rep.Attempted += r.attempts
		rep.Failed += r.failed
		if r.wrong > 0 {
			rep.Correct = false
		}
	}
	phase := func(w *world, arrs []arrival, rate float64, dur time.Duration, inputs [][]byte, ref [][][]byte, pr *probes, firstID int) (*phaseResult, error) {
		jobs, err := prepare(w, arrs, inputs, firstID)
		if err != nil {
			return nil, err
		}
		if pr != nil {
			for _, j := range jobs {
				pr.register(j.id, j.req.Body.Payload)
			}
		}
		r := drive(w, jobs, rate, dur, ref, pr != nil)
		account(r)
		return r, nil
	}
	// rounds offers the high-rate phases of every round, each preceded by
	// the round's low-rate phase when withLow is set (the untraced
	// baseline, which also yields the tail latencies).
	rounds := func(w *world, inputs [][]byte, ref [][][]byte, pr *probes, withLow bool) (low, high *phaseResult, err error) {
		var ls, hs []*phaseResult
		var batches uint64
		id := 0
		for k, a := range highArrs {
			if withLow {
				l, err := phase(w, lowArrs[k], sp.low, pl.low, inputs, ref, nil, 0)
				if err != nil {
					return nil, nil, err
				}
				ls = append(ls, l)
			}
			b0 := w.gatewayStats().Batches
			h, err := phase(w, a, sp.high, pl.high, inputs, ref, pr, id)
			if err != nil {
				return nil, nil, err
			}
			batches += w.gatewayStats().Batches - b0
			hs = append(hs, h)
			id += len(a)
		}
		if withLow {
			low = merge(ls)
		}
		high = merge(hs)
		high.batches = batches
		return low, high, nil
	}

	// Untraced baseline.
	w0, err := buildWorld(sp, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ref, inputs, err := w0.prepareRef()
	if err != nil {
		w0.close()
		return nil, err
	}
	if _, err := phase(w0, warmArr, sp.low, pl.warm, inputs, ref, nil, 0); err != nil {
		w0.close()
		return nil, err
	}
	baseLow, base, err := rounds(w0, inputs, ref, nil, true)
	if err != nil {
		w0.close()
		return nil, err
	}
	goodput, err := ladder(sp, pl, baseLow, base, func(k int, rate float64) (*phaseResult, error) {
		return phase(w0, schedule(sp, seed, phaseLadder+k, rate, pl.step), rate, pl.step, inputs, ref, nil, 0)
	})
	w0.close()
	if err != nil {
		return nil, err
	}

	// Traced run of the same phase.
	pr := newProbes(nHigh)
	w, err := buildWorld(sp, pr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer w.close()
	if _, err := phase(w, warmArr, sp.low, pl.warm, inputs, ref, nil, 0); err != nil {
		return nil, err
	}
	s0, err := w.snapshot()
	if err != nil {
		return nil, err
	}
	pr.reset()
	_, r, err := rounds(w, inputs, ref, pr, false)
	if err != nil {
		return nil, err
	}
	s1, err := w.snapshot()
	if err != nil {
		return nil, err
	}
	layerMetrics(rep.Metrics, w, pr, r, s0, s1, base)
	w.close()

	if err := layerPass(rep.Metrics); err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	rep.Metrics["fail_ratio"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio"}
	// Tail latency of the untraced baseline, timed like the end-to-end
	// p50s. It is reported here, without a regression bound, because on a
	// shared 2-vCPU host its run-to-run spread exceeds any bound the
	// benchmark may set.
	rep.Metrics["tail.p99_ms.low"] = metric{baseLow.p99, "ms"}
	rep.Metrics["tail.p99_ms.high"] = metric{base.p99, "ms"}
	// Goodput probes capacity, which on a shared host moves with whatever
	// else the machine runs; like the tails it is reported without a bound.
	rep.Metrics["goodput_rps"] = metric{goodput, "1/s"}
	return rep, nil
}

// layerMetrics derives the per-layer metrics of the traced phase r from the
// probes' records and the counter deltas s0 → s1. base is the same phase
// run untraced.
func layerMetrics(m map[string]metric, w *world, pr *probes, r *phaseResult, s0, s1 snap, base *phaseResult) {
	served := float64(r.served())
	kreq := served / 1000
	perK := func(n float64) float64 {
		if kreq == 0 {
			return 0
		}
		return n / kreq
	}
	us := func(d []time.Duration, p float64) float64 { return pct(sortD(d), p, 0) * 1000 }
	ms := func(d []time.Duration, p float64) float64 { return pct(sortD(d), p, 0) }

	// Client side: admission time and, per served request, the wait on its
	// ticket minus the activation that carried it.
	var submit, wait []time.Duration
	var e2e, late, adm, svSelf, rtInv time.Duration
	mapped := 0
	pr.mu.Lock()
	calls := pr.calls
	for i, o := range r.out {
		submit = append(submit, o.submitted-o.sent)
		if o.err != nil {
			continue
		}
		idx := pr.reqCall[i]
		if idx < 0 {
			continue
		}
		c := calls[idx]
		mapped++
		wait = append(wait, o.done-o.submitted-c.total)
		e2e += o.done - o.at
		late += o.sent - o.at
		adm += o.submitted - o.sent
		svSelf += c.total - c.inst
		rtInv += c.inst
	}
	gets := append([]time.Duration(nil), pr.gets...)
	pr.mu.Unlock()

	var invoke, self, inst, ecall, codec, keyFetch []time.Duration
	for _, c := range calls {
		if c.err || c.members == 0 {
			continue
		}
		invoke = append(invoke, c.total)
		self = append(self, c.total-c.inst)
		inst = append(inst, c.inst)
		var st [obs.NumStages]time.Duration
		for _, sd := range c.stages {
			st[sd.Stage] += sd.Dur
		}
		if len(c.stages) > 0 {
			ecall = append(ecall, st[obs.StageECall])
			codec = append(codec, c.inst-st[obs.StageECall]-st[obs.StageColdStart])
		}
		if st[obs.StageKeyFetch] > 0 {
			keyFetch = append(keyFetch, st[obs.StageKeyFetch])
		}
	}

	if w.fr != nil {
		m["frontier.submit_us.p50"] = metric{us(submit, 50), "us"}
		m["frontier.spills_per_kreq"] = metric{perK(float64(s1.fr.Spills - s0.fr.Spills)), "count/kreq"}
		m["frontier.steals_per_kreq"] = metric{perK(float64(s1.fr.Steals - s0.fr.Steals)), "count/kreq"}
		var mx, sum float64
		for i := range s1.fr.PerShard {
			a := float64(s1.fr.PerShard[i].Accepted - s0.fr.PerShard[i].Accepted)
			sum += a
			if a > mx {
				mx = a
			}
		}
		imb := 0.0
		if sum > 0 {
			imb = mx / (sum / float64(len(s1.fr.PerShard)))
		}
		m["frontier.shard_imbalance"] = metric{imb, "ratio"}
	} else {
		// No frontier on this workload's path: the metrics read 0.
		m["frontier.submit_us.p50"] = metric{0, "us"}
		m["frontier.spills_per_kreq"] = metric{0, "count/kreq"}
		m["frontier.steals_per_kreq"] = metric{0, "count/kreq"}
		m["frontier.shard_imbalance"] = metric{0, "ratio"}
	}

	batches := float64(s1.gw.Batches - s0.gw.Batches)
	m["gateway.submit_us.p50"] = metric{us(submit, 50), "us"}
	m["gateway.submit_us.p99"] = metric{us(submit, 99), "us"}
	m["gateway.wait_ms.p50"] = metric{ms(wait, 50), "ms"}
	m["gateway.wait_ms.p99"] = metric{ms(wait, 99), "ms"}
	m["gateway.batch_size.mean"] = metric{ratio(float64(s1.gw.Served-s0.gw.Served), batches), "count"}
	m["gateway.batches_per_kreq"] = metric{perK(batches), "count/kreq"}
	m["gateway.shed_per_kreq"] = metric{perK(float64(s1.gw.Shed - s0.gw.Shed)), "count/kreq"}
	m["gateway.retries_per_kreq"] = metric{perK(float64(s1.gw.Retries - s0.gw.Retries)), "count/kreq"}

	m["serverless.invoke_ms.p50"] = metric{ms(invoke, 50), "ms"}
	m["serverless.invoke_ms.p99"] = metric{ms(invoke, 99), "ms"}
	m["serverless.self_ms.p50"] = metric{ms(self, 50), "ms"}
	m["serverless.cold_per_kreq"] = metric{perK(float64(s1.cl.ColdStarts - s0.cl.ColdStarts)), "count/kreq"}
	m["serverless.warm_hit_ratio"] = metric{ratio(float64(s1.act.WarmHits-s0.act.WarmHits), float64(s1.cl.Invocations-s0.cl.Invocations)), "ratio"}
	m["serverless.sandboxes_peak"] = metric{float64(r.sandboxesPeak), "count"}
	m["serverless.idle_sandbox_s"] = metric{s1.act.IdleSeconds - s0.act.IdleSeconds, "s"}

	cold, warm, hot := float64(s1.rt.Cold-s0.rt.Cold), float64(s1.rt.Warm-s0.rt.Warm), float64(s1.rt.Hot-s0.rt.Hot)
	fetches := float64(s1.rt.KeyFetches - s0.rt.KeyFetches)
	m["semirt.invoke_ms.p50"] = metric{ms(inst, 50), "ms"}
	m["semirt.invoke_ms.p99"] = metric{ms(inst, 99), "ms"}
	m["semirt.ecall_ms.p50"] = metric{ms(ecall, 50), "ms"}
	m["semirt.codec_ms.p50"] = metric{ms(codec, 50), "ms"}
	m["semirt.hot_ratio"] = metric{ratio(hot, cold+warm+hot), "ratio"}
	m["semirt.warm_per_kreq"] = metric{perK(warm), "count/kreq"}
	m["semirt.cold_per_kreq"] = metric{perK(cold), "count/kreq"}
	m["semirt.key_fetches_per_kreq"] = metric{perK(fetches), "count/kreq"}

	m["keyservice.dials_per_kreq"] = metric{perK(float64(pr.dials.Load())), "count/kreq"}
	m["keyservice.key_fetch_ms.p50"] = metric{ms(keyFetch, 50), "ms"}
	m["keyservice.key_fetch_ms.p99"] = metric{ms(keyFetch, 99), "ms"}
	m["keyservice.bytes_per_fetch"] = metric{ratio(float64(pr.ksBytes.Load()), fetches), "B"}

	m["storage.gets_per_kreq"] = metric{perK(float64(len(gets))), "count/kreq"}
	m["storage.get_ms.p50"] = metric{ms(gets, 50), "ms"}

	m["process.alloc_kb_per_req"] = metric{ratio(float64(r.allocBytes)/1024, served), "KiB"}
	m["process.gc_cpu_share"] = metric{ratio(r.gcCPU, r.allCPU), "ratio"}
	m["gen.late_ms.p99"] = metric{pct(r.late, 99, 0), "ms"}

	// Tracing cost and fidelity: CPU per request traced over untraced, and
	// how far the traced run's path mix and batching moved.
	m["trace.overhead"] = metric{ratio(r.cpuPerReq, base.cpuPerReq), "ratio"}
	m["trace.batches_shift"] = metric{math.Abs(ratio(perK(batches), float64(base.batches)/(float64(base.served())/1000)) - 1), "ratio"}
	shift := 0.0
	for k := range r.kinds {
		d := ratio(float64(r.kinds[k]), served) - ratio(float64(base.kinds[k]), float64(base.served()))
		shift = math.Max(shift, math.Abs(d))
	}
	m["trace.mix_shift"] = metric{shift, "ratio"}

	// Reconciliation: the mean end-to-end latency of the mapped requests
	// against the sum of the self times along their blocking path, each
	// measured at its own boundary — generator lateness and admission by
	// the client, queueing, formation and fan-out by the gateway's own
	// spans, the activation by the backend and instance wrappers.
	recon := 0.0
	if mapped > 0 {
		n := time.Duration(mapped)
		traces := float64(s1.traces - s0.traces)
		gwSpans := 0.0
		for _, st := range []string{"queue", "form", "fanout"} {
			gwSpans += float64(s1.stages[st] - s0.stages[st])
		}
		gwSelf := time.Duration(ratio(gwSpans, traces))
		sum := late/n + adm/n + gwSelf + svSelf/n + rtInv/n
		recon = float64(e2e/n-sum) / float64(e2e/n)
		m["trace.e2e_mean_ms"] = metric{float64(e2e/n) / 1e6, "ms"}
	} else {
		m["trace.e2e_mean_ms"] = metric{0, "ms"}
	}
	m["trace.reconcile_err"] = metric{recon, "ratio"}
	m["trace.mapped_share"] = metric{ratio(float64(mapped), served), "ratio"}
	if recon > 0.10 || recon < -0.10 {
		fmt.Fprintf(os.Stderr, "perfbench: per-layer self times miss the traced end-to-end mean by %.1f%%\n", 100*recon)
	}
}

func sortD(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
