package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/semirt"
)

// outcome is one request's fate, timed from the phase start.
type outcome struct {
	at, sent, submitted, done time.Duration
	err                       error
	resp                      semirt.Response
}

// phaseResult summarizes one open-loop phase after its responses were
// checked.
type phaseResult struct {
	rate     float64
	dur      time.Duration
	late     []time.Duration // generator lateness, sorted
	attempts int
	failed   int // errors, deadline misses and wrong answers
	wrong    int // served responses that did not match the reference
	// backlog is the number of requests outstanding when the generator
	// sent its last arrival.
	backlog int
	// gbs is sandbox memory reserved, integrated over the phase, in GB-s;
	// sandboxesPeak the largest sampled live sandbox count.
	gbs           float64
	sandboxesPeak int
	allocBytes    uint64
	gcCPU, allCPU float64
	kinds         [3]int // cold, warm, hot among served requests
	batches       uint64 // activations dispatched, when the caller counts them
	// samples holds each request's latency in schedule order, timed from
	// its scheduled send; a failed request holds -1.
	samples []time.Duration
	// p50 and p99 are latency percentiles in ms, failures counted as
	// misses, each the median over consecutive chunks of chunkSize
	// requests, so a stall of the machine moves a chunk, not the phase.
	p50, p99 float64
	// cpuWins is process CPU per completed request in ms over one-second
	// windows; cpuPerReq is their median.
	cpuWins   []float64
	cpuPerReq float64
	// aborted reports that the generator stopped early because the backlog
	// outgrew the latency limit; the unsent rest is not attempted.
	aborted bool

	out []outcome // kept only while the caller needs per-request data
}

func (r *phaseResult) served() int { return r.attempts - r.failed }

// pct is the p-th percentile of sorted durations in milliseconds (nearest
// rank); failures, when given, count as misses above every latency.
func pct(sorted []time.Duration, p float64, failures int) float64 {
	n := len(sorted) + failures
	if n == 0 {
		return 0
	}
	rank := int(p/100*float64(n)+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		return float64(time.Hour) / 1e6
	}
	return float64(sorted[rank]) / 1e6
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() (alloc uint64, gc, all float64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// abortBacklog caps the abort threshold below the gateway's default
// per-queue bound (1024), so an overloaded phase stops before admissions are
// refused.
const abortBacklog = 800

// job is one pre-encrypted request with the schedule entry it came from and
// its index in the run.
type job struct {
	arr arrival
	req gateway.Request
	id  int
}

// prepare seals the requests of one phase before its clock starts.
func prepare(w *world, arrs []arrival, inputs [][]byte, firstID int) ([]job, error) {
	jobs := make([]job, len(arrs))
	for i, a := range arrs {
		req, err := w.request(a.user, a.model, inputs[a.input])
		if err != nil {
			return nil, err
		}
		jobs[i] = job{arr: a, req: req, id: firstID + i}
	}
	return jobs, nil
}

// drive offers one phase open loop: each request is submitted at its
// scheduled time from its own goroutine, regardless of how earlier ones
// fare, and every request resolves by its deadline. Responses are checked
// against the reference after the phase, outside the timed window.
func drive(w *world, jobs []job, rate float64, dur time.Duration, ref [][][]byte, keep bool) *phaseResult {
	res := &phaseResult{rate: rate, dur: dur, attempts: len(jobs)}
	out := make([]outcome, len(jobs))
	var outstanding, completed atomic.Int64
	var wg sync.WaitGroup
	var cpuWins []float64

	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		winStart, winCPU, winDone := last, cpuTime(), int64(0)
		for {
			select {
			case <-stopSampler:
				return
			case now := <-tick.C:
				if now.Sub(winStart) >= time.Second {
					c, d := cpuTime(), completed.Load()
					if d-winDone >= 50 {
						cpuWins = append(cpuWins, float64(c-winCPU)/1e6/float64(d-winDone))
					}
					winStart, winCPU, winDone = now, c, d
				}
				st := w.cluster.Stats()
				res.gbs += float64(st.MemoryReserved) / 1e9 * now.Sub(last).Seconds()
				last = now
				if n := st.Sandboxes[action]; n > res.sandboxesPeak {
					res.sandboxesPeak = n
				}
			}
		}
	}()

	alloc0, gc0, all0 := readRT()
	cpu0 := cpuTime()
	// A backlog four times what the rate can clear within the latency limit
	// (Little's law) means the phase is past capacity, not in a passing
	// stall: the generator stops there instead of filling the gateway's
	// queues until they refuse admissions.
	maxBacklog := int64(math.Min(4*rate*w.sp.limit.Seconds(), abortBacklog))
	start := time.Now().Add(time.Millisecond)
	for i := range jobs {
		if outstanding.Load() > maxBacklog {
			res.aborted = true
			jobs, out = jobs[:i], out[:i]
			break
		}
		due := start.Add(jobs[i].arr.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].at, out[i].sent = jobs[i].arr.at, time.Since(start)
		outstanding.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer outstanding.Add(-1)
			o := &out[i]
			ctx, cancel := context.WithDeadline(context.Background(), start.Add(jobs[i].arr.at+w.sp.deadline))
			defer cancel()
			tk, err := w.submit(ctx, jobs[i].req)
			o.submitted = time.Since(start)
			if err == nil {
				o.resp, err = tk.WaitCtx(ctx)
			}
			o.done = time.Since(start)
			o.err = err
			if err == nil {
				completed.Add(1)
			}
		}(i)
	}
	res.backlog = int(outstanding.Load())
	wg.Wait()
	res.attempts = len(jobs)
	cpu := cpuTime() - cpu0
	alloc1, gc1, all1 := readRT()
	res.allocBytes = alloc1 - alloc0
	res.gcCPU, res.allCPU = gc1-gc0, all1-all0
	close(stopSampler)
	<-samplerDone
	res.cpuWins = cpuWins
	if len(cpuWins) == 0 {
		res.cpuWins = []float64{perReq(cpu, int(completed.Load()))}
	}

	for i := range out {
		o := &out[i]
		a := jobs[i].arr
		res.late = append(res.late, o.sent-a.at)
		if o.err == nil {
			if err := check(w, a, o.resp.Payload, ref); err != nil {
				o.err = err
				res.wrong++
			}
		}
		if o.err != nil {
			res.failed++
			res.samples = append(res.samples, -1)
			continue
		}
		res.samples = append(res.samples, o.done-a.at)
		if k := int(o.resp.Kind); k >= 0 && k < len(res.kinds) {
			res.kinds[k]++
		}
	}
	if keep {
		res.out = out
	}
	res.finish()
	fmt.Fprintf(os.Stderr, "phase rate=%.0f aborted=%v n=%d failed=%d p50=%.2fms p99=%.2fms late.p99=%.2fms backlog=%d cpu/req=%.3fms\n",
		rate, res.aborted, res.attempts, res.failed, res.p50, res.p99, pct(res.late, 99, 0), res.backlog, res.cpuPerReq)
	return res
}

// chunkSize is the number of consecutive requests one latency percentile
// is taken over: a p99 over 1000 requests has ten beyond it.
const chunkSize = 1000

// finish sorts the samples and derives the medians.
func (r *phaseResult) finish() {
	sort.Slice(r.late, func(i, j int) bool { return r.late[i] < r.late[j] })
	p50s, p99s := chunked(r.samples)
	r.p50, r.p99, r.cpuPerReq = median(p50s), median(p99s), median(r.cpuWins)
}

// merge folds phases offered at the same rate (the interleaved rounds of one
// rate) into one result; per-request outcomes concatenate in order.
func merge(rs []*phaseResult) *phaseResult {
	m := &phaseResult{rate: rs[0].rate}
	for _, r := range rs {
		m.dur += r.dur
		m.late = append(m.late, r.late...)
		m.attempts += r.attempts
		m.failed += r.failed
		m.wrong += r.wrong
		m.backlog = max(m.backlog, r.backlog)
		m.gbs += r.gbs
		m.sandboxesPeak = max(m.sandboxesPeak, r.sandboxesPeak)
		m.allocBytes += r.allocBytes
		m.gcCPU += r.gcCPU
		m.allCPU += r.allCPU
		for k := range m.kinds {
			m.kinds[k] += r.kinds[k]
		}
		m.samples = append(m.samples, r.samples...)
		m.cpuWins = append(m.cpuWins, r.cpuWins...)
		m.aborted = m.aborted || r.aborted
		m.out = append(m.out, r.out...)
	}
	m.finish()
	return m
}

// chunked returns the p50 and p99 latency (ms, failures as misses) of
// consecutive chunks of chunkSize samples; a short tail joins the chunk
// before it.
func chunked(samples []time.Duration) (p50s, p99s []float64) {
	for lo := 0; lo < len(samples); {
		hi := lo + chunkSize
		if hi > len(samples) || len(samples)-hi < chunkSize/2 {
			hi = len(samples)
		}
		var lat []time.Duration
		failed := 0
		for _, d := range samples[lo:hi] {
			if d < 0 {
				failed++
				continue
			}
			lat = append(lat, d)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50s = append(p50s, pct(lat, 50, failed))
		p99s = append(p99s, pct(lat, 99, failed))
		lo = hi
	}
	return p50s, p99s
}

// errWrongAnswer marks a served response that does not match the reference.
var errWrongAnswer = fmt.Errorf("response does not match the plaintext reference")

// check decrypts a response with its requester's K_R and compares it with
// the plaintext reference inference of the same model and input.
func check(w *world, a arrival, sealed []byte, ref [][][]byte) error {
	plain, err := semirt.DecryptResponse(w.reqKeys[a.user][a.model], w.models[a.model], sealed)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrongAnswer, err)
	}
	if !bytes.Equal(plain, ref[a.model][a.input]) {
		return errWrongAnswer
	}
	return nil
}
