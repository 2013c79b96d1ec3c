// Command perfbench is the repository's benchmark: it runs the in-process
// SeSeMI serving stack (frontier → gateway → serverless → semirt ECall →
// keyservice/storage) on real tinytvm compute under one of three seeded
// open-loop workloads, checks every answer against a plaintext reference,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	go run . --workload hot --seed 1 --seconds 30 --trace 0
//
// --trace 0 is the untraced run (nothing wrapped, tracing off) and reports
// the end-to-end metrics; --trace 1 wraps the stack's seams, turns the
// tracer on, runs a short pass over single layers, and reports the
// per-layer metrics. perfbench/run.sh builds and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: hot, churn or burst")
	seed := flag.Int64("seed", 1, "seed for arrivals and the request sequence")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics)")
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	S := time.Duration(*seconds) * time.Second
	stopWatchdog := watchdog(S + 120*time.Second)
	defer stopWatchdog()

	env := fingerprint(sp, *seed, *seconds, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(sp, *seed, S)
	} else {
		rep, err = runUntraced(sp, *seed, S)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// watchdog aborts a run that outlives its budget with a goroutine dump and
// a non-zero exit, so a hang never leaves the caller waiting.
func watchdog(budget time.Duration) (stop func()) {
	t := time.AfterFunc(budget, func() {
		buf := make([]byte, 1<<22)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v; goroutines:\n%s\n", budget, buf[:n])
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// fingerprint records where and how a result was measured.
func fingerprint(sp spec, seed int64, seconds, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"workload":   sp.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"rates_rps":  []float64{sp.low, sp.high},
		"on_off_ms":  sp.onOff.Milliseconds(),
		"limit_ms":   sp.limit.Milliseconds(),
		"modeled":    sp.modeled,
		"ks_tcs":     keyServiceTCS,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// plan splits a run of S seconds into rounds of a warm-up, a low-rate and a
// high-rate phase (interleaved, so a slow spell of the machine lands on both
// rates rather than on one). The untraced run is all rounds; the traced run
// has fewer, plus the goodput ladder and the traced replay.
type plan struct {
	warm, low, high, step       time.Duration
	rounds, tracedRounds, steps int
}

func planFor(sp spec, S time.Duration) plan {
	frac := func(f float64) time.Duration { return alignPeriod(sp, time.Duration(f*float64(S))) }
	return plan{warm: frac(0.025), low: frac(0.0625), high: frac(0.075), step: frac(0.06),
		rounds: 6, tracedRounds: 3, steps: 4}
}

// Phase ids seed each phase's schedule independently.
const (
	phaseWarm   = 0   // + round
	phaseLow    = 100 // + round
	phaseHigh   = 200 // + round
	phaseLadder = 300 // + step
)

// setups is how many worlds the untraced run builds; setup_s is their
// median. Each round uses one, the rest are built and closed at the start.
const setups = 9

// runUntraced measures the end-to-end metrics: set-up (median of several),
// latency at the low and high rates, and CPU and memory cost. Each round
// runs on a freshly built world, so the metrics are medians over several
// independent evolutions of the deployment (which sandbox ends up holding
// which model, whose keys stay cached) rather than over one.
func runUntraced(sp spec, seed int64, S time.Duration) (*report, error) {
	pl := planFor(sp, S)
	var setupTimes []float64
	build := func() (*world, error) {
		t0 := time.Now()
		w, err := buildWorld(sp, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		return w, nil
	}
	for len(setupTimes) < setups-pl.rounds {
		w, err := build()
		if err != nil {
			return nil, err
		}
		w.close()
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var ref [][][]byte
	var inputs [][]byte
	nextID := 0
	run := func(w *world, phase int, rate float64, dur time.Duration) (*phaseResult, error) {
		jobs, err := prepare(w, schedule(sp, seed, phase, rate, dur), inputs, nextID)
		if err != nil {
			return nil, err
		}
		nextID += len(jobs)
		r := drive(w, jobs, rate, dur, ref, false)
		rep.Attempted += r.attempts
		rep.Failed += r.failed
		if r.wrong > 0 {
			rep.Correct = false
		}
		return r, nil
	}
	var lows, highs []*phaseResult
	var w *world
	for k := 0; k < pl.rounds; k++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = build(); err != nil {
			return nil, err
		}
		if ref == nil {
			if ref, inputs, err = w.prepareRef(); err != nil {
				w.close()
				return nil, err
			}
		}
		if _, err := run(w, phaseWarm+k, sp.low, pl.warm); err != nil {
			w.close()
			return nil, err
		}
		l, err := run(w, phaseLow+k, sp.low, pl.low)
		if err != nil {
			w.close()
			return nil, err
		}
		h, err := run(w, phaseHigh+k, sp.high, pl.high)
		if err != nil {
			w.close()
			return nil, err
		}
		lows, highs = append(lows, l), append(highs, h)
	}
	w.close()
	low, high := merge(lows), merge(highs)

	m := rep.Metrics
	m["setup_s"] = metric{median(setupTimes), "s"}
	m["p50_ms.low"] = metric{low.p50, "ms"}
	m["p50_ms.high"] = metric{high.p50, "ms"}
	m["cpu_ms_per_req"] = metric{high.cpuPerReq, "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["gbs_per_kreq"] = metric{(low.gbs + high.gbs) / (float64(low.served()+high.served()) / 1000), "GB-s"}
	return rep, nil
}

func perReq(d time.Duration, served int) float64 {
	if served == 0 {
		return 0
	}
	return float64(d) / 1e6 / float64(served)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// prepareRef computes the reference outputs and the workload's input
// tensors (set-up work outside every timed window).
func (w *world) prepareRef() ([][][]byte, [][]byte, error) {
	ref, err := w.reference()
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	inputs := make([][]byte, w.sp.inputs)
	for k := range inputs {
		inputs[k] = w.input(k)
	}
	return ref, inputs, nil
}

// pass reports whether a phase meets the workload's goodput conditions: it
// ran to the end, its p99 (failures counted as misses) is within the latency
// limit, at most 0.1% failed, the backlog left when the generator finished
// is no larger than the rate clears within the limit (Little's law) or 2% of
// the phase's requests, whichever is more, and the generator kept to its
// schedule (p99 lateness within the limit).
func pass(sp spec, r *phaseResult) bool {
	return !r.aborted && r.p99 <= float64(sp.limit)/1e6 &&
		float64(r.failed) <= 0.001*float64(r.attempts) &&
		float64(r.backlog) <= math.Max(r.rate*sp.limit.Seconds(), 0.02*float64(r.attempts)) &&
		pct(r.late, 99, 0) <= float64(sp.limit)/1e6
}

// ladder finds goodput_rps: starting from the high rate it raises the rate
// by 40% per step (to at least ladderFrom) while the step passes, then
// bisects the bracket. The result is the served rate of the highest passing
// step plus the share of the gap to the first failing step that the p99
// (log-interpolated against the limit) still allows, so it moves smoothly
// rather than by whole steps.
func ladder(sp spec, pl plan, low, high *phaseResult, step func(k int, rate float64) (*phaseResult, error)) (float64, error) {
	var ok, bad *phaseResult
	switch {
	case pass(sp, high):
		ok = high
	case pass(sp, low):
		ok, bad = low, high
	default:
		return servedRate(low) * clamp(float64(sp.limit)/1e6/low.p99, 0, 1), nil
	}
	for k := 0; k < pl.steps; k++ {
		rate := math.Max(ok.rate*1.4, sp.ladderFrom)
		if bad != nil {
			if bad.rate-ok.rate < 0.05*ok.rate {
				break
			}
			rate = (ok.rate + bad.rate) / 2
		}
		r, err := step(k, rate)
		if err != nil {
			return 0, err
		}
		if pass(sp, r) {
			ok = r
		} else {
			bad = r
		}
	}
	g := servedRate(ok)
	if bad == nil {
		return g, nil
	}
	lo, hi := ok.p99, bad.p99
	frac := 0.0
	if limit := float64(sp.limit) / 1e6; hi > limit && lo < limit {
		frac = clamp(math.Log(limit/lo)/math.Log(hi/lo), 0, 1)
	}
	return g + frac*(bad.rate-ok.rate), nil
}

func servedRate(r *phaseResult) float64 { return float64(r.served()) / r.dur.Seconds() }

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
