package main

import (
	"math"
	"math/rand"
	"time"

	"sesemi/internal/gateway"
)

// spec is one workload: the deployment it runs against and the open-loop
// traffic it offers. Rates are requests per second during "on" time; for an
// on/off workload the mean offered rate is half the stated rate.
type spec struct {
	name string

	// Deployment.
	nodes      int
	nodeMemory int64
	users      int
	models     int
	padBytes   int           // pad every model blob to this size (0 = functional size)
	shards     int           // >1 enters through a sharded frontier
	keepWarm   time.Duration // 0 = cluster default (3 min)
	reaper     time.Duration // 0 = no reaper
	gw         gateway.Config

	// Traffic.
	userSkew   float64       // Zipf s over users (0 = uniform)
	modelSkew  float64       // Zipf s over models (0 = uniform)
	inputs     int           // distinct input tensors
	onOff      time.Duration // >0: arrivals only in the first half of each 2*onOff period
	low, high  float64       // the two fixed rates
	ladderFrom float64       // lowest rate of the goodput ladder above high
	limit      time.Duration // p99 latency limit behind goodput_rps
	deadline   time.Duration // per-request deadline; a miss is a failure

	// modeled names the costs on this workload's path that are slept or
	// configured rather than computed.
	modeled []string
}

// invokeOverhead is the cluster's modeled per-activation platform overhead,
// the only slept cost on every workload's path.
const invokeOverhead = 2 * time.Millisecond

// keyServiceTCS is the KeyService enclave's TCS count. Every open KeyService
// connection binds one TCS for its lifetime and a new one waits for a free
// TCS without a timeout, so a world must keep its principal clients plus
// live runtime sessions below it.
const keyServiceTCS = 64

var specs = []spec{
	{
		// One user, one model, one gateway: nearly every request takes the
		// semirt hot path, so batching, the cluster claim, the wire codec
		// and tensor compute do the work; keyservice, storage and the
		// frontier sit idle.
		name:  "hot",
		nodes: 1, nodeMemory: 512 << 20, users: 1, models: 1,
		gw:     gateway.Config{Affinity: true, PrewarmDepth: 16},
		inputs: 16,
		low:    400, high: 1000, ladderFrom: 2000,
		limit:    100 * time.Millisecond,
		deadline: 2 * time.Second,
		modeled:  []string{"InvokeOverhead=2ms per activation (cluster clock)"},
	},
	{
		// More principals and models than the warm enclaves' key caches
		// and sandboxes hold, through a 2-shard frontier: key fetches,
		// model fetch + decrypt and reloads recur, so keyservice, storage,
		// the key cache and frontier routing do the work. The rates are
		// kept low because this workload's CPU per request is several
		// times hot's, and its latency follows the machine's spare CPU.
		name:  "churn",
		nodes: 2, nodeMemory: 512 << 20, users: 32, models: 4, padBytes: 1 << 20, shards: 2,
		gw:        gateway.Config{Affinity: true, GroupUsers: true, PrewarmDepth: 16},
		userSkew:  1.1,
		modelSkew: 1.1,
		inputs:    8,
		low:       150, high: 300, ladderFrom: 600,
		limit:    100 * time.Millisecond,
		deadline: 2 * time.Second,
		modeled:  []string{"InvokeOverhead=2ms per activation (cluster clock)"},
	},
	{
		// On/off arrivals with a keep-warm shorter than the off phase and
		// the reaper on: each burst meets reaped sandboxes and pays real
		// cold starts (sandbox, enclave launch, RA-TLS mutual attestation,
		// model load, runtime init), so the sandbox lifecycle and prewarm
		// do the work.
		name:  "burst",
		nodes: 2, nodeMemory: 512 << 20, users: 1, models: 1,
		keepWarm: 150 * time.Millisecond, reaper: 25 * time.Millisecond,
		gw:     gateway.Config{Affinity: true, PrewarmDepth: 16},
		inputs: 16,
		onOff:  400 * time.Millisecond,
		low:    800, high: 1200, ladderFrom: 1800,
		limit:    150 * time.Millisecond,
		deadline: 2 * time.Second,
		modeled: []string{"InvokeOverhead=2ms per activation (cluster clock)",
			"KeepWarm=150ms, reaper every 25ms (deployment setting, not the 3-minute default)"},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// arrival is one scheduled request: when it is due (offset from the phase
// start), who sends it, for which model, and with which input tensor.
type arrival struct {
	at                 time.Duration
	user, model, input int
}

// phaseSeed derives an independent stream per (run seed, phase), so a phase's
// schedule does not depend on how many draws earlier phases made.
func phaseSeed(seed int64, phase int) int64 {
	return seed*1_000_003 + int64(phase)*7919 + 17
}

// schedule draws the open-loop arrivals for one phase: Poisson at rate
// (during on time only, for an on/off workload) over dur, with Zipf-skewed
// users and models and uniform inputs. The same (seed, phase) always gives
// the same schedule.
func schedule(sp spec, seed int64, phase int, rate float64, dur time.Duration) []arrival {
	r := rand.New(rand.NewSource(phaseSeed(seed, phase)))
	pick := func(n int, skew float64) func() int {
		if n <= 1 {
			return func() int { return 0 }
		}
		if skew <= 1 {
			return func() int { return r.Intn(n) }
		}
		z := rand.NewZipf(r, skew, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	user := pick(sp.users, sp.userSkew)
	model := pick(sp.models, sp.modelSkew)
	var out []arrival
	var t float64 // seconds of "on" time elapsed
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if sp.onOff > 0 {
			// Map on-time onto the wall schedule: every onOff of on time is
			// followed by onOff of silence.
			cycles := at / sp.onOff
			at = cycles*2*sp.onOff + at%sp.onOff
		}
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, user: user(), model: model(), input: r.Intn(sp.inputs)})
	}
}

// alignPeriod rounds a phase length up to whole on/off periods, so every
// phase of an on/off workload offers the same mix of bursts and silences.
func alignPeriod(sp spec, d time.Duration) time.Duration {
	if sp.onOff <= 0 {
		return d
	}
	p := 2 * sp.onOff
	return time.Duration(math.Ceil(float64(d)/float64(p))) * p
}
