GO ?= go

.PHONY: all build vet test race bench gateway-snapshot routing-snapshot routing-smoke fairness-snapshot fairness-smoke keylocality-snapshot keylocality-smoke autoscale-snapshot autoscale-smoke hol-snapshot hol-smoke chaos-snapshot chaos-smoke frontier-snapshot frontier-smoke rollout-snapshot rollout-smoke obstax-snapshot obstax-smoke perfbench-test clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The gateway is lock-heavy; the race detector gates merges.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=Gateway -benchtime=1x -run=NONE ./internal/bench/

# Regenerate the committed serving-path snapshots.
gateway-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp gateway -json BENCH_gateway.json

routing-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp routing -json BENCH_routing.json

fairness-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp fairness -json BENCH_fairness.json

keylocality-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp keylocality -json BENCH_keylocality.json

autoscale-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp autoscale -json BENCH_autoscale.json

hol-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp hol -json BENCH_hol.json

chaos-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp chaos -json BENCH_chaos.json

frontier-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp frontier -json BENCH_frontier.json

rollout-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp rollout -json BENCH_rollout.json

obstax-snapshot:
	$(GO) run ./cmd/sesemi-bench -exp obstax -json BENCH_obstax.json

# Tiny-scale routing run + 1-iteration contention benchmark: keeps the
# experiment binaries from rotting without paying for the full runs (CI).
routing-smoke:
	$(GO) run ./cmd/sesemi-bench -exp routing -smoke
	$(GO) test -run=NONE -bench=BenchmarkRoutingContention -benchtime=1x ./internal/bench/

# Tiny-scale fairness run (all four modes), so the experiment behind
# BENCH_fairness.json cannot rot.
fairness-smoke:
	$(GO) run ./cmd/sesemi-bench -exp fairness -smoke

# Tiny-scale key-locality run (single-pair vs LRU vs LRU+grouping), so the
# experiment behind BENCH_keylocality.json cannot rot.
keylocality-smoke:
	$(GO) run ./cmd/sesemi-bench -exp keylocality -smoke

# Tiny-scale autoscale run (reactive vs predictive on all three traces), so
# the experiment behind BENCH_autoscale.json cannot rot.
autoscale-smoke:
	$(GO) run ./cmd/sesemi-bench -exp autoscale -smoke

# Tiny-scale head-of-line run (form-then-fire vs continuous batching on a
# heavy-tailed mix), so the experiment behind BENCH_hol.json cannot rot.
hol-smoke:
	$(GO) run ./cmd/sesemi-bench -exp hol -smoke

# Tiny-scale chaos run: seeded node crash + KS flap + sandbox-crash coin with
# the recovery plane armed. Exits non-zero if any request is lost — the CI
# gate on the fault-tolerance claim behind BENCH_chaos.json.
chaos-smoke:
	$(GO) run ./cmd/sesemi-bench -exp chaos -smoke

# Tiny 2-shard frontier sweep: exits non-zero unless sharded throughput is at
# least the single-shard baseline — the CI gate on the scaling claim behind
# BENCH_frontier.json.
frontier-smoke:
	$(GO) run ./cmd/sesemi-bench -exp frontier -smoke

# Tiny canary-rollout ramp against a deliberately slow revision: exits
# non-zero unless the controller auto-rolls it back — drained, measurement
# revoked — with zero lost requests. The CI gate on the rollback claim behind
# BENCH_rollout.json.
rollout-smoke:
	$(GO) run ./cmd/sesemi-bench -exp rollout -smoke

# Tiny observability-tax run: sampled tracing vs disabled on the same closed
# loop. Exits non-zero if the sampled throughput falls below the overhead bar,
# stitched coverage drifts, or the /metrics exposition fails to parse — the CI
# gate on the "tracing is cheap" claim behind BENCH_obstax.json.
obstax-smoke:
	$(GO) run ./cmd/sesemi-bench -exp obstax -smoke

# The benchmark (perfbench/) is its own Go module, which the root
# `go test ./...` does not see: run its tests (schedule determinism, a tiny
# run of each workload, wrong-answer detection), so a change to a seam the
# benchmark wraps cannot silently break it.
perfbench-test:
	cd perfbench && $(GO) test .

clean:
	$(GO) clean ./...
