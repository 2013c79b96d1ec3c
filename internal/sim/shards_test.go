package sim

import (
	"fmt"
	"testing"
	"time"

	"sesemi/internal/costmodel"
	"sesemi/internal/workload"
)

// traceManyUsers is 32 simultaneous single-request users of one model — a
// stream that forms ONE batch on an unsharded gateway and splits across
// shard-suffixed keys under Config.Shards.
func traceManyUsers() workload.Trace {
	tr := make(workload.Trace, 0, 32)
	for i := 0; i < 32; i++ {
		tr = append(tr, workload.Event{At: 0, ModelID: "mbnet", UserID: "u" + string(rune('a'+i))})
	}
	return tr
}

func TestShardsSplitBatchFormation(t *testing.T) {
	cfg := oneAction(SeSeMI, "tvm", "mbnet", 8)
	cfg.Batch = BatchSpec{MaxBatch: 32, MaxWait: 10 * time.Millisecond}

	base := runTrace(t, cfg, traceManyUsers())
	if base.Batches != 1 {
		t.Fatalf("unsharded run formed %d batches, want 1", base.Batches)
	}
	if base.PerShard != nil {
		t.Fatalf("unsharded run populated PerShard: %v", base.PerShard)
	}

	cfg.Shards = 4
	res := runTrace(t, cfg, traceManyUsers())
	if len(res.Requests) != 32 {
		t.Fatalf("sharded run completed %d requests, want 32", len(res.Requests))
	}
	// Users hash across shards, so the single stream must split into one
	// forming batch per populated shard — strictly more flushes than the
	// unsharded run's one.
	if res.Batches <= 1 {
		t.Fatalf("sharded run formed %d batches, want > 1 (stream should split per shard)", res.Batches)
	}
	if len(res.PerShard) != 4 {
		t.Fatalf("PerShard has %d entries, want 4", len(res.PerShard))
	}
	sum, populated := 0, 0
	for _, n := range res.PerShard {
		sum += n
		if n > 0 {
			populated++
		}
	}
	if sum != len(res.Requests) {
		t.Fatalf("PerShard sums to %d, want %d", sum, len(res.Requests))
	}
	if populated < 2 {
		t.Fatalf("only %d shard(s) saw traffic — 32 users should spread across 4", populated)
	}
}

// TestShardsOneIsUnsharded pins the mirror's zero-cost default: Shards ≤ 1
// leaves every observable result identical to an unsharded run.
func TestShardsOneIsUnsharded(t *testing.T) {
	cfg := oneAction(SeSeMI, "tvm", "mbnet", 8)
	cfg.Batch = BatchSpec{MaxBatch: 8, MaxWait: 5 * time.Millisecond, MaxInFlight: 2}

	unset := runTrace(t, cfg, traceManyUsers())
	cfg.Shards = 1
	one := runTrace(t, cfg, traceManyUsers())

	if unset.Batches != one.Batches || len(unset.Requests) != len(one.Requests) ||
		unset.End != one.End || unset.All.Mean() != one.All.Mean() {
		t.Fatalf("Shards=1 diverged from unsharded: batches %d/%d end %v/%v",
			unset.Batches, one.Batches, unset.End, one.End)
	}
	if one.PerShard != nil {
		t.Fatalf("Shards=1 populated PerShard: %v", one.PerShard)
	}
}

// TestShardsRespectPerShardInFlightBound verifies the MaxInFlight dispatch
// bound is enforced per shard-suffixed stream — the aggregate ceiling grows
// with the shard count, mirroring N gateways each owning their own
// MaxInFlight budget.
func TestShardsRespectPerShardInFlightBound(t *testing.T) {
	cfg := oneAction(SeSeMI, "tvm", "mbnet", 8)
	cfg.Nodes = 4
	cfg.Batch = BatchSpec{MaxBatch: 4, MaxWait: time.Millisecond, MaxInFlight: 1}
	cfg.Shards = 4

	res := runTrace(t, cfg, traceManyUsers())
	if len(res.Requests) != 32 {
		t.Fatalf("completed %d requests, want 32", len(res.Requests))
	}
	sum := 0
	for _, n := range res.PerShard {
		sum += n
	}
	if sum != 32 {
		t.Fatalf("PerShard sums to %d, want 32", sum)
	}
}

// TestShardsShareModelHomes mirrors the frontier's shared home table: with
// every model's users hashed across two shards, each model still has
// exactly one home, and the spread rule counts models frontier-wide — four
// models land two per node.
func TestShardsShareModelHomes(t *testing.T) {
	cfg := Config{
		System:       SeSeMI,
		HW:           costmodel.SGX2,
		Nodes:        2,
		CoresPerNode: 12,
		NodeMemory:   4 << 30,
		SandboxStart: 50 * time.Millisecond,
		KeepWarm:     10 * time.Minute,
		Actions: []ActionSpec{{
			Name: "fn", Framework: "tvm", Concurrency: 4, DefaultModel: "mbnet",
		}},
		ModelCosts: map[string]string{"ma": "mbnet", "mb": "mbnet", "mc": "mbnet", "md": "mbnet"},
		Affinity:   true,
		Shards:     2,
		Batch:      BatchSpec{MaxBatch: 4, MaxWait: 5 * time.Millisecond},
	}
	var tr workload.Trace
	for i := 0; i < 32; i++ {
		for _, m := range []string{"ma", "mb", "mc", "md"} {
			tr = append(tr, workload.Event{At: time.Duration(i) * 20 * time.Millisecond, ModelID: m,
				UserID: fmt.Sprintf("u%d", i)})
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != len(tr) {
		t.Fatalf("completed %d of %d", len(res.Requests), len(tr))
	}
	if len(res.PerShard) != 2 || res.PerShard[0] == 0 || res.PerShard[1] == 0 {
		t.Fatalf("users did not spread across both shards: %v", res.PerShard)
	}
	if len(s.homes) != 4 {
		t.Fatalf("%d homes for 4 models: %v", len(s.homes), s.homes)
	}
	for n, c := range s.homeCount {
		if c != 2 {
			t.Fatalf("node %d homes %d models, want 2", n.id, c)
		}
	}
}
