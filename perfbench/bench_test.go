package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsDeterministicInSeed(t *testing.T) {
	for _, sp := range specs {
		a := schedule(sp, 42, phaseHigh, sp.high, 2*time.Second)
		b := schedule(sp, 42, phaseHigh, sp.high, 2*time.Second)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", sp.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", sp.name)
		}
		if c := schedule(sp, 43, phaseHigh, sp.high, 2*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds gave the same schedule", sp.name)
		}
		for i, x := range a {
			if x.at < 0 || x.at >= 2*time.Second || (i > 0 && x.at < a[i-1].at) {
				t.Fatalf("%s: arrival %d at %v out of order or range", sp.name, i, x.at)
			}
			if x.user >= sp.users || x.model >= sp.models || x.input >= sp.inputs {
				t.Fatalf("%s: arrival %d draws outside the deployment: %+v", sp.name, i, x)
			}
			if sp.onOff > 0 && (x.at/sp.onOff)%2 == 1 {
				t.Fatalf("%s: arrival %d at %v falls in an off phase", sp.name, i, x.at)
			}
		}
	}
}

func TestTinyRunOfEachWorkloadServesEveryRequestCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full deployment per workload")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w, err := buildWorld(sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			ref, inputs, err := w.prepareRef()
			if err != nil {
				t.Fatal(err)
			}
			dur := alignPeriod(sp, 400*time.Millisecond)
			jobs, err := prepare(w, schedule(sp, 7, phaseLow, sp.low, dur), inputs, 0)
			if err != nil {
				t.Fatal(err)
			}
			r := drive(w, jobs, sp.low, dur, ref, true)
			if r.attempts == 0 || r.attempts != len(jobs) {
				t.Fatalf("attempted %d of %d scheduled", r.attempts, len(jobs))
			}
			if r.failed != 0 || r.wrong != 0 {
				t.Fatalf("%d failed (%d wrong answers) of %d", r.failed, r.wrong, r.attempts)
			}
			served := 0
			for i, o := range r.out {
				if o.done < o.sent || o.err != nil {
					t.Fatalf("request %d unresolved: %+v", i, o)
				}
				served++
			}
			if served+r.failed != r.attempts || served != r.served() {
				t.Fatalf("accounting: %d served + %d failed != %d attempted", served, r.failed, r.attempts)
			}
		})
	}
}

func TestCheckRejectsAWrongAnswer(t *testing.T) {
	sp, _ := specByName("hot")
	w, err := buildWorld(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	ref, inputs, err := w.prepareRef()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := prepare(w, []arrival{{input: 1}}, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := drive(w, jobs, 1, time.Millisecond, ref, true)
	if r.failed != 0 {
		t.Fatalf("request failed: %v", r.out[0].err)
	}
	sealed := r.out[0].resp.Payload
	if err := check(w, arrival{input: 1}, sealed, ref); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := check(w, arrival{input: 2}, sealed, ref); err == nil {
		t.Fatal("answer for input 1 accepted as the answer for input 2")
	}
}

// TestRunsReportExactlyTheDeclaredMetrics runs both modes briefly and checks
// their metric sets against BENCHMARK.json, and that the traced run could
// attribute every served request to the activation that carried it.
func TestRunsReportExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark in both modes")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("hot")
	for _, mode := range []struct {
		name string
		run  func(spec, int64, time.Duration) (*report, error)
		want []struct{ Name, Unit string }
	}{{"untraced", runUntraced, decl.EndToEnd}, {"traced", runTraced, decl.PerLayer}} {
		rep, err := mode.run(sp, 3, 3*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", mode.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(mode.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", mode.name, len(rep.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := rep.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", mode.name, m.Name, got, ok, m.Unit)
			}
		}
		if mode.name == "traced" {
			if s := rep.Metrics["trace.mapped_share"].Value; s < 0.99 {
				t.Errorf("traced: only %.3f of served requests mapped to their activation", s)
			}
		}
	}
}
