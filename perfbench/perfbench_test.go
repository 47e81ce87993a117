package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"activesan/internal/exp"
	"activesan/internal/metrics"
	"activesan/internal/sim"
)

// repoRoot is the repository root seen from this package's directory.
const repoRoot = ".."

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json and perfbench's metric
// and workload tables in step: same names, units and directions.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, perfbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs the exchange, whose traced run also covers
// the partitioned reference, untraced and traced and checks that each
// prints exactly its table's metrics, with their units, and verifies clean.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 256-host fat tree several times")
	}
	for _, traced := range []bool{false, true} {
		b, err := newBench(workloadByName("exchange-ft256"), 1, repoRoot)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.run(time.Nanosecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics emitted, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s emitted as %+v (present %v), want unit %s", traced, d.Name, v, ok, d.Unit)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestCorruptedSortCountFails flips one record count in a real fig13 result
// and checks that verification counts the failure.
func TestCorruptedSortCountFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig13")
	}
	b, err := newBench(workloadByName("fig13-sort"), 1, repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := exp.ByID("fig13")
	res := e.Run(fig13Scale)

	clean := &outcome{}
	verifyFig13(b, clean, res)
	if clean.failed != 0 {
		t.Fatalf("clean fig13 failed verification: %v", clean.errors)
	}
	res.Runs[2].Extra["counts"].([]int64)[1]++
	bad := &outcome{}
	verifyFig13(b, bad, res)
	if bad.failed == 0 {
		t.Fatal("flipped sort count passed verification")
	}
	r := &result{Attempted: bad.checks, Failed: bad.failed}
	if r.FailedFrac() <= 0 {
		t.Fatalf("failed_frac %v after a corrupted result", r.FailedFrac())
	}
}

// TestIncompleteExchangeFails checks the exchange's completion and NIC
// byte-balance checks against a synthetic result.
func TestIncompleteExchangeFails(t *testing.T) {
	b, err := newBench(workloadByName("exchange-ft256"), 1, repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	snap := metrics.NewSnapshot()
	snap.Set("h0/nic/bytes_in", exHosts*exRounds*exBytes)
	snap.Set("h0/nic/bytes_out", exHosts*exRounds*exBytes)
	done := make([]int, exHosts)
	for i := range done {
		done[i] = exRounds
	}
	clean := &outcome{}
	verifyExchange(b, clean, sim.Time(1), 0, snap, done)
	if clean.failed != 0 {
		t.Fatalf("complete exchange failed verification: %v", clean.errors)
	}
	done[7]--
	snap.Set("h0/nic/bytes_in", exHosts*exRounds*exBytes-exBytes)
	bad := &outcome{}
	verifyExchange(b, bad, sim.Time(1), 0, snap, done)
	if bad.failed != 2 {
		t.Fatalf("incomplete exchange: %d checks failed, want 2 (%v)", bad.failed, bad.errors)
	}
}

// TestModuleAttribution pins the profile bucketing rules.
func TestModuleAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapassign_fast64", "activesan/internal/cluster.installShortestPaths", "main.main"}, "cluster"},
		{[]string{"runtime.chansend1", "activesan/internal/sim.(*Proc).block", "activesan/internal/nic.(*NIC).rxLoop"}, "handoff"},
		{[]string{"activesan/internal/sim.(*Engine).popNext", "activesan/internal/sim.(*Proc).block"}, "sim"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "handoff"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "activesan/internal/san.NewLink"}, "gc"},
		{[]string{"encoding/json.(*encodeState).marshal", "activesan.ResultJSON"}, "report"},
		{[]string{"activesan/internal/apps/psort.Run.func1"}, "apps"},
		{[]string{"activesan/internal/aswitch.(*Ctx).Compute"}, "aswitch"},
		{[]string{"runtime.sysmon", "runtime.mstart1"}, ""},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
