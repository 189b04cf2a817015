package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// The default seed is the one the numbers in README.md were taken with;
// the held-out seed is never used while tuning, so a claimed gain can be
// confirmed on inputs it was not fitted to.
const defaultSeed, heldOutSeed = 1, 7

// TestSmoke runs every workload at a tiny size, untraced and traced, on
// both seeds, and requires correct answers and every metric.
func TestSmoke(t *testing.T) {
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, name := range workloads {
			for _, traced := range []bool{false, true} {
				cfg := runConfig{workload: name, seed: seed, tiny: true, trace: traced,
					outDir: t.TempDir(), minOps: 2}
				res, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2*workloadClients(t, name) {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%d failed=%d",
						name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("%s: metric %s = %+v, want unit %s", name, m.name, got, m.unit)
					}
				}
				if !traced {
					for _, m := range endToEnd {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("%s seed %d: %s = %v, want > 0", name, seed, m.name, res.Metrics[m.name].Value)
						}
					}
				} else if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 {
					t.Errorf("%s seed %d: trace coverage %.3f below 0.9", name, seed, cov)
				}
			}
		}
	}
}

func workloadClients(t *testing.T, name string) int {
	w, err := newWorkload(runConfig{workload: name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w.clients()
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the program.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestCrossValidateNET2 cross-validates NET2, the seed-independent network
// of verify-cold, which every run verifies but does not cross-validate.
func TestCrossValidateNET2(t *testing.T) {
	if testing.Short() {
		t.Skip("NET2 cross-validation takes about 13 s")
	}
	w := &verifyCold{cfg: runConfig{seed: defaultSeed}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	s, _, _ := verifyOnce(nil, w.nets[0].texts)
	if err := crossValidate(w.nets[0].name, s, defaultSeed); err != nil {
		t.Fatal(err)
	}
}
