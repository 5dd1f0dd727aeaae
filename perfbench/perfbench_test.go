package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"confllvm/internal/scenario"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {99, 3.97}, {100, 4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile modified its input: %v", xs)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestGeomeanOverhead(t *testing.T) {
	if got := geomeanOverheadPct([]float64{1.1, 1.1}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean of 1.1s = %v%%, want 10%%", got)
	}
	if got := geomeanOverheadPct([]float64{2, 0.5}); math.Abs(got) > 1e-9 {
		t.Errorf("geomean of 2 and 0.5 = %v%%, want 0%%", got)
	}
}

func TestPassOrderIsSeeded(t *testing.T) {
	a := passOrder(1, 0, 24)
	if !reflect.DeepEqual(a, passOrder(1, 0, 24)) {
		t.Fatal("same seed and pass gave different op orders")
	}
	seen := make([]bool, 24)
	for _, i := range a {
		if seen[i] {
			t.Fatalf("op order %v is not a permutation", a)
		}
		seen[i] = true
	}
	if reflect.DeepEqual(a, passOrder(2, 0, 24)) {
		t.Error("a different seed gave the same op order")
	}
	if reflect.DeepEqual(a, passOrder(1, 1, 24)) {
		t.Error("a different pass gave the same op order")
	}
}

func TestServeTrafficIsSeeded(t *testing.T) {
	items := serveItems(true)
	for _, it := range items {
		w1, e1, err := scenario.Traffic(serveTraffic(it, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		w2, e2, _ := scenario.Traffic(serveTraffic(it, 1, 0))
		if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(e1, e2) {
			t.Errorf("%s: same seed gave different traffic", it.prog)
		}
		w3, _, _ := scenario.Traffic(serveTraffic(it, 2, 0))
		if reflect.DeepEqual(w1, w3) {
			t.Errorf("%s: a different seed gave the same traffic", it.prog)
		}
		w4, _, _ := scenario.Traffic(serveTraffic(it, 1, 1))
		if reflect.DeepEqual(w1, w4) {
			t.Errorf("%s: a different pass gave the same traffic", it.prog)
		}
	}
	// Every variant of a family sees the same traffic in a pass.
	if serveTraffic(items[0], 1, 3).Seed != serveTraffic(items[1], 1, 3).Seed {
		t.Error("variants of one family got different traffic")
	}
}

// smoke runs a workload on reduced inputs for a moment.
func smoke(t *testing.T, workload string, trace bool) *runner {
	t.Helper()
	r, err := run(config{workload: workload, seed: 1, seconds: 0.01, trace: trace, short: true, setupReps: 2})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if r.failed != 0 || r.attempted < len(r.items) {
		t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", workload, trace, r.attempted, r.failed, r.errs)
	}
	return r
}

// benchmarkJSON is the metric catalogue of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// inOpLayers are the layers each workload's ops call; the others run only
// in set-up or, for scenario, outside the op clock.
var inOpLayers = map[string][]string{
	"spec":  {"loader", "machine", "trt"},
	"serve": {"loader", "machine", "trt"},
	"build": {"minic", "irgen", "opt", "taint", "codegen", "link", "verify"},
}

func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"spec", "serve", "build"}) {
		t.Fatalf("BENCHMARK.json workloads = %v", names)
	}
	for _, wl := range names {
		t.Run(wl, func(t *testing.T) {
			plain := smoke(t, wl, false)
			traced := smoke(t, wl, true)
			again := smoke(t, wl, false)

			e2e := plain.endToEnd()
			if len(e2e) != len(b.EndToEnd) {
				t.Fatalf("%d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(b.EndToEnd))
			}
			for i, m := range e2e {
				want := b.EndToEnd[i]
				if m.name != want.Name || m.unit != want.Unit || m.better != want.Better {
					t.Errorf("end-to-end metric %d is %s %s %s, BENCHMARK.json says %+v", i, m.name, m.unit, m.better, want)
				}
				if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v, want a positive number", m.name, m.value)
				}
			}
			pl := traced.perLayer()
			if len(pl) != len(b.PerLayer) {
				t.Fatalf("%d per-layer metrics, BENCHMARK.json lists %d", len(pl), len(b.PerLayer))
			}
			for i, m := range pl {
				want := b.PerLayer[i]
				if m.name != want.Name || m.unit != want.Unit || m.better != want.Better {
					t.Errorf("per-layer metric %d is %s %s %s, BENCHMARK.json says %+v", i, m.name, m.unit, m.better, want)
				}
				// Only the traced-minus-untraced gap may come out negative.
				if (m.value < 0 && m.name != "trace.overhead_pct") || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}

			// The in-op layer self times plus the unattributed remainder
			// account for the traced op time. The op clock runs inside the
			// op span, so the spans may exceed it by the tracer's own cost.
			byName := map[string]float64{}
			for _, m := range pl {
				byName[m.name] = m.value
			}
			sum := byName["op.unattributed_ms"]
			for _, l := range inOpLayers[wl] {
				sum += byName[l+".busy_ms"]
			}
			if tms := byName["op.traced_ms"]; sum < tms || sum > tms*1.05+0.01 {
				t.Errorf("in-op layer times plus op.unattributed_ms = %v ms, op.traced_ms = %v ms", sum, tms)
			}

			// Exact quantities agree between the untraced run, the traced
			// run and a repeat with the same seed.
			for _, r := range []*runner{traced, again} {
				m1, s1 := plain.overheads()
				m2, s2 := r.overheads()
				if m1 != m2 || s1 != s2 {
					t.Errorf("overheads differ between runs: %v/%v vs %v/%v", m1, s1, m2, s2)
				}
				if len(plain.exact) != len(r.exact) {
					t.Fatalf("exact sets differ in size: %d vs %d", len(plain.exact), len(r.exact))
				}
				for i := range plain.exact {
					if plain.exact[i].fp != r.exact[i].fp {
						t.Errorf("exact op %d: fingerprint differs between runs", i)
					}
				}
			}

			var buf bytes.Buffer
			res, err := report(&buf, plain, hostFingerprint())
			if err != nil || !res.Correct {
				t.Fatalf("report: %v %+v", err, res)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if len(last.Metrics) != len(b.EndToEnd) || last.Attempted != plain.attempted {
				t.Errorf("JSON result %+v does not match the run", last)
			}
		})
	}
}

// TestFailedOpsCount checks that a wrong output fails the op, which
// still counts as attempted, and makes the result incorrect.
func TestFailedOpsCount(t *testing.T) {
	saved := specChecksumsJSON
	defer func() { specChecksumsJSON = saved }()
	specChecksumsJSON = []byte(`{"full": {}, "short": {"bzip2": 1}}`)
	r, err := run(config{workload: "spec", seed: 1, seconds: 0.01, short: true, setupReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != r.attempted || r.attempted != len(r.items) {
		t.Fatalf("attempted %d, failed %d, want all %d failed", r.attempted, r.failed, len(r.items))
	}
	var buf bytes.Buffer
	if res, _ := report(&buf, r, host{}); res.Correct {
		t.Error("a run with failed ops reported correct")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{workload: "nope", seconds: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}
