package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The decomposition pass, the fuzz processes and the spec-exact set-up
// repetitions re-execute the running binary; under go test that is the test
// binary, which hands those invocations to the driver's own entry point.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "--layers" || os.Args[1] == "--fuzz-batch" || os.Args[1] == "--spec-setup") {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// serveBin builds repro-serve once for the tests that need a daemon.
func serveBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repro-serve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/repro-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("building repro-serve: %v\n%s", err, out)
	}
	return bin
}

// shortRun runs one workload at self-test scale and returns the parsed
// result line and the notes printed before it.
func shortRun(t *testing.T, name string, trace bool, exp *expected, bin string) (map[string]any, []string) {
	t.Helper()
	for _, k := range pinnedEnv {
		t.Setenv(k, "")
		os.Unsetenv(k)
	}
	t.Setenv("REPRO_CACHE_DIR", "off")
	rc := &runConfig{
		seed:     7,
		seconds:  200 * time.Millisecond,
		trace:    trace,
		short:    true,
		workdir:  t.TempDir(),
		tmp:      t.TempDir(),
		serveBin: bin,
		expected: exp,
	}
	res, err := measure(context.Background(), workloadsByName[name], rc)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", name, trace, err)
	}
	var buf bytes.Buffer
	if err := printResult(&buf, res, trace); err != nil {
		t.Fatalf("%s (trace=%v): %v", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return out, lines[:len(lines)-1]
}

// benchmarkMetrics reads the metric lists of BENCHMARK.json.
func benchmarkMetrics(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return e2e, layer
}

// TestMetricSurface runs every workload at self-test scale, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit, that every op passed, and that a traced run's count of
// known fuzz divergences matches the verdicts it prints.
func TestMetricSurface(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, driver prints %v", e2e, endToEnd)
	}
	if !equalDefs(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, driver prints %v", layer, perLayer)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	bin := serveBin(t)
	for _, name := range []string{"spec-exact", "fuzz-oracle"} {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			out, notes := shortRun(t, name, trace, exp, bin)
			if out["correct"] != true || out["failed"].(float64) != 0 || out["attempted"].(float64) < 1 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%v failed=%v",
					name, trace, out["correct"], out["attempted"], out["failed"])
			}
			metrics := out["metrics"].(map[string]any)
			if trace {
				diverging := 0
				for _, n := range notes {
					if strings.HasPrefix(n, "# known-divergence ") && strings.Contains(n, ": DIVERGES: ") {
						diverging++
					}
				}
				if m, ok := metrics["fuzzgen.known_divergences"].(map[string]any); ok && m["value"] != float64(diverging) {
					t.Errorf("%s: fuzzgen.known_divergences %v, notes report %d diverging", name, m["value"], diverging)
				}
			}
			if len(metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics, want %d", name, trace, len(metrics), len(want))
			}
			for _, d := range want {
				m, ok := metrics[d.name].(map[string]any)
				if !ok {
					t.Errorf("%s (trace=%v): metric %s missing", name, trace, d.name)
					continue
				}
				if m["unit"] != d.unit {
					t.Errorf("%s (trace=%v): %s unit %v, want %s", name, trace, d.name, m["unit"], d.unit)
				}
				if _, ok := m["value"].(float64); !ok {
					t.Errorf("%s (trace=%v): %s value %v is not a number", name, trace, d.name, m["value"])
				}
			}
		}
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCorruptedReferenceFailsOps checks that a wrong committed output is
// caught: corrupting one SPEC program's reference fails its run on each of
// the three engines, and the result is not correct.
func TestCorruptedReferenceFailsOps(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	bad := *exp
	bad.SPEC = map[string]string{}
	for k, v := range exp.SPEC {
		bad.SPEC[k] = v
	}
	bad.SPEC["453.povray"] += "corrupted"
	out, _ := shortRun(t, "spec-exact", false, &bad, "")
	if out["correct"] != false || out["failed"].(float64) != 3 {
		t.Fatalf("corrupted reference: correct=%v failed=%v, want false and 3", out["correct"], out["failed"])
	}
}

// TestPercentile pins the Harrell–Davis estimator on known cases.
func TestPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5.5}, {95, 9.792057}, {5, 1.207943}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := regIncBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-12 {
		t.Errorf("I_0.4(2, 3) = %v, want 0.5248", got)
	}
}
