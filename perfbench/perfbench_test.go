package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// lastLine decodes the JSON result line a run ends with.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return line
}

// TestEveryMetricReported runs each workload briefly, untraced and traced,
// and checks that the result line carries exactly the declared metrics,
// each with its unit, and that every query was correct.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	m, err := loadModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				line := lastLine(t, stdout.String())
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				defs := m.EndToEnd
				if trace == "1" {
					defs = m.PerLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := line.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
					}
				}
			})
		}
	}
}

// TestWrongReferenceFails gives each workload a wrong reference digest and
// checks that every query it runs is reported as failed, so the correctness
// check cannot pass silently.
func TestWrongReferenceFails(t *testing.T) {
	const wrong = "0000000000000000000000000000000000000000000000000000000000000000"
	h, err := newHeadline(1)
	if err != nil {
		t.Fatal(err)
	}
	h.ref = wrong
	r, err := newRepo(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.refJ = wrong
	f, err := newFederated(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	f.ref = wrong
	for name, w := range map[string]workload{"headline": h, "repo": r, "federated": f} {
		out := measure(w, 50*time.Millisecond, nil)
		if out.attempted == 0 || out.failed != out.attempted {
			t.Errorf("%s: %d of %d queries failed, want all", name, out.failed, out.attempted)
		}
		if out.firstErr == nil || !strings.Contains(out.firstErr.Error(), "digest") {
			t.Errorf("%s: first failure %v, want a digest mismatch", name, out.firstErr)
		}
	}
}

// TestBenchmarkDeclaresModel checks that BENCHMARK.json declares the same
// metrics, with the same units, as the benchmark reports.
func TestBenchmarkDeclaresModel(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	m, err := loadModel()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, model.json %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, model.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, m.EndToEnd)
	same("per_layer", bench.PerLayer, m.PerLayer)
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %v", len(bench.Workloads), workloadNames)
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 2, Start: 15, End: 20},  // grandchild: not subtracted from 1
		{ID: 5, Parent: 1, Start: 90, End: 120}, // clipped to the parent
	}
	if got := selfNS(spans[0], spans); got != 40 {
		t.Errorf("self = %d, want 40", got)
	}
	if got := selfNS(spans[1], spans); got != 25 {
		t.Errorf("self = %d, want 25", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}
