package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// tinyOptions run every workload for two measured iterations on the
// shrunken worlds.
func tinyOptions(trace bool) options {
	return options{seed: 3, seconds: 1e-9, trace: trace, setups: 1, minIters: 2, sz: tinySizes}
}

// TestWorkloadsTiny runs every workload untraced and traced: each must
// pass its oracle and report every metric BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) { checkTiny(t, w, trace) })
		}
	}
}

func checkTiny(t *testing.T, w workload, trace bool) {
	rep, err := runWorkload(context.Background(), w, tinyOptions(trace))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted < 3 {
		t.Errorf("correct=%v failed=%d attempted=%d", rep.correct, rep.failed, rep.attempted)
	}
	want := endToEnd
	if trace {
		want = perLayer()
	}
	if len(rep.final) != len(want) {
		t.Errorf("%d summary metrics, want %d", len(rep.final), len(want))
	}
	for _, m := range want {
		got, ok := rep.final[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %+v, want a number in %s", m.name, got, m.unit)
		}
		if !trace && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, got.Value)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{5, 1, 4, 2, 3}, 0.75, 4},
		{[]float64{4, 3, 2, 1}, 0.5, 2.5},
		{[]float64{4, 3, 2, 1}, 0.75, 3.25},
		{[]float64{4, 3, 2, 1}, 0, 1},
		{[]float64{4, 3, 2, 1}, 1, 4},
		{[]float64{7}, 0.99, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// TestSelfTimeOverlappingChildren checks that concurrent children are
// subtracted from their parent as a union, not a sum.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Iter: 7, Name: rootSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Iter: 7, Name: "coord.worker", Start: 10, End: 50},
		{ID: 2, Parent: 0, Iter: 7, Name: "coord.worker", Start: 30, End: 70},
		{ID: 3, Parent: 1, Iter: 7, Name: "coord.acquire", Start: 20, End: 30},
		{ID: 4, Parent: 2, Iter: 7, Name: "coord.acquire", Start: 40, End: 45},
		{ID: 5, Parent: 2, Iter: 7, Name: "coord.idle", Start: 42, End: 60},
		{ID: 6, Parent: -1, Iter: 8, Name: rootSpan, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	if len(got) != 2 {
		t.Fatalf("%d iterations, want 2", len(got))
	}
	want := map[string]int64{
		rootSpan:        100 - 60, // children cover [10,70]
		"coord.worker":  (40 - 10) + (40 - 20),
		"coord.acquire": 10 + 5,
		"coord.idle":    18,
	}
	if got[0].wall != 100 {
		t.Errorf("wall = %d, want 100", got[0].wall)
	}
	for name, w := range want {
		if got[0].self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, got[0].self[name], w)
		}
	}
	if got[1].wall != 10 || got[1].self[rootSpan] != 10 {
		t.Errorf("second iteration = %+v, want wall and glue 10", got[1])
	}
}

// mismatch is a workload whose oracle disagrees with its iterations.
type mismatch struct{}

func (mismatch) iterate(context.Context, int, *tracer, int32) (result, error) {
	return result{finish: func() (uint64, map[string]float64) { return 1, nil }}, nil
}
func (mismatch) check(_ context.Context, res []result) error {
	return matchDigests(res, map[int]uint64{0: 2})
}
func (mismatch) close() error { return nil }

// TestMismatchedOracleFailsTheRun checks that a wrong output is reported
// as correct=false on the last line and a non-zero exit.
func TestMismatchedOracleFailsTheRun(t *testing.T) {
	wl := []workload{{"mismatch", func(int64, sizes, phases) (instance, error) { return mismatch{}, nil }}}
	var out bytes.Buffer
	code := run([]string{"-workload", "mismatch", "-seconds", "0.001"}, &out, wl, tinyOptions(false))
	if code == 0 {
		t.Error("exit status 0 for a mismatched oracle")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Attempted == 0 {
		t.Errorf("summary %+v, want correct=false after some attempts", last)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code naming the same
// workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
