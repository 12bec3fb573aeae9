package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// benchWorkers is the worker count every workload uses, whatever the
// host: both commits of a comparison then do identical work.
const benchWorkers = 2

// workload is one set of inputs the benchmark runs; README.md records
// why each was chosen.
type workload struct {
	name  string
	setup func(seed int64, sz sizes, ph phases) (instance, error)
}

// instance is a set-up workload. Every workload is a closed loop: the
// next iteration starts when the previous one returns.
type instance interface {
	// iterate runs iteration i. tr is nil on untraced runs; root is the
	// iteration's root span, the parent of every layer span it records.
	iterate(ctx context.Context, i int, tr *tracer, root int32) (result, error)
	// check recomputes the outputs of every iteration by an independent
	// path and reports the first mismatch. It runs after the timed loops.
	check(ctx context.Context, res []result) error
	close() error
}

// result is one iteration's output as the harness sees it.
type result struct {
	// key groups iterations that must produce identical outputs (the
	// census month they seed from).
	key int
	// finish runs after the timer stops and reads the outputs: the
	// digest of what check recomputes independently, and per-iteration
	// layer values (counts, plan shares) keyed by per-layer metric name.
	finish func() (digest uint64, vals map[string]float64)
	digest uint64
	vals   map[string]float64
	// failedOps counts operations inside the iteration that failed but
	// were absorbed (probe errors, failed RPC attempts).
	failedOps int
	// ops holds the durations, in ms, of operations the workload times
	// inside the iteration (the fleet's RPC attempts and store saves),
	// keyed by operation; the untraced loop pools them across iterations.
	ops map[string][]float64
	// state is held until the iteration's live heap has been measured.
	state any
}

// phases accumulates named set-up phase durations.
type phases map[string]time.Duration

// time starts timing phase name and returns the function that stops it.
func (p phases) time(name string) func() {
	t0 := time.Now()
	return func() { p[name] += time.Since(t0) }
}

// setupPhases are the set-up phases a workload may report; each becomes
// the per-layer metric setup.<phase>_s, the phase's median over set-ups.
var setupPhases = []string{"topo", "churn", "write", "world"}

// options control one run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// The workload is set up at least setups times and until
	// setupSeconds have passed; setup_s is the median set-up, and the
	// last set-up is the one measured. Repeating cheap set-ups keeps a
	// millisecond-scale median steady.
	setups       int
	setupSeconds float64
	// minIters is the fewest measured iterations per loop, even when
	// seconds run out first.
	minIters int
	sz       sizes
}

// sample is one measured iteration.
type sample struct {
	key     int
	ms      float64
	liveMB  float64
	allocMB float64
	gcs     float64
	vals    map[string]float64
}

// report is everything one workload run prints.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	lines     []metricLine
	// final holds the metrics of the closing summary line: the
	// end-to-end set untraced, the per-layer set traced.
	final map[string]metricValue
}

type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Value    float64 `json:"value"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) add(name, unit string, n int, v float64, final bool) {
	r.lines = append(r.lines, metricLine{Workload: r.workload, Metric: name, Unit: unit, N: n, Value: v})
	if final {
		r.final[name] = metricValue{Value: v, Unit: unit}
	}
}

// runtimeReader reads the runtime counters the harness samples around
// every iteration.
type runtimeReader struct{ s []metrics.Sample }

func newRuntimeReader() *runtimeReader {
	return &runtimeReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// read returns cumulative allocated bytes, GC cycles and live heap bytes.
func (r *runtimeReader) read() (alloc, gcs, live float64) {
	metrics.Read(r.s)
	return float64(r.s[0].Value.Uint64()), float64(r.s[1].Value.Uint64()), float64(r.s[2].Value.Uint64())
}

// liveHeap collects garbage and returns the live heap in bytes.
func (r *runtimeReader) liveHeap() float64 {
	runtime.GC()
	_, _, live := r.read()
	return live
}

// runWorkload sets w up repeatedly, then measures it: one warm-up
// iteration, then an untraced closed loop for o.seconds — or, with
// o.trace, an untraced and a traced loop of half that each. The oracle
// runs last, outside every timed region.
func runWorkload(ctx context.Context, w workload, o options) (*report, error) {
	rep := &report{workload: w.name, correct: true, final: map[string]metricValue{}}
	var (
		inst      instance
		setupSecs []float64
		setupPh   []phases
	)
	setupStart := time.Now()
	for k := 0; k < o.setups || time.Since(setupStart).Seconds() < o.setupSeconds; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", w.name, k, err)
			}
			inst = nil
			runtime.GC()
		}
		ph := phases{}
		t0 := time.Now()
		var err error
		inst, err = w.setup(o.seed, o.sz, ph)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		setupPh = append(setupPh, ph)
	}
	defer inst.close()

	rt := newRuntimeReader()
	var results []result
	ops := map[string][]float64{}
	next := 0
	loop := func(tr *tracer, seconds float64, minIters int) ([]sample, error) {
		var out []sample
		budget := time.Duration(seconds * float64(time.Second))
		start := time.Now()
		for len(out) < minIters || time.Since(start) < budget {
			i := next
			next++
			// The iteration's live heap is measured against the heap just
			// before it, so what the harness accumulates does not count.
			before := rt.liveHeap()
			root := tr.startIter(i)
			a0, g0, _ := rt.read()
			t0 := time.Now()
			res, err := inst.iterate(ctx, i, tr, root)
			d := time.Since(t0)
			a1, g1, _ := rt.read()
			tr.end(root)
			rep.attempted++
			if err != nil {
				return out, fmt.Errorf("%s: iteration %d: %w", w.name, i, err)
			}
			if res.failedOps > 0 {
				rep.failed++
			}
			live := rt.liveHeap()
			res.digest, res.vals = res.finish()
			runtime.KeepAlive(res.state)
			res.state, res.finish = nil, nil
			if p, ok := res.vals["scan.probes"]; ok {
				res.vals["scan.probe_rate_mps"] = p / d.Seconds() / 1e6
			}
			if tr == nil {
				for op, xs := range res.ops {
					ops[op] = append(ops[op], xs...)
				}
			}
			res.ops = nil
			results = append(results, res)
			out = append(out, sample{
				key:     res.key,
				ms:      float64(d) / 1e6,
				liveMB:  (live - before) / (1 << 20),
				allocMB: (a1 - a0) / (1 << 20),
				gcs:     g1 - g0,
				vals:    res.vals,
			})
		}
		return out, nil
	}

	if _, err := loop(nil, 0, 1); err != nil { // warm-up: caches fill, lazy set-up finishes
		return nil, err
	}
	// A traced run splits its time between an untraced and a traced loop:
	// the trace overhead and the runtime counters need both.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	untraced, err := loop(nil, seconds, o.minIters)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var traced []sample
	if o.trace {
		tr = newTracer()
		if traced, err = loop(tr, seconds, o.minIters); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := tr.writeFile(o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	if err := inst.check(ctx, results); err != nil {
		rep.correct = false
		fmt.Fprintf(os.Stderr, "%s: correctness check failed: %v\n", w.name, err)
	}

	ms := field(untraced, func(s sample) float64 { return s.ms })
	n := len(untraced)
	rep.add("setup_s", "s", len(setupSecs), median(setupSecs), !o.trace)
	rep.add("iter_p50_ms", "ms", n, median(ms), !o.trace)
	rep.add("iter_p75_ms", "ms", n, percentile(ms, 0.75), !o.trace)
	rep.add("live_heap_mb", "MB", n, median(field(untraced, func(s sample) float64 { return s.liveMB })), !o.trace)

	// Layer values read from the outputs and the fleet's operation
	// latencies are printed on every run that has them; in a traced run
	// they also fill the per-layer summary.
	for _, m := range valueMetrics {
		v, n := keyMedian(untraced, m.name)
		if n > 0 || o.trace {
			rep.add(m.name, m.unit, n, v, o.trace)
		}
	}
	for _, m := range opMetrics {
		xs := ops[m.op]
		if len(xs) > 0 {
			rep.add(m.name, "ms", len(xs), percentile(xs, m.q), o.trace)
		} else if o.trace {
			rep.add(m.name, "ms", 0, 0, true)
		}
	}
	if !o.trace {
		return rep, nil
	}

	rep.add("runtime.alloc_mb", "MB", n, median(field(untraced, func(s sample) float64 { return s.allocMB })), true)
	rep.add("runtime.gc_cycles", "count", n, median(field(untraced, func(s sample) float64 { return s.gcs })), true)
	for _, p := range setupPhases {
		xs := make([]float64, len(setupPh))
		for k, ph := range setupPh {
			xs[k] = ph[p].Seconds()
		}
		rep.add("setup."+p+"_s", "s", len(xs), median(xs), true)
	}
	profiles := selfTimes(tr.snapshot())
	perIter := func(f func(iterProfile) float64) float64 {
		xs := make([]float64, len(profiles))
		for k, p := range profiles {
			xs[k] = f(p)
		}
		return median(xs)
	}
	for _, name := range layerSpans() {
		rep.add(name+"_ms", "ms", len(profiles), perIter(func(p iterProfile) float64 { return float64(p.self[name]) / 1e6 }), true)
	}
	rep.add("bench.glue_share", "share", len(profiles), perIter(func(p iterProfile) float64 { return float64(p.self[rootSpan]) / float64(p.wall) }), true)
	tms := field(traced, func(s sample) float64 { return s.ms })
	rep.add("bench.trace_overhead", "share", len(traced), median(tms)/median(ms)-1, true)
	return rep, nil
}

// keyMedian returns the median over keys of each key's median value of
// metric name, and how many samples carried it. Outputs fixed per key
// (a month's plan size) then read the same whatever number of
// iterations of each key the time budget allowed.
func keyMedian(xs []sample, name string) (float64, int) {
	byKey := map[int][]float64{}
	n := 0
	for _, x := range xs {
		if v, ok := x.vals[name]; ok {
			byKey[x.key] = append(byKey[x.key], v)
			n++
		}
	}
	var meds []float64
	for _, vs := range byKey {
		meds = append(meds, median(vs))
	}
	if n == 0 {
		return 0, 0
	}
	return median(meds), n
}

func field(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
