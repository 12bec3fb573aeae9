// Command bench is the end-to-end benchmark of the TASS loop: census →
// rank → select → scan → delta → re-rank, on one node, through the
// coordinator, and as the paper's experiment suite. See README.md.
//
// Usage:
//
//	bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// Every output line is one JSON object: a run header, one line per
// metric with its unit and sample count, and last a summary with the
// correctness verdict and the metrics BENCHMARK.json names. The exit
// status is non-zero when any iteration fails or any output disagrees
// with its oracle.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"github.com/tass-scan/tass/internal/prof"
)

var workloads = []workload{
	{"campaign", setupCampaign},
	{"reseed", setupReseed},
	{"fleet", setupFleet},
	{"paper", setupPaper},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, workloads, fullOptions))
}

// fullOptions is what a run measures besides its flags: the full-size
// inputs, set up at least three times and for at least two seconds, and
// at least 40 measured iterations per loop, so that iter_p75_ms has ten
// samples beyond it even when the slowest workload (reseed, ≈0.45 s per
// iteration) runs short of its time.
var fullOptions = options{setups: 3, setupSeconds: 2, minIters: 40, sz: fullSizes}

// run parses args into a copy of base, measures the selected workloads
// and prints everything to stdout. It returns the process exit status.
func run(args []string, stdout io.Writer, workloads []workload, base options) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign, reseed, fleet, paper or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed builds the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time per workload")
	trace := fs.Int("trace", 0, "1 adds a traced loop and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced loop's spans to this JSON file (suffixed .<workload> with -workload all)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	commit := fs.String("commit", "unknown", "source revision to record in the header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -workload campaign|reseed|fleet|paper|all, -seconds > 0 and -trace 0|1")
		return 2
	}
	stop, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer stop()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	o := base
	o.seed, o.seconds, o.trace, o.traceOut = *seed, *seconds, *trace == 1, *traceOut
	enc := json.NewEncoder(stdout)
	emit := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing output:", err)
			return false
		}
		return true
	}
	if !emit(map[string]any{"header": runHeader(*name, *commit, o)}) {
		return 1
	}
	all := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		if *traceOut != "" && len(selected) > 1 {
			o.traceOut = *traceOut + "." + w.name
		}
		rep, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, l := range rep.lines {
			if !emit(l) {
				return 1
			}
		}
		s := summary{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.final}
		if len(selected) > 1 && !emit(map[string]any{"workload": w.name, "summary": s}) {
			return 1
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			all.Metrics[k] = v
		}
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The summary is the last line of standard output.
	if !emit(all) || !all.Correct || all.Failed > 0 {
		return 1
	}
	return 0
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runHeader records what the numbers depend on besides the code.
func runHeader(name, commit string, o options) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"setups":     o.setups,
		"setup_secs": o.setupSeconds,
		"min_iters":  o.minIters,
		"workers":    benchWorkers,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"tmpdir_fs":  fsType(os.TempDir()),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
