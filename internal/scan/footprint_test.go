package scan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// footprintFixture carves 10.0.0.0/18 into 1–1024-address prefixes
// spread over a dozen origin ASes (origin 0 among them), so per-AS
// budgets bind for some ASes and not for others. The last 16 addresses
// are single-address prefixes, each its own AS: an AS whose one address
// is excluded is touched by one draw and never probed.
func footprintFixture(t *testing.T) (rib.Partition, []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	base := pfx("10.0.0.0/18")
	var ps []netaddr.Prefix
	for a, end := uint64(base.First()), uint64(base.Last())+1-16; a < end; {
		bits := 22 + rng.Intn(11)
		for a%(uint64(1)<<(32-bits)) != 0 || a+uint64(1)<<(32-bits) > end {
			bits++
		}
		ps = append(ps, netaddr.MustPrefixFrom(netaddr.Addr(a), bits))
		a += uint64(1) << (32 - bits)
	}
	for k := 16; k > 0; k-- {
		ps = append(ps, netaddr.MustPrefixFrom(base.Last()+1-netaddr.Addr(k), 32))
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	origins := make([]uint32, part.Len())
	for i := range origins {
		if i >= len(origins)-16 {
			origins[i] = 65000 + uint32(i)
		} else if as := rng.Intn(13); as > 0 {
			origins[i] = 64500 + uint32(as)
		}
	}
	return part, origins
}

// fpProbe answers from the address alone: about 1 in 9 probes fails,
// and some prefixes' probes fail in runs, so backoff streaks complete.
func fpProbe(a netaddr.Addr) (Result, error) {
	h := uint32(a) * 2654435761
	if h>>28 == 0 || (a>>6)%11 == 3 {
		return Result{}, fmt.Errorf("probe %v failed", a)
	}
	return Result{Addr: a, Open: h%5 == 0}, nil
}

// fpRunner is what a differential script drives: the live Scanner or
// the atomic reference.
type fpRunner interface {
	Run(context.Context) (*Report, error)
	Checkpoint() *Checkpoint
	Resume(*Checkpoint) error
	SetExclusions([]netaddr.Prefix)
	Policy() *PolicyLimiter
}

// fpOut is one Run's observable outcome.
type fpOut struct {
	rep *Report
	err error
	cp  *Checkpoint
}

func runOut(ctx context.Context, r fpRunner) fpOut {
	rep, err := r.Run(ctx)
	return fpOut{rep, err, r.Checkpoint()}
}

// noSleep replaces the pacer's sleeper: the scripts check counts, and
// counts do not depend on how long a worker waits.
func noSleep(context.Context, time.Duration) error { return nil }

// TestFootprintMatchesAtomicReference runs every script once on the live
// Scanner and once on the atomic footprint it replaced
// (footprint_legacy_test.go), and requires the same per-AS breakdown,
// report totals and checkpoint (cursors and per-AS probe counts) from
// every Run. Scripts whose per-AS split depends on how workers
// interleave run one worker; the others run two and four, with
// Responsive compared address by address only where it is fixed.
func TestFootprintMatchesAtomicReference(t *testing.T) {
	part, origins := footprintFixture(t)
	base := Config{
		Targets:    part,
		Prober:     proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return fpProbe(a) }),
		Seed:       21,
		Politeness: Politeness{Origins: origins, Footprint: true},
	}
	allOpen := proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
		return Result{Addr: a, Open: true}, nil
	})
	excl := []netaddr.Prefix{pfx("10.0.3.0/24"), pfx("10.0.17.64/26"), pfx("10.0.40.7/32"), pfx("10.0.63.0/25"), pfx("10.0.63.240/29")}
	grown := append([]netaddr.Prefix{pfx("10.0.8.0/21"), pfx("10.0.50.0/23")}, excl...)

	// chunks runs MaxProbes-capped chunks on one scanner, resuming from
	// each checkpoint, until a chunk under-runs its cap or limit chunks ran.
	chunks := func(r fpRunner, maxProbes uint64, limit int) []fpOut {
		var outs []fpOut
		for len(outs) < limit {
			o := runOut(context.Background(), r)
			outs = append(outs, o)
			if o.err != nil || o.rep.Probed < maxProbes {
				break
			}
			if err := r.Resume(o.cp); err != nil {
				panic(err)
			}
		}
		return outs
	}

	type script struct {
		name    string
		workers []int
		exact   bool // Responsive is fixed, so compare it too
		// zeroAS requires some run to list an AS with all-zero counts:
		// the AS set outlives the counts (unreserved draws, resets).
		zeroAS bool
		run    func(mk func(Config) fpRunner, cfg Config) []fpOut
	}
	once := func(mk func(Config) fpRunner, cfg Config) []fpOut {
		return []fpOut{runOut(context.Background(), mk(cfg))}
	}
	budget := func(cfg Config, n uint64) Config {
		cfg.Politeness.ASBudget = n
		return cfg
	}
	scripts := []script{
		{"no-budget", []int{1, 2, 4}, true, false, once},
		{"no-budget/exclusions", []int{1, 2, 4}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg.Exclude = excl
			return once(mk, cfg)
		}},
		{"budget", []int{1}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			return once(mk, budget(cfg, 700))
		}},
		{"budget/all-open/exclusions", []int{2, 4}, false, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg = budget(cfg, 700)
			cfg.Prober, cfg.Exclude = allOpen, excl
			return once(mk, cfg)
		}},
		{"max-probes/1", []int{1}, true, true, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg.MaxProbes = 1
			return chunks(mk(cfg), 1, 40)
		}},
		{"max-probes/997", []int{1}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg.MaxProbes = 997
			return chunks(mk(cfg), 997, 100)
		}},
		{"max-probes/997/budget", []int{1}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg = budget(cfg, 700)
			cfg.MaxProbes = 997
			return chunks(mk(cfg), 997, 100)
		}},
		{"cancel-resume", []int{1}, true, true, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg.Exclude = excl
			return cancelResume(mk, cfg)
		}},
		{"cancel-resume/budget", []int{1}, true, true, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg.Exclude = excl
			return cancelResume(mk, budget(cfg, 700))
		}},
		{"cancel-in-pacer/budget", []int{1}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			// A global rate of 1/s makes every probe after the first
			// sleep; the sleeper cancels the 300th, so the reserved slot
			// is returned.
			cfg = budget(cfg, 700)
			cfg.Rate, cfg.Burst = 1, 1
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := mk(cfg)
			sleeps := 0
			r.Policy().sleep = func(ctx context.Context, _ time.Duration) error {
				if sleeps++; sleeps == 300 {
					cancel()
					return ctx.Err()
				}
				return nil
			}
			outs := []fpOut{runOut(ctx, r)}
			if err := r.Resume(outs[0].cp); err != nil {
				panic(err)
			}
			r.Policy().sleep = noSleep
			return append(outs, runOut(context.Background(), r))
		}},
		{"resume-origins-changed/budget", []int{1}, true, true, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			// The announced table changed between the interrupted run and
			// its resume: AS 64501's prefixes now belong to AS 64999, so
			// the checkpoint names an AS outside the new origins. A second,
			// fresh cycle on the resumed scanner still lists it, at zero.
			cfg = budget(cfg, 700)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			first := cfg
			probes := 0
			first.Prober = proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
				if probes++; probes == 5000 {
					cancel()
				}
				return fpProbe(a)
			})
			outs := []fpOut{runOut(ctx, mk(first))}
			moved := slices.Clone(cfg.Politeness.Origins)
			for i, as := range moved {
				if as == 64501 {
					moved[i] = 64999
				}
			}
			cfg.Politeness.Origins = moved
			r := mk(cfg)
			if err := r.Resume(outs[0].cp); err != nil {
				panic(err)
			}
			outs = append(outs, runOut(context.Background(), r))
			return append(outs, runOut(context.Background(), r))
		}},
		{"budget/fresh-cycle-canceled", []int{1}, true, true, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			// A full budgeted cycle, then a fresh one canceled early: the
			// second run lists, at zero, every AS the first one drew,
			// those whose only count was the live reservation included.
			cfg = budget(cfg, 700)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			probes, stopAt := 0, -1
			cfg.Prober = proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
				if probes++; probes == stopAt {
					cancel()
				}
				return fpProbe(a)
			})
			r := mk(cfg)
			outs := []fpOut{runOut(context.Background(), r)}
			stopAt = probes + 100
			return append(outs, runOut(ctx, r))
		}},
		{"exclusions-grow-mid-run", []int{1}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg = budget(cfg, 700)
			cfg.Exclude = excl
			var r fpRunner
			probes := 0
			cfg.Prober = proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
				if probes++; probes == 3000 {
					r.SetExclusions(grown)
				}
				return fpProbe(a)
			})
			r = mk(cfg)
			return []fpOut{runOut(context.Background(), r)}
		}},
		{"errors-backoff", []int{1}, true, false, func(mk func(Config) fpRunner, cfg Config) []fpOut {
			cfg.Politeness.ASRate = 1e6
			cfg.Politeness.Backoff = BackoffConfig{Threshold: 3}
			r := mk(cfg)
			r.Policy().sleep = noSleep
			outs := []fpOut{runOut(context.Background(), r)}
			return append(outs, runOut(context.Background(), r)) // a second, fresh cycle
		}},
	}
	live := func(t *testing.T) func(Config) fpRunner {
		return func(cfg Config) fpRunner { return mustScanner(t, cfg) }
	}
	ref := func(t *testing.T) func(Config) fpRunner {
		return func(cfg Config) fpRunner {
			r, err := newAtomicScanner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	for _, sc := range scripts {
		for _, w := range sc.workers {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, w), func(t *testing.T) {
				cfg := base
				cfg.Workers = w
				got, want := sc.run(live(t), cfg), sc.run(ref(t), cfg)
				if len(got) != len(want) {
					t.Fatalf("%d runs, reference %d", len(got), len(want))
				}
				for i := range got {
					sameOut(t, i, got[i], want[i], sc.exact)
				}
				if sc.zeroAS && !hasZeroAS(got) {
					t.Fatal("no run lists an AS with all-zero counts: the script no longer covers that case")
				}
			})
		}
	}
}

// cancelResume cancels a cycle after 8000 probes and resumes it on the
// same scanner, so the AS set of the canceled run persists, canceling
// once more 1000 probes later before finishing. Then it finishes the
// first checkpoint again on a fresh scanner.
func cancelResume(mk func(Config) fpRunner, cfg Config) []fpOut {
	var cancel context.CancelFunc
	probes, stopAt := 0, 8000
	cfg.Prober = proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
		if probes++; probes == stopAt {
			cancel()
		}
		return fpProbe(a)
	})
	resume := func(r fpRunner, cp *Checkpoint) {
		if err := r.Resume(cp); err != nil {
			panic(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := mk(cfg)
	outs := []fpOut{runOut(ctx, r)}
	first := outs[0].cp

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cancel, stopAt = cancel2, probes+1000
	resume(r, first)
	outs = append(outs, runOut(ctx2, r))
	resume(r, outs[1].cp)
	outs = append(outs, runOut(context.Background(), r))

	fresh := mk(cfg)
	resume(fresh, first)
	return append(outs, runOut(context.Background(), fresh))
}

func hasZeroAS(outs []fpOut) bool {
	for _, o := range outs {
		for _, st := range o.rep.PerAS {
			if st == (ASStat{}) {
				return true
			}
		}
	}
	return false
}

// sameOut requires one Run's outcome to match the reference's.
func sameOut(t *testing.T, i int, got, want fpOut, exact bool) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("run %d: error %v, reference %v", i, got.err, want.err)
	}
	g, w := got.rep, want.rep
	if g.Probed != w.Probed || g.Excluded != w.Excluded || g.Errors != w.Errors ||
		g.BudgetDenied != w.BudgetDenied || len(g.Responsive) != len(w.Responsive) {
		t.Fatalf("run %d: totals probed %d excluded %d errors %d denied %d responsive %d, reference %d %d %d %d %d",
			i, g.Probed, g.Excluded, g.Errors, g.BudgetDenied, len(g.Responsive),
			w.Probed, w.Excluded, w.Errors, w.BudgetDenied, len(w.Responsive))
	}
	if exact && !reflect.DeepEqual(g.Responsive, w.Responsive) {
		t.Fatalf("run %d: responsive sets differ", i)
	}
	if !reflect.DeepEqual(g.PerAS, w.PerAS) {
		t.Fatalf("run %d: PerAS\n%v\nreference\n%v", i, g.PerAS, w.PerAS)
	}
	if !reflect.DeepEqual(got.cp, want.cp) {
		t.Fatalf("run %d: checkpoint %+v, reference %+v", i, got.cp, want.cp)
	}
}

// TestScannerOverlappingRunsRaceFree runs two Runs of one per-AS
// accounting Scanner at once, with and without a budget. Their reports
// mix, but the race detector must find nothing: each worker's tally is
// its own, and the footprint's arrays never change length after New.
func TestScannerOverlappingRunsRaceFree(t *testing.T) {
	part, origins := footprintFixture(t)
	for _, b := range []uint64{0, 700} {
		s := mustScanner(t, Config{
			Targets:    part,
			Workers:    2,
			Seed:       3,
			Prober:     proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return fpProbe(a) }),
			Politeness: Politeness{Origins: origins, Footprint: true, ASBudget: b},
		})
		errs := make(chan error, 2)
		for range 2 {
			go func() {
				_, err := s.Run(context.Background())
				errs <- err
			}()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("budget %d: %v", b, err)
			}
		}
	}
}
