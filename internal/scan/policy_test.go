package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// policyTargets is n disjoint /24 target prefixes.
func policyTargets(t testing.TB, n int) rib.Partition {
	t.Helper()
	ps := make([]netaddr.Prefix, n)
	for i := range ps {
		ps[i] = pfx(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// testPolicy builds the pacer New builds for cfg. Unless cfg says
// otherwise it runs on one worker, so every AS has one share, and paces
// one /24 target per origin (at least one).
func testPolicy(t testing.TB, cfg Config) *PolicyLimiter {
	t.Helper()
	if cfg.Targets.Len() == 0 {
		cfg.Targets = policyTargets(t, max(1, len(cfg.Politeness.Origins)))
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.Prober = proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return Result{Addr: a}, nil })
	return mustScanner(t, cfg).policy
}

// waitOne paces one probe into target prefix pfxIdx through a pacer with
// a batch of one on share 0: every call reads the clock and takes one
// token per level.
func (p *PolicyLimiter) waitOne(ctx context.Context, pfxIdx int) error {
	return (&pacer{p: p, k: 1}).wait(ctx, pfxIdx)
}

// virtualPolicy puts testPolicy's pacer fully on a fake clock: every
// sleep request advances virtual time instead of blocking.
func virtualPolicy(t *testing.T, cfg Config) (*PolicyLimiter, *fakeClock, *atomic.Int64) {
	t.Helper()
	p := testPolicy(t, cfg)
	clock, sleeps := virtualize(p)
	return p, clock, sleeps
}

// virtualize puts p on a fresh fake clock, as virtualPolicy does, and
// returns the clock and the count of sleeps.
func virtualize(p *PolicyLimiter) (*fakeClock, *atomic.Int64) {
	clock := newFakeClock()
	var sleeps atomic.Int64
	p.now = clock.now
	p.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sleeps.Add(1)
		clock.advance(d)
		return nil
	}
	return clock, &sleeps
}

// balance is a bucket's token count at limiter time now: the
// token-bucket view of its GCRA state.
func (b *bucket) balance(now float64) float64 {
	iv := b.currentInterval()
	return (now - max(math.Float64frombits(b.tat.Load()), now-b.burst*iv)) / iv
}

// asBucket returns a bucket that reads as share 0 of the AS owning target
// prefix pfxIdx at the time of the call: the AS's record with share 0's
// tat word. With one share, as testPolicy builds by default, that is the
// whole AS's bucket.
func (p *PolicyLimiter) asBucket(pfxIdx int) *bucket {
	id := p.tab.ids[pfxIdx]
	rec := &p.as[id]
	b := &bucket{base: rec.base, burst: rec.burst}
	b.tat.Store(p.shares[id].Load())
	b.interval.Store(rec.interval.Load())
	b.rate.Store(rec.rate.Load())
	return b
}

// shareBalance is the token count of share w of the AS owning target
// prefix pfxIdx at limiter time now.
func (p *PolicyLimiter) shareBalance(pfxIdx, w int, now float64) float64 {
	id := int(p.tab.ids[pfxIdx])
	rec := &p.as[id]
	iv := rec.currentInterval()
	return (now - max(math.Float64frombits(p.shares[w*len(p.as)+id].Load()), now-rec.burst*iv)) / iv
}

// asBalance is the token count of the AS owning target prefix pfxIdx at
// limiter time now, summed over its shares.
func (p *PolicyLimiter) asBalance(pfxIdx int, now float64) float64 {
	sum := 0.0
	for w := range len(p.shares) / len(p.as) {
		sum += p.shareBalance(pfxIdx, w, now)
	}
	return sum
}

// TestPolicyLimiterSlowestLevelGoverns: with a fast global rate and a
// slow per-AS rate, sustained probing into one AS paces at the AS rate,
// while a second AS still has its own full allowance.
func TestPolicyLimiterSlowestLevelGoverns(t *testing.T) {
	p, clock, sleeps := virtualPolicy(t, Config{
		Rate: 1000, Burst: 1,
		Politeness: Politeness{
			ASRate: 10, ASBurst: 1,
			Origins: []uint32{100, 200}, // prefix 0 -> AS100, prefix 1 -> AS200
		},
	})
	ctx := context.Background()
	start := clock.now()
	const n = 20
	for i := 0; i < n; i++ {
		if err := p.waitOne(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Burst 1 absorbs the first probe; the remaining n-1 pace at 10/s.
	elapsed := clock.now().Sub(start).Seconds()
	want := float64(n-1) / 10
	if elapsed < want*0.999 || elapsed > want*1.001 {
		t.Fatalf("%d probes into one AS took %.3fs of virtual time, want ~%.3fs", n, elapsed, want)
	}
	if sleeps.Load() == 0 {
		t.Fatal("no sleeps recorded for a paced scan")
	}
	// The other AS's bucket is untouched: its first probe is free.
	before := sleeps.Load()
	if err := p.waitOne(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if sleeps.Load() != before {
		t.Fatal("first probe into a fresh AS slept")
	}
}

// TestPolicyLimiterReservationSerialized mirrors the Limiter contract:
// k concurrent waiters reserve strictly later slots — total virtual time
// k/rate, one sleep each, no thundering herd.
func TestPolicyLimiterReservationSerialized(t *testing.T) {
	p, clock, _ := virtualPolicy(t, Config{Politeness: Politeness{
		ASRate: 10, ASBurst: 1,
		Origins: []uint32{7},
	}})
	ctx := context.Background()
	start := clock.now()
	const k = 8
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.waitOne(ctx, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := clock.now().Sub(start).Seconds()
	want := float64(k-1) / 10
	if elapsed < want*0.999 {
		t.Fatalf("%d concurrent waiters advanced %.3fs of virtual time, want >= %.3fs", k, elapsed, want)
	}
}

func TestPolicyLimiterCancelRefundsAllLevels(t *testing.T) {
	p, _, _ := virtualPolicy(t, Config{
		Rate: 100, Burst: 1,
		Politeness: Politeness{
			ASRate: 10, ASBurst: 1,
			PrefixRate: 5, PrefixBurst: 1,
			Origins: []uint32{1},
		},
	})
	// Drain the bursts.
	if err := p.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// A canceled wait must return its reservation at every level.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.waitOne(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Wait returned %v", err)
	}
	now := p.clock()
	g, a, x := p.global.balance(now), p.asBucket(0).balance(now), p.pfx[0].balance(now)
	// All three buckets were at 0 after the draining probe; the refund
	// must restore the canceled take exactly (modulo refill credit,
	// which is 0 on the fake clock since no time passed).
	if g < -1e-9 || a < -1e-9 || x < -1e-9 {
		t.Fatalf("reservation not refunded: global %.3f as %.3f pfx %.3f", g, a, x)
	}
}

func TestPolicyLimiterObserveBackoffAndRecovery(t *testing.T) {
	p, _, _ := virtualPolicy(t, Config{Politeness: Politeness{
		ASRate: 64, ASBurst: 1,
		Origins: []uint32{42},
		Backoff: BackoffConfig{Threshold: 3},
	}})
	base := 64.0
	// Two errors: below threshold, no event.
	if p.observe(0, false) || p.observe(0, false) {
		t.Fatal("backoff fired below threshold")
	}
	// Third consecutive error: halve 64 -> 32.
	if !p.observe(0, false) {
		t.Fatal("no backoff at threshold")
	}
	if r, _ := p.ASRateOf(42); r != 32 {
		t.Fatalf("rate after one halving = %v, want 32", r)
	}
	// Five more halvings: 32 -> 16 -> 8 -> 4 -> 2 -> 1, the floor at
	// 1/64 of the base.
	for i := 0; i < 15; i++ {
		p.observe(0, false)
	}
	if r, _ := p.ASRateOf(42); r != 1 || r != base*backoffFloor {
		t.Fatalf("rate at floor = %v, want 1 (1/64 of %v)", r, base)
	}
	// At the floor further streaks are not events.
	for i := 0; i < 3; i++ {
		if p.observe(0, false) && i == 2 {
			t.Fatal("backoff event at the floor")
		}
	}
	// A success restores 0.05 of the base per call, capped at the base:
	// 20 successes climb from the floor back to it.
	p.observe(0, true)
	if r, _ := p.ASRateOf(42); r != 1+base*backoffRecovery || math.Abs(r-4.2) > 1e-12 {
		t.Fatalf("rate after one success = %v, want 4.2", r)
	}
	for i := 0; i < 18; i++ {
		p.observe(0, true)
	}
	if r, _ := p.ASRateOf(42); r >= base {
		t.Fatalf("rate after 19 successes = %v, want below %v", r, base)
	}
	p.observe(0, true)
	if r, _ := p.ASRateOf(42); r != base {
		t.Fatalf("rate after full recovery = %v, want %v", r, base)
	}
	// A success also resets the streak: two errors, one success, two
	// errors must not trigger.
	p.observe(0, false)
	p.observe(0, false)
	p.observe(0, true)
	if p.observe(0, false) || p.observe(0, false) {
		t.Fatal("streak not reset by success")
	}
}

func TestPolicyLimiterSetASRate(t *testing.T) {
	p, _, _ := virtualPolicy(t, Config{Politeness: Politeness{
		ASRate:  100,
		Origins: []uint32{5},
	}})
	if err := p.SetASRate(5, math.NaN()); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if err := p.SetASRate(5, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := p.SetASRate(5, 3); err != nil {
		t.Fatal(err)
	}
	if r, ok := p.ASRateOf(5); !ok || r != 3 {
		t.Fatalf("ASRateOf = %v, %v", r, ok)
	}
	// No target prefix maps to AS 999: retuning it is an error, and it
	// reports the configured rate.
	if err := p.SetASRate(999, 5); err == nil {
		t.Fatal("SetASRate on an off-plan AS accepted")
	}
	if r, ok := p.ASRateOf(999); !ok || r != 100 {
		t.Fatalf("off-plan ASRateOf = %v, %v", r, ok)
	}
	// Without per-AS pacing both calls reject/deny.
	bare, _, _ := virtualPolicy(t, Config{Rate: 10})
	if err := bare.SetASRate(1, 5); err == nil {
		t.Fatal("SetASRate without per-AS pacing accepted")
	}
	if _, ok := bare.ASRateOf(1); ok {
		t.Fatal("ASRateOf reported ok without per-AS pacing")
	}
}

// politenessFixture: four /26 target prefixes across two origin ASes.
func politenessFixture(t *testing.T) (rib.Partition, []uint32) {
	t.Helper()
	part, err := rib.NewPartition([]netaddr.Prefix{
		pfx("10.0.0.0/26"), pfx("10.0.0.64/26"), // AS 64500
		pfx("10.0.0.128/26"), pfx("10.0.0.192/26"), // AS 64501
	})
	if err != nil {
		t.Fatal(err)
	}
	return part, []uint32{64500, 64500, 64501, 64501}
}

// asOf maps a probed address back to its origin AS through the fixture.
func asOf(t *testing.T, part rib.Partition, origins []uint32, a netaddr.Addr) uint32 {
	t.Helper()
	i, ok := part.Find(a)
	if !ok {
		t.Fatalf("probed address %v outside the target partition", a)
	}
	return origins[i]
}

// TestScannerPolitenessValidation: New refuses a per-AS feature it
// cannot map to origins and a rate that is not a finite non-negative
// number.
func TestScannerPolitenessValidation(t *testing.T) {
	part, origins := politenessFixture(t)
	prober, _ := NewSimProber(nil, 0, 1)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"per-AS budget without origins", Config{Politeness: Politeness{ASBudget: 10}}},
		{"short origin mapping", Config{Politeness: Politeness{Footprint: true, Origins: origins[:2]}}},
		{"backoff without a per-AS rate", Config{Politeness: Politeness{Backoff: BackoffConfig{Threshold: 3}, Origins: origins}}},
		{"NaN per-AS rate", Config{Politeness: Politeness{ASRate: math.NaN(), Origins: origins}}},
		{"negative per-AS rate", Config{Politeness: Politeness{ASRate: -1, Origins: origins}}},
		{"NaN global rate", Config{Rate: math.NaN()}},
		{"negative global rate", Config{Rate: -1}},
	} {
		c.cfg.Targets, c.cfg.Prober = part, prober
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestPolicyLimiterValidation: New, the one place a pacer is built,
// refuses every pacer rate that is not finite and non-negative and every
// pacer level it has nothing to key on, and accepts a non-positive
// backoff threshold, which switches backoff off.
func TestPolicyLimiterValidation(t *testing.T) {
	part, origins := politenessFixture(t)
	prober, _ := NewSimProber(nil, 0, 1)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"per-AS rate without origins", Config{Politeness: Politeness{ASRate: 10}}},
		{"-Inf per-prefix rate", Config{Politeness: Politeness{PrefixRate: math.Inf(-1)}}},
		{"+Inf global rate", Config{Rate: math.Inf(1)}},
		{"-Inf global rate", Config{Rate: math.Inf(-1)}},
	} {
		c.cfg.Targets, c.cfg.Prober = part, prober
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := New(Config{Prober: prober, Politeness: Politeness{PrefixRate: 10}}); err == nil {
		t.Error("per-prefix rate without targets accepted")
	}
	if _, err := New(Config{Targets: part, Prober: prober,
		Politeness: Politeness{ASRate: 10, Origins: origins, Backoff: BackoffConfig{Threshold: -1}}}); err != nil {
		t.Errorf("disabled backoff rejected: %v", err)
	}
}

// TestScannerFirstRunCreatesNoBucket: every pacer bucket exists once New
// returns, so a fresh Scanner's first Run allocates no more than a later
// one, at 16 and at 1024 ASes and prefixes (one AS per prefix, per-AS
// and per-prefix pacing on). What grows with the AS count, the
// per-worker tallies and the report's PerAS map, every Run allocates
// alike. Creating buckets on first touch would add two per AS here.
// Every per-AS share word, one per worker and AS, is allocated by New,
// and Run leaves the words where New put them.
func TestScannerFirstRunCreatesNoBucket(t *testing.T) {
	runAllocs := func(s *Scanner) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{16, 1024} {
		ps := make([]netaddr.Prefix, n)
		origins := make([]uint32, n)
		for i := range ps {
			ps[i] = netaddr.MustPrefixFrom(pfx("10.0.0.0/8").First()+netaddr.Addr(16*i), 28)
			origins[i] = 64500 + uint32(i)
		}
		part, err := rib.NewPartition(ps)
		if err != nil {
			t.Fatal(err)
		}
		// Each AS and prefix gets its 16 addresses within its burst, and
		// a debt, should one arise, is not slept off.
		newScanner := func() *Scanner {
			s := mustScanner(t, Config{
				Targets: part, Workers: 2, Seed: 1,
				Prober: proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return Result{Addr: a}, nil }),
				Politeness: Politeness{Origins: origins,
					ASRate: 1e9, ASBurst: 16, PrefixRate: 1e9, PrefixBurst: 16},
			})
			s.policy.sleep = noSleep
			return s
		}
		// The least of a few tries: an allocation elsewhere in the process
		// can only add to a count.
		first, later := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			s := newScanner()
			words := s.policy.shares
			if len(words) != 2*n {
				t.Fatalf("%d ASes, 2 workers: New allocated %d share words, want %d", n, len(words), 2*n)
			}
			first = min(first, runAllocs(s))
			later = min(later, runAllocs(s))
			if got := s.policy.shares; len(got) != len(words) || &got[0] != &words[0] {
				t.Fatalf("%d ASes: Run replaced the share words", n)
			}
		}
		if first > later {
			t.Errorf("%d ASes: the first Run allocated %d times, a later one %d", n, first, later)
		}
	}
}

// TestScannerSharedASRateContracts: a Scanner splits each AS's rate
// across its workers, yet the rate an operator sets or reads is the
// whole AS's, exactly, at any worker count: SetASRate then ASRateOf reads
// the rate back, a backoff halving reads exactly half of it, and each
// share runs at the rate over the worker count.
func TestScannerSharedASRateContracts(t *testing.T) {
	part, origins := politenessFixture(t)
	const as, r = 64501, 300.0
	pfx := slices.Index(origins, as)
	for _, workers := range []int{1, 4} {
		s := mustScanner(t, Config{
			Targets: part, Workers: workers, Seed: 1,
			Prober: proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return Result{Addr: a}, nil }),
			Politeness: Politeness{Origins: origins, ASRate: 1000, ASBurst: 8,
				Backoff: BackoffConfig{Threshold: 2}},
		})
		p := s.Policy()
		if len(p.shares) != workers*len(p.as) {
			t.Fatalf("workers=%d: %d share words for %d ASes", workers, len(p.shares), len(p.as))
		}
		if err := p.SetASRate(as, r); err != nil {
			t.Fatal(err)
		}
		if got, ok := p.ASRateOf(as); !ok || got != r {
			t.Fatalf("workers=%d: ASRateOf after SetASRate(%v) = %v, %v", workers, r, got, ok)
		}
		rec := &p.as[p.tab.ids[pfx]]
		if iv, want := rec.currentInterval(), intervalOf(r)*float64(workers); iv != want {
			t.Fatalf("workers=%d: share interval %v ns, want %v", workers, iv, want)
		}
		if rec.burst*float64(workers) != 8 {
			t.Fatalf("workers=%d: shares hold %v tokens of burst, want 8", workers, rec.burst*float64(workers))
		}
		if p.observe(pfx, false) || !p.observe(pfx, false) {
			t.Fatalf("workers=%d: no backoff at the threshold", workers)
		}
		if got, _ := p.ASRateOf(as); got != r/2 {
			t.Fatalf("workers=%d: ASRateOf after a halving = %v, want %v", workers, got, r/2)
		}
	}
}

// TestPolicyLimiterShareLendsToLoneWorker: a pacer that alone draws an
// AS still gets the whole AS's rate and burst, not its share's: it takes
// the tokens the other shares hold and, when none is due, reserves the
// AS's next token on whichever share it comes from. waitOne, which takes
// as worker 0's pacer does, is such a pacer: on a virtual clock advanced only
// by its sleeps, its n-th probe goes out within S−1
// intervals of when it would through one bucket, (n − burst)·interval
// after the first (through S shares of rate/S, it would be S times
// later). Reservations it holds at once, as concurrent waiters would,
// are each due within S−1 intervals of their slot at one bucket too.
func TestPolicyLimiterShareLendsToLoneWorker(t *testing.T) {
	const n, rate = 400, 100.0
	iv := time.Duration(intervalOf(rate))
	for _, tc := range []struct{ burst, shares int }{{4, 1}, {4, 2}, {4, 4}, {6, 3}, {6, 4}, {5, 3}} {
		cfg := Config{Workers: tc.shares, Politeness: Politeness{ASRate: rate, ASBurst: tc.burst, Origins: []uint32{10, 20}}}
		slack := time.Duration(tc.shares-1) * iv
		p, clock, _ := virtualPolicy(t, cfg)
		start := clock.now()
		for range n {
			if err := p.waitOne(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := clock.now().Sub(start), time.Duration(n-tc.burst)*iv; got < want || got > want+slack {
			t.Fatalf("%+v: probe %d went out at %v, want within %v of %v", tc, n, got, slack, want)
		}
		// The clock stands still: each wait holds its reservation.
		p = testPolicy(t, cfg)
		p.now = newFakeClock().now
		var due time.Duration
		p.sleep = func(_ context.Context, d time.Duration) error { due = d; return nil }
		pc := pacer{p: p, share: tc.shares - 1, k: 1}
		for i := range n / 10 {
			due = 0
			if err := pc.wait(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			if slot := max(0, time.Duration(i+1-tc.burst)*iv); due < slot || due > slot+slack {
				t.Fatalf("%+v: reservation %d due in %v, want within %v of its slot %v", tc, i+1, due, slack, slot)
			}
		}
	}
}

// TestScannerIdleASNeverWaits: a probe into an AS nobody has probed
// passes at once, as it does through a single per-AS bucket, whatever
// the worker count and AS burst. Each target is one address of an AS of
// its own, so every probe is the first into its AS; a share holding less
// than one token of burst would make every one of them sleep, capping
// the whole Scanner near Workers·ASRate/(Workers−ASBurst) probes/s
// however many ASes it covers.
func TestScannerIdleASNeverWaits(t *testing.T) {
	const n = 256
	ps := make([]netaddr.Prefix, n)
	origins := make([]uint32, n)
	for i := range ps {
		ps[i] = pfx(fmt.Sprintf("10.0.%d.%d/32", i/256, i%256))
		origins[i] = uint32(64512 + i)
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, asBurst, shares int }{
		{4, 4, 4}, {4, 6, 4}, {8, 2, 2}, {16, 1, 1}, {32, 0, 16}, // 0: the default burst, 16
	} {
		s := mustScanner(t, Config{
			Targets: part, Workers: tc.workers, Seed: 1,
			Prober:     proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return Result{Addr: a}, nil }),
			Politeness: Politeness{Origins: origins, ASRate: 100, ASBurst: tc.asBurst},
		})
		p := s.Policy()
		_, sleeps := virtualize(p)
		if p.nShares != tc.shares || len(p.shares) != tc.shares*n {
			t.Fatalf("workers=%d as-burst=%d: %d shares in %d words, want %d shares", tc.workers, tc.asBurst, p.nShares, len(p.shares), tc.shares)
		}
		burst := tc.asBurst
		if burst == 0 {
			burst = 16
		}
		if p.as[0].burst < 1 || p.as[0].burst*float64(p.nShares) != float64(burst) {
			t.Fatalf("workers=%d as-burst=%d: a share holds %v tokens of burst", tc.workers, tc.asBurst, p.as[0].burst)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Probed != n || sleeps.Load() != 0 {
			t.Fatalf("workers=%d as-burst=%d: %d probes, %d slept; want %d probes, none asleep", tc.workers, tc.asBurst, rep.Probed, sleeps.Load(), n)
		}
	}
}

// BenchmarkScannerBindingASRate measures, on the real clock, the probes
// per second a Scanner reaches into each AS when the per-AS rate binds:
// with each AS's bucket split into per-worker shares, as New builds it,
// and, for comparison, with one bucket that every worker takes from. Two /23 ASes take 86 % of the draws and bind; the /25, /27
// and /29 ones take the rest, at what the big ones leave. Reported per
// AS size, "asN-probes/s" is (probes − 1)/(last probe − first probe) into
// the AS, and "cycle-ms" the time of the whole cycle. Run it with
// -benchtime Nx: each cycle sleeps about 0.3 s.
func BenchmarkScannerBindingASRate(b *testing.B) {
	const asRate = 2000
	type asOf struct {
		p    string
		as   uint32
		size int
	}
	layout := []asOf{
		{"10.0.0.0/23", 1, 512}, {"10.0.2.0/23", 2, 512},
		{"10.0.4.0/25", 3, 128}, {"10.0.4.128/27", 4, 32}, {"10.0.4.160/29", 5, 8},
	}
	ps := make([]netaddr.Prefix, len(layout))
	origins := make([]uint32, len(layout))
	for i, l := range layout {
		ps[i], origins[i] = pfx(l.p), l.as
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		for _, split := range []bool{true, false} {
			name := fmt.Sprintf("workers=%d/shares=per-worker", workers)
			if !split {
				name = fmt.Sprintf("workers=%d/shares=one", workers)
			}
			b.Run(name, func(b *testing.B) {
				var mu sync.Mutex
				var start time.Time
				first, last, count := map[uint32]time.Duration{}, map[uint32]time.Duration{}, map[uint32]int{}
				s := mustScanner(b, Config{
					Targets: part, Workers: workers, Seed: 1,
					Prober: proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
						at := time.Since(start)
						i, _ := part.Find(a)
						mu.Lock()
						as := origins[i]
						if count[as] == 0 {
							first[as] = at
						}
						last[as] = at
						count[as]++
						mu.Unlock()
						return Result{Addr: a}, nil
					}),
					Politeness: Politeness{Origins: origins, ASRate: asRate},
				})
				shares := workers
				if !split {
					shares = 1
				}
				rates := map[uint32]float64{}
				var cycle time.Duration
				for range b.N {
					// A fresh limiter per cycle: every bucket starts full.
					s.policy = testPolicy(b, Config{Targets: part, Workers: shares, Politeness: Politeness{Origins: origins, ASRate: asRate}})
					clear(count)
					start = time.Now()
					if _, err := s.Run(context.Background()); err != nil {
						b.Fatal(err)
					}
					cycle += time.Since(start)
					for as, n := range count {
						rates[as] += float64(n-1) / (last[as] - first[as]).Seconds()
					}
				}
				for _, l := range layout {
					b.ReportMetric(rates[l.as]/float64(b.N), fmt.Sprintf("as%d-probes/s", l.size))
				}
				b.ReportMetric(float64(cycle.Milliseconds())/float64(b.N), "cycle-ms")
			})
		}
	}
}

// BenchmarkPolicyLimiter measures the per-probe cost of the pacer as a
// Scanner worker runs it, on the fast path: the refill outruns the
// benchmark loop, so no sleep is ever taken, exactly the steady state of
// a scan running below its rate caps. Each worker paces through a pacer
// of its own, which reads the clock once per batch of paceK probes and
// claims the batch's global tokens in one CAS; a per-AS or per-prefix
// level takes one CAS per probe. So global+AS+prefix (policy-hierarchy)
// costs two CASes more than global-only (policy-global).
// policy-hierarchy-parallel runs GOMAXPROCS goroutines, each a worker
// taking from a per-AS share of its own, as New splits the buckets: the
// goroutines contend only on the global bucket's claims and on the
// per-prefix buckets.
func BenchmarkPolicyLimiter(b *testing.B) {
	const (
		rate     = 1e9 // refill far above benchmark throughput: never blocks
		burst    = 1 << 16
		prefixes = 64
		ases     = 8
	)
	origins := make([]uint32, prefixes)
	for i := range origins {
		origins[i] = uint32(64500 + i%ases)
	}
	targets := policyTargets(b, prefixes)
	global := Config{Targets: targets, Rate: rate, Burst: burst}
	hierarchy := global
	hierarchy.Politeness = Politeness{
		ASRate: rate, ASBurst: burst,
		PrefixRate: rate, PrefixBurst: burst,
		Origins: origins,
	}
	ctx := context.Background()
	// run paces b.N probes, round-robin over the targets, through the
	// pacers of a Scanner with the given worker count, one goroutine per
	// worker.
	run := func(b *testing.B, cfg Config, workers int) {
		cfg.Workers = workers
		cfg.Prober = proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) { return Result{Addr: a}, nil })
		s := mustScanner(b, cfg)
		k := s.paceK()
		b.ReportAllocs()
		b.ResetTimer()
		if workers == 1 {
			pc := pacer{p: s.policy, k: k}
			for i := range b.N {
				if err := pc.wait(ctx, i%prefixes); err != nil {
					b.Fatal(err)
				}
			}
			pc.release()
			return
		}
		var started atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			w := int(started.Add(1) - 1)
			pc := pacer{p: s.policy, share: w % s.policy.nShares, k: k}
			defer pc.release()
			for i := 0; pb.Next(); i++ {
				if err := pc.wait(ctx, i%prefixes); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.Run("policy-global", func(b *testing.B) { run(b, global, 1) })
	b.Run("policy-hierarchy", func(b *testing.B) { run(b, hierarchy, 1) })
	b.Run("policy-hierarchy-parallel", func(b *testing.B) { run(b, hierarchy, runtime.GOMAXPROCS(0)) })
}

func TestScannerBudgetCapsPerAS(t *testing.T) {
	part, origins := politenessFixture(t)
	var mu sync.Mutex
	perAS := map[uint32]int{}
	prober := proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
		mu.Lock()
		defer mu.Unlock()
		perAS[asOfQuiet(part, origins, a)]++
		return Result{Addr: a}, nil
	})
	const budget = 40
	s, err := New(Config{
		Targets: part,
		Prober:  prober,
		Workers: 4,
		Seed:    9,
		Politeness: Politeness{
			Origins:  origins,
			ASBudget: budget,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for as, n := range perAS {
		if n != budget {
			t.Errorf("AS%d received %d probes, want exactly the budget %d", as, n, budget)
		}
	}
	// 128 addresses per AS, 40 probed: 88 denied each.
	if want := part.AddressCount() - 2*budget; rep.BudgetDenied != want {
		t.Errorf("BudgetDenied = %d, want %d", rep.BudgetDenied, want)
	}
	if rep.Probed != 2*budget {
		t.Errorf("Probed = %d, want %d", rep.Probed, 2*budget)
	}
	for as, st := range rep.PerAS {
		if st.Probed != budget {
			t.Errorf("PerAS[%d].Probed = %d, want %d", as, st.Probed, budget)
		}
		if st.BudgetDenied != 128-budget {
			t.Errorf("PerAS[%d].BudgetDenied = %d, want %d", as, st.BudgetDenied, 128-budget)
		}
	}
}

// asOfQuiet is asOf without the testing.T plumbing (for use inside
// prober callbacks).
func asOfQuiet(part rib.Partition, origins []uint32, a netaddr.Addr) uint32 {
	if i, ok := part.Find(a); ok {
		return origins[i]
	}
	return ^uint32(0)
}

type proberFunc func(ctx context.Context, addr netaddr.Addr) (Result, error)

func (f proberFunc) Probe(ctx context.Context, addr netaddr.Addr) (Result, error) {
	return f(ctx, addr)
}

// TestScannerBudgetHoldsAcrossResume is the acceptance criterion: an
// interrupted-and-resumed budget scan probes no AS beyond its cap,
// with the per-AS counters carried through the checkpoint.
func TestScannerBudgetHoldsAcrossResume(t *testing.T) {
	part, origins := politenessFixture(t)
	const budget = 50
	cfg := Config{
		Targets: part,
		Workers: 4,
		Seed:    13,
		Politeness: Politeness{
			Origins:  origins,
			ASBudget: budget,
		},
	}

	// Run 1: cancel mid-cycle.
	var probes1 []netaddr.Addr
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Prober = cancelAfterProber{record: &probes1, n: 60, cancel: cancel}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	cp := s1.Checkpoint()
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	if len(cp.ASProbed) == 0 {
		t.Fatal("checkpoint carries no per-AS probe counters")
	}

	// Round-trip the checkpoint through its JSON encoding, as a real
	// interrupted deployment would.
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp2.ASProbed) != len(cp.ASProbed) {
		t.Fatalf("ASProbed lost in serialization: %v vs %v", cp2.ASProbed, cp.ASProbed)
	}
	for as, n := range cp.ASProbed {
		if cp2.ASProbed[as] != n {
			t.Fatalf("ASProbed[%d] = %d after round-trip, want %d", as, cp2.ASProbed[as], n)
		}
	}

	// Run 2: fresh scanner resumed from the checkpoint.
	var probes2 []netaddr.Addr
	cfg.Prober = probeRecorder{record: &probes2}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Resume(cp2); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The budget holds across the whole cycle, and no address repeats.
	totals := map[uint32]int{}
	seen := map[netaddr.Addr]int{}
	for _, a := range append(append([]netaddr.Addr{}, probes1...), probes2...) {
		totals[asOf(t, part, origins, a)]++
		seen[a]++
	}
	for as, n := range totals {
		if n > budget {
			t.Errorf("AS%d received %d probes across interrupted+resumed runs, budget %d", as, n, budget)
		}
	}
	for a, c := range seen {
		if c != 1 {
			t.Errorf("%v probed %d times", a, c)
		}
	}
	// With ample remaining targets every AS should also reach its cap.
	for as, st := range rep2.PerAS {
		if st.Probed != budget {
			t.Errorf("resumed cycle ended with PerAS[%d].Probed = %d, want the full budget %d", as, st.Probed, budget)
		}
	}
}

// TestScannerMidCycleExclusionReloadHonored is the acceptance criterion:
// an exclusion list swapped while the cycle runs takes effect before the
// next draw (single worker: the very next address).
func TestScannerMidCycleExclusionReloadHonored(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	blocked := pfx("10.0.0.128/25")
	var s *Scanner
	var n int
	var late []netaddr.Addr // probes after the swap
	prober := proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
		n++
		if n == 10 {
			// The "reload": from now on the upper half is off-limits.
			s.SetExclusions([]netaddr.Prefix{blocked})
		}
		if n > 10 {
			late = append(late, a)
		}
		return Result{Addr: a}, nil
	})
	s = mustScanner(t, Config{Targets: part, Prober: prober, Workers: 1, Seed: 77})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range late {
		if blocked.Contains(a) {
			t.Fatalf("probed %v after it was excluded mid-cycle", a)
		}
	}
	if rep.Excluded == 0 {
		t.Fatal("no addresses counted as excluded after the mid-cycle swap")
	}
	if rep.Probed+rep.Excluded != part.AddressCount() {
		t.Fatalf("probed %d + excluded %d != %d targets", rep.Probed, rep.Excluded, part.AddressCount())
	}
	if s.ExclusionCount() != 1 {
		t.Fatalf("ExclusionCount = %d, want 1", s.ExclusionCount())
	}
}

func mustScanner(t testing.TB, cfg Config) *Scanner {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScannerResumedDrawsHonorGrownExclusions: addresses left unprobed
// by an interrupted cycle and excluded before the resume are counted as
// Excluded by the resumed run, never probed — reload and checkpoint
// compose.
func TestScannerResumedDrawsHonorGrownExclusions(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	cfg := Config{Targets: part, Workers: 2, Seed: 31}

	var probes1 []netaddr.Addr
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Prober = cancelAfterProber{record: &probes1, n: 64, cancel: cancel}
	s1 := mustScanner(t, cfg)
	if _, err := s1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatal("expected an interrupted run")
	}
	cp := s1.Checkpoint()

	blocked := pfx("10.0.0.0/25")
	var probes2 []netaddr.Addr
	cfg.Prober = probeRecorder{record: &probes2}
	cfg.Exclude = []netaddr.Prefix{blocked}
	s2 := mustScanner(t, cfg)
	if err := s2.Resume(cp); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range probes2 {
		if blocked.Contains(a) {
			t.Fatalf("resumed run probed excluded %v", a)
		}
	}
	// Every blocked address not already probed before the interruption
	// must surface as Excluded.
	already := 0
	for _, a := range probes1 {
		if blocked.Contains(a) {
			already++
		}
	}
	if want := blocked.NumAddresses() - uint64(already); rep2.Excluded != want {
		t.Fatalf("resumed run excluded %d, want %d (%d of %d blocked addresses were probed pre-reload)",
			rep2.Excluded, want, already, blocked.NumAddresses())
	}
}

// TestScannerFlakyProberAcrossResume: FlakyProber's injected errors are
// counted exactly once across an interrupted-and-resumed cycle — no
// double counting, no loss — and erroring draws are not re-probed.
func TestScannerFlakyProberAcrossResume(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	cfg := Config{Targets: part, Workers: 2, Seed: 3}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probes1 []netaddr.Addr
	cfg.Prober = &FlakyProber{
		Inner:     cancelAfterProber{record: &probes1, n: 100, cancel: cancel},
		FailEvery: 5,
	}
	s1 := mustScanner(t, cfg)
	rep1, err := s1.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	cp := s1.Checkpoint()

	var probes2 []netaddr.Addr
	cfg.Prober = &FlakyProber{
		Inner:     probeRecorder{record: &probes2},
		FailEvery: 5,
	}
	s2 := mustScanner(t, cfg)
	if err := s2.Resume(cp); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Probed+rep2.Probed != part.AddressCount() {
		t.Fatalf("probed %d + %d across runs, want %d", rep1.Probed, rep2.Probed, part.AddressCount())
	}
	// Every FailEvery-th call of each run's prober errored; the reports
	// must account each injected error exactly once.
	if want := rep1.Probed / 5; rep1.Errors != want {
		t.Fatalf("run 1 reported %d errors, injected %d", rep1.Errors, want)
	}
	if want := rep2.Probed / 5; rep2.Errors != want {
		t.Fatalf("run 2 reported %d errors, injected %d", rep2.Errors, want)
	}
}

// TestCampaignAllErrorCycleNoPanic: a cycle whose probes all fail yields
// an empty snapshot; with no host to select from the campaign finishes
// early with that cycle and a note, not a panic or an error — in both
// the full and incremental paths.
func TestCampaignAllErrorCycleNoPanic(t *testing.T) {
	uni, _ := campaignFixture(t)
	dead := proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
		return Result{Addr: a}, fmt.Errorf("network unplugged")
	})
	for _, incremental := range []bool{false, true} {
		c := &Campaign{
			Universe:    uni,
			Prober:      dead,
			Opts:        core.Options{Phi: 0.9},
			Workers:     2,
			Seed:        5,
			Incremental: incremental,
		}
		done, err := c.Run(context.Background(), 2)
		if err != nil {
			t.Fatalf("incremental=%v: all-error campaign failed: %v", incremental, err)
		}
		if len(done) != 1 || done[0].Report.Errors != uni.AddressCount() {
			t.Fatalf("incremental=%v: %d cycles, want the one all-error cycle", incremental, len(done))
		}
		if !strings.Contains(done[0].Note, "found no responsive hosts") {
			t.Errorf("incremental=%v: note %q does not say why the campaign stopped", incremental, done[0].Note)
		}
	}
}

// TestCampaignPolitenessNeedsOriginsOf: per-AS politeness without the
// plan→origins mapping is a configuration error, caught on cycle 0.
func TestCampaignPolitenessNeedsOriginsOf(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, _ := NewSimProber(live, 0, 3)
	c := &Campaign{
		Universe:   uni,
		Prober:     prober,
		Opts:       core.Options{Phi: 0.9},
		Seed:       5,
		Politeness: Politeness{ASBudget: 100},
	}
	if _, err := c.Run(context.Background(), 1); err == nil || !strings.Contains(err.Error(), "OriginsOf") {
		t.Fatalf("campaign without OriginsOf returned %v", err)
	}
}

// TestCampaignBudgetedFootprint: the campaign threads politeness through
// every cycle, remapping origins to each cycle's plan.
func TestCampaignBudgetedFootprint(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, err := NewSimProber(live, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One origin AS per /24 of the fixture.
	originsOf := func(plan rib.Partition) []uint32 {
		out := make([]uint32, plan.Len())
		for i := 0; i < plan.Len(); i++ {
			out[i] = 64500 + uint32(plan.Prefix(i).First()>>8&0xff)
		}
		return out
	}
	c := &Campaign{
		Universe:   uni,
		Prober:     prober,
		Opts:       core.Options{Phi: 0.9},
		Workers:    2,
		Seed:       5,
		Politeness: Politeness{Footprint: true},
		OriginsOf:  originsOf,
	}
	cycles, err := c.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cycles[0].Report.PerAS); got != 4 {
		t.Fatalf("cycle 0 footprint covers %d ASes, want 4", got)
	}
	// Cycle 1 scans the 2-prefix selection: its footprint must be keyed
	// by that plan's origins, not cycle 0's.
	if got := len(cycles[1].Report.PerAS); got != 2 {
		t.Fatalf("cycle 1 footprint covers %d ASes, want 2", got)
	}
	var probed uint64
	for _, st := range cycles[1].Report.PerAS {
		probed += st.Probed
	}
	if probed != cycles[1].Report.Probed {
		t.Fatalf("cycle 1 per-AS probes sum to %d, report says %d", probed, cycles[1].Report.Probed)
	}
}

func TestWriteFootprintTable(t *testing.T) {
	part, origins := politenessFixture(t)
	prober, _ := NewSimProber([]netaddr.Addr{netaddr.MustParseAddr("10.0.0.5")}, 0, 1)
	s := mustScanner(t, Config{
		Targets:    part,
		Prober:     prober,
		Workers:    2,
		Seed:       4,
		Politeness: Politeness{Origins: origins, Footprint: true},
	})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFootprint(&buf, part, origins, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"AS64500", "AS64501", "total", "100.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("footprint table missing %q:\n%s", want, out)
		}
	}
	// Reports without per-AS accounting are rejected, as are mismatched
	// origin mappings.
	if err := WriteFootprint(&buf, part, origins, &Report{}); err == nil {
		t.Error("footprint accepted a report without per-AS accounting")
	}
	if err := WriteFootprint(&buf, part, origins[:1], rep); err == nil {
		t.Error("footprint accepted a short origin mapping")
	}
}

func TestExclusionReloaderPoll(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exclude.conf")
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	prober, _ := NewSimProber(nil, 0, 1)
	s := mustScanner(t, Config{Targets: part, Prober: prober})

	r := NewExclusionReloader(s, path, time.Second)
	// Missing file: an error, list untouched.
	if _, err := r.Poll(); !os.IsNotExist(err) {
		t.Fatalf("Poll on a missing file returned %v", err)
	}
	if err := os.WriteFile(path, []byte("10.0.0.0/25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reloaded, err := r.Poll()
	if err != nil || !reloaded {
		t.Fatalf("first Poll = %v, %v", reloaded, err)
	}
	if s.ExclusionCount() != 1 {
		t.Fatalf("ExclusionCount = %d, want 1", s.ExclusionCount())
	}
	// Unchanged file: no reload.
	if reloaded, err := r.Poll(); err != nil || reloaded {
		t.Fatalf("unchanged Poll = %v, %v", reloaded, err)
	}
	// Grown file (size changes even if mtime granularity hides the
	// rewrite): reload.
	if err := os.WriteFile(path, []byte("10.0.0.0/25\n10.0.0.128/26\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if reloaded, err := r.Poll(); err != nil || !reloaded {
		t.Fatalf("grown Poll = %v, %v", reloaded, err)
	}
	if s.ExclusionCount() != 2 {
		t.Fatalf("ExclusionCount = %d, want 2", s.ExclusionCount())
	}
	// Unparseable file: error, previous list kept.
	if err := os.WriteFile(path, []byte("not a prefix at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if reloaded, err := r.Poll(); err == nil || reloaded {
		t.Fatalf("garbage Poll = %v, %v", reloaded, err)
	}
	if s.ExclusionCount() != 2 {
		t.Fatalf("ExclusionCount after failed reload = %d, want 2", s.ExclusionCount())
	}
}

func TestExclusionReloaderRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exclude.conf")
	if err := os.WriteFile(path, []byte("192.0.2.0/24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	prober, _ := NewSimProber(nil, 0, 1)
	s := mustScanner(t, Config{Targets: part, Prober: prober})

	r := NewExclusionReloader(s, path, time.Hour)
	var polls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Deterministic loop: the injected sleeper "waits" instantly three
	// times, then cancels — no wall-clock time passes.
	r.sleep = func(ctx context.Context, d time.Duration) error {
		if d != time.Hour {
			t.Errorf("sleep %v, want the configured interval", d)
		}
		if polls.Add(1) > 3 {
			cancel()
		}
		return ctx.Err()
	}
	var reloads atomic.Int64
	r.OnReload = func(n int, err error) {
		if err != nil {
			t.Errorf("OnReload error: %v", err)
			return
		}
		if n != 1 {
			t.Errorf("OnReload n = %d, want 1", n)
		}
		reloads.Add(1)
	}
	if err := r.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	if reloads.Load() != 1 {
		t.Fatalf("%d reloads, want 1 (later polls see an unchanged file)", reloads.Load())
	}
	if s.ExclusionCount() != 1 {
		t.Fatalf("ExclusionCount = %d, want 1", s.ExclusionCount())
	}
}

// TestScannerConcurrentReloadScanBackoff is the race-detector smoke
// test: a politeness-enabled scan runs while the exclusion list is
// swapped, per-AS rates are retuned and a reloader polls — all
// concurrently. Run under -race in CI.
func TestScannerConcurrentReloadScanBackoff(t *testing.T) {
	part, origins := politenessFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "exclude.conf")
	if err := os.WriteFile(path, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	flaky := proberFunc(func(_ context.Context, a netaddr.Addr) (Result, error) {
		if a%7 == 0 {
			return Result{Addr: a}, fmt.Errorf("flap")
		}
		return Result{Addr: a, Open: a%3 == 0}, nil
	})
	s := mustScanner(t, Config{
		Targets: part,
		Prober:  flaky,
		Rate:    1e7,
		Workers: 4,
		Seed:    8,
		Politeness: Politeness{
			Origins:  origins,
			ASRate:   1e7,
			ASBudget: 100,
			Backoff:  BackoffConfig{Threshold: 2},
		},
	})
	r := NewExclusionReloader(s, path, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		r.Run(ctx)
	}()
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			if i%2 == 0 {
				s.SetExclusions([]netaddr.Prefix{pfx("10.0.0.192/26")})
			} else {
				s.SetExclusions(nil)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; ctx.Err() == nil; i++ {
			_ = s.Policy().SetASRate(64500, float64(i%100+1))
			_, _ = s.Policy().ASRateOf(64501)
		}
	}()
	rep, err := s.Run(context.Background())
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probed+rep.Excluded+rep.BudgetDenied != part.AddressCount() {
		t.Fatalf("probed %d + excluded %d + denied %d != %d targets",
			rep.Probed, rep.Excluded, rep.BudgetDenied, part.AddressCount())
	}
}

// TestTCPProberContextError: a dial that failed because the parent
// context died surfaces ctx.Err() instead of masquerading as a closed
// port; a per-probe timeout stays a normal closed-port outcome.
func TestTCPProberContextError(t *testing.T) {
	p := &TCPProber{Port: 9, Timeout: 50 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Probe(ctx, netaddr.MustParseAddr("127.0.0.1")); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled probe returned %v, want context.Canceled", err)
	}
	deadCtx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := p.Probe(deadCtx, netaddr.MustParseAddr("127.0.0.1")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-dead probe returned %v, want context.DeadlineExceeded", err)
	}
	// A refused connection (closed port, live context): a normal
	// closed-port outcome, not an error. Grab a port that was just
	// listening and no longer is.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closedPort := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	pc := &TCPProber{Port: closedPort, Timeout: 50 * time.Millisecond}
	res, err := pc.Probe(context.Background(), netaddr.MustParseAddr("127.0.0.1"))
	if err != nil {
		t.Fatalf("closed-port probe returned error %v", err)
	}
	if res.Open {
		t.Fatal("closed-port probe reported an open port")
	}
}
