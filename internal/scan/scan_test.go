package scan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func TestPermutationVisitsAllOnce(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 4096, 100000} {
		pm, err := NewPermutation(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		count := uint64(0)
		for {
			idx, ok := pm.Next()
			if !ok {
				break
			}
			if idx >= n {
				t.Fatalf("n=%d: index %d out of range", n, idx)
			}
			if seen[idx] {
				t.Fatalf("n=%d: index %d visited twice", n, idx)
			}
			seen[idx] = true
			count++
		}
		if count != n {
			t.Fatalf("n=%d: visited %d indexes", n, count)
		}
		// Exhausted permutations stay exhausted.
		if _, ok := pm.Next(); ok {
			t.Fatalf("n=%d: Next after exhaustion", n)
		}
		// Reset replays the same order.
		pm.Reset()
		first, _ := pm.Next()
		pm.Reset()
		again, _ := pm.Next()
		if first != again {
			t.Fatalf("n=%d: reset changed order", n)
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	order := func(seed int64) []uint64 {
		pm, err := NewPermutation(1000, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for {
			idx, ok := pm.Next()
			if !ok {
				return out
			}
			out = append(out, idx)
		}
	}
	a, b := order(1), order(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("seeds 1 and 2 agree on %d/%d positions", same, len(a))
	}
}

func TestPermutationSpreads(t *testing.T) {
	// ZMap's point: early probes must not hammer one /16. Check that the
	// first 1% of a 2^20 permutation never hits any 1/16th bucket more
	// than 5x its fair share.
	const n = 1 << 20
	pm, err := NewPermutation(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	const window = n / 100
	buckets := make([]int, 16)
	for i := 0; i < window; i++ {
		idx, ok := pm.Next()
		if !ok {
			t.Fatal("exhausted early")
		}
		buckets[idx/(n/16)]++
	}
	fair := window / 16
	for b, c := range buckets {
		if c > 5*fair {
			t.Errorf("bucket %d got %d of first %d probes (fair share %d)", b, c, window, fair)
		}
	}
}

func TestMulmodPowmod(t *testing.T) {
	if got := mulmod(1<<62, 3, 1000003); got != ((1<<62)%1000003*3)%1000003 {
		t.Errorf("mulmod big: %d", got)
	}
	if got := powmod(2, 10, 1<<61); got != 1024 {
		t.Errorf("powmod = %d", got)
	}
}

func TestMillerRabin(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 104729, 4294967311, 2147483659}
	for _, p := range primes {
		if !millerRabin(p) {
			t.Errorf("%d reported composite", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 561, 104730, 4294967295, 3215031751}
	for _, c := range composites {
		if millerRabin(c) {
			t.Errorf("%d reported prime", c)
		}
	}
}

func TestNextSafePrime(t *testing.T) {
	p, q := nextSafePrime(100)
	if p != 107 || q != 53 {
		t.Errorf("nextSafePrime(100) = %d, %d", p, q)
	}
	if !millerRabin(p) || !millerRabin(q) || p != 2*q+1 {
		t.Error("not a safe prime")
	}
}

// TestLimiter runs a global-only PolicyLimiter on the real timer.
func TestLimiter(t *testing.T) {
	lim := testPolicy(t, Config{Rate: 1000, Burst: 10})
	// The burst drains at once; the 20 tokens after it refill at ~1000/s.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	for i := 0; i < 30; i++ {
		if err := lim.waitOne(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("20 tokens past the burst at 1000/s took only %v", elapsed)
	}
	// Canceled context aborts the wait.
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	slow := testPolicy(t, Config{Rate: 0.001, Burst: 1})
	if err := slow.waitOne(context.Background(), 0); err != nil { // drain
		t.Fatal(err)
	}
	if err := slow.waitOne(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("wait on canceled context: %v", err)
	}
}

func TestSimProber(t *testing.T) {
	live := []netaddr.Addr{pfx("10.0.0.0/24").First() + 5, pfx("10.0.0.0/24").First() + 9}
	p, err := NewSimProber(live, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Probe(context.Background(), live[0])
	if err != nil || !res.Open || res.RTT == 0 {
		t.Errorf("live probe: %+v, %v", res, err)
	}
	res, err = p.Probe(context.Background(), live[0]+1)
	if err != nil || res.Open {
		t.Errorf("dead probe: %+v, %v", res, err)
	}
	if _, err := NewSimProber(nil, 1.5, 1); err == nil {
		t.Error("bad loss rate accepted")
	}
	// Every address of a /24 and its neighbours, against a map: the
	// lower-bound search at both ends and between live hosts.
	rng := rand.New(rand.NewSource(3))
	block := pfx("10.0.1.0/24")
	want := map[netaddr.Addr]bool{}
	for i := 0; i < 40; i++ {
		want[block.First()+netaddr.Addr(rng.Intn(256))] = true
	}
	want[block.First()], want[block.Last()] = true, true
	var hosts []netaddr.Addr
	for a := range want {
		hosts = append(hosts, a)
	}
	p, err = NewSimProber(hosts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for a := block.First() - 2; a <= block.Last()+2; a++ {
		if res, err := p.Probe(context.Background(), a); err != nil || res.Open != want[a] {
			t.Fatalf("probe %v: %+v, %v; want open %v", a, res, err, want[a])
		}
	}
}

func TestSimProberLossDeterministic(t *testing.T) {
	var live []netaddr.Addr
	for i := 0; i < 2000; i++ {
		live = append(live, netaddr.Addr(0x0A000000+i))
	}
	p, _ := NewSimProber(live, 0.3, 7)
	open := 0
	for _, a := range live {
		r1, _ := p.Probe(context.Background(), a)
		r2, _ := p.Probe(context.Background(), a)
		if r1.Open != r2.Open {
			t.Fatal("loss not deterministic per address")
		}
		if r1.Open {
			open++
		}
	}
	// ≈70% should survive 30% loss.
	if open < 1200 || open > 1600 {
		t.Errorf("%d of 2000 open under 30%% loss", open)
	}
}

func TestScannerFindsAllHosts(t *testing.T) {
	part, err := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24"), pfx("10.0.2.0/23")})
	if err != nil {
		t.Fatal(err)
	}
	live := []netaddr.Addr{
		netaddr.MustParseAddr("10.0.0.17"),
		netaddr.MustParseAddr("10.0.2.1"),
		netaddr.MustParseAddr("10.0.3.255"),
		netaddr.MustParseAddr("99.99.99.99"), // outside targets
	}
	prober, _ := NewSimProber(live, 0, 1)
	s, err := New(Config{Targets: part, Prober: prober, Workers: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Probed != part.AddressCount() {
		t.Errorf("probed %d, want %d", report.Probed, part.AddressCount())
	}
	want := []string{"10.0.0.17", "10.0.2.1", "10.0.3.255"}
	if len(report.Responsive) != len(want) {
		t.Fatalf("responsive %v", report.Responsive)
	}
	for i, w := range want {
		if report.Responsive[i].String() != w {
			t.Errorf("responsive[%d] = %v, want %s", i, report.Responsive[i], w)
		}
	}
	if hr := report.Hitrate(); hr <= 0 || hr >= 0.01 {
		t.Errorf("hitrate %v implausible", hr)
	}
}

func TestScannerExclusions(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	live := []netaddr.Addr{netaddr.MustParseAddr("10.0.0.5")}
	prober, _ := NewSimProber(live, 0, 1)
	s, err := New(Config{
		Targets: part,
		Prober:  prober,
		Seed:    1,
		Exclude: []netaddr.Prefix{pfx("10.0.0.0/28")},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Excluded != 16 {
		t.Errorf("excluded %d, want 16", report.Excluded)
	}
	if report.Probed != 240 {
		t.Errorf("probed %d, want 240", report.Probed)
	}
	if len(report.Responsive) != 0 {
		t.Errorf("excluded host was probed: %v", report.Responsive)
	}
}

func TestScannerMaxProbesAndCancel(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/16")})
	prober, _ := NewSimProber(nil, 0, 1)
	s, err := New(Config{Targets: part, Prober: prober, Seed: 1, MaxProbes: 100})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Probed != 100 {
		t.Errorf("probed %d, want 100", report.Probed)
	}

	// Cancellation mid-scan surfaces the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s2, _ := New(Config{Targets: part, Prober: prober, Seed: 1, Rate: 10, Burst: 1})
	if _, err := s2.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run: %v", err)
	}
}

// TestScannerMaxProbesSleepsForNoSlot: the MaxProbes slot is reserved
// before the limiter, so once the budget is spent no worker sleeps for a
// token it would drop, and a wait that fails gives its slot back.
func TestScannerMaxProbesSleepsForNoSlot(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	prober, _ := NewSimProber(nil, 0, 1)
	for _, workers := range []int{1, 4} {
		s := mustScanner(t, Config{Targets: part, Prober: prober, Seed: 1, Workers: workers,
			MaxProbes: 1, Rate: 10, Burst: 1})
		var sleeps atomic.Int64
		s.policy.sleep = func(ctx context.Context, d time.Duration) error {
			sleeps.Add(1)
			return nil
		}
		report, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if report.Probed != 1 || sleeps.Load() != 0 {
			t.Errorf("%d workers: probed %d with %d sleeps, want 1 probe (the burst token) and no sleep", workers, report.Probed, sleeps.Load())
		}
	}

	// The second probe's wait is canceled: its slot goes back, so the
	// report counts the one probe sent.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := mustScanner(t, Config{Targets: part, Prober: prober, Seed: 1, Workers: 1,
		MaxProbes: 5, Rate: 10, Burst: 1})
	s.policy.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	report, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) || report.Probed != 1 {
		t.Errorf("canceled wait: probed %d, %v; want 1, context.Canceled", report.Probed, err)
	}
}

// TestScannerReleasesPacerCredit: at a rate where workers batch, each
// claims up to 16 global tokens at once but probes only the half of its
// shard that is not excluded. The credit left over goes back when the
// workers exit, so on a frozen clock the bucket ends holding exactly the
// burst minus the probes sent, and no worker slept.
func TestScannerReleasesPacerCredit(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/26")})
	prober, _ := NewSimProber(nil, 0, 1)
	s := mustScanner(t, Config{Targets: part, Prober: prober, Seed: 2, Workers: 4,
		Rate: 1e6, Burst: 64, Exclude: []netaddr.Prefix{pfx("10.0.0.32/27")}})
	clock := newFakeClock()
	var sleeps atomic.Int64
	s.policy.now = clock.now
	s.policy.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		return nil
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Probed != 32 || sleeps.Load() != 0 {
		t.Fatalf("probed %d with %d sleeps, want 32 and none", report.Probed, sleeps.Load())
	}
	if b := s.policy.global.balance(s.policy.clock()); b != 64-32 {
		t.Errorf("global bucket holds %v tokens after 32 probes from a burst of 64, want 32", b)
	}
}

// TestScannerAddrAtMatchesSearch compares the two-level addrAt with a
// sort.Search over the cumulative sizes, at every target boundary ±1 and
// at random indices, over one prefix, all /32s, mixed lengths and a /0.
func TestScannerAddrAtMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var slash32s, mixed []netaddr.Prefix
	for i := 0; i < 1000; i++ {
		slash32s = append(slash32s, netaddr.MustPrefixFrom(pfx("10.0.0.0/8").First()+netaddr.Addr(rng.Intn(1<<24)), 32))
	}
	// Random lengths from /8 to /32, each at a random aligned spot of
	// its own /8, so they cannot overlap.
	for i := 0; i < 200; i++ {
		bits := 8 + rng.Intn(25)
		off := netaddr.Addr(rng.Intn(1<<24)) &^ (1<<(32-bits) - 1)
		mixed = append(mixed, netaddr.MustPrefixFrom(netaddr.Addr(i+1)<<24+off, bits))
	}
	for _, tc := range []struct {
		name string
		ps   []netaddr.Prefix
	}{
		{"one-prefix", []netaddr.Prefix{pfx("192.0.2.0/24")}},
		{"all-/32", dedupPrefixes(slash32s)},
		{"mixed", mixed},
		{"slash-0", []netaddr.Prefix{pfx("0.0.0.0/0")}},
	} {
		part, err := rib.NewPartition(tc.ps)
		if err != nil {
			t.Fatal(err)
		}
		prober, _ := NewSimProber(nil, 0, 1)
		s := mustScanner(t, Config{Targets: part, Prober: prober})
		if len(s.top) > part.Len()+1 {
			t.Errorf("%s: top table has %d entries for %d targets", tc.name, len(s.top), part.Len())
		}
		n := part.AddressCount()
		check := func(idx uint64) {
			i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > idx })
			want := part.Prefix(i).First() + netaddr.Addr(idx-(s.cum[i]-part.Prefix(i).NumAddresses()))
			if got, gi := s.addrAt(idx); got != want || gi != i {
				t.Fatalf("%s: addrAt(%d) = %v, %d; want %v, %d", tc.name, idx, got, gi, want, i)
			}
		}
		for _, c := range s.cum {
			for _, idx := range []uint64{c - 1, c, c + 1} {
				if idx < n {
					check(idx)
				}
			}
		}
		check(0)
		for i := 0; i < 10000; i++ {
			check(uint64(rng.Int63n(int64(n))))
		}
	}
}

// dedupPrefixes drops repeated prefixes.
func dedupPrefixes(ps []netaddr.Prefix) []netaddr.Prefix {
	seen := map[netaddr.Prefix]bool{}
	var out []netaddr.Prefix
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func TestScannerErrorAccounting(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/26")})
	inner, _ := NewSimProber(nil, 0, 1)
	s, err := New(Config{
		Targets: part,
		Prober:  &FlakyProber{Inner: inner, FailEvery: 4},
		Workers: 1,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 16 {
		t.Errorf("errors %d, want 16 (64 probes / 4)", report.Errors)
	}
}

// ctxProber models a real network prober: handed a dead context it
// fails, as any socket operation would. It cancels the run after n
// successful probes.
type ctxProber struct {
	n      *int
	limit  int
	cancel context.CancelFunc
}

func (p ctxProber) Probe(ctx context.Context, addr netaddr.Addr) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{Addr: addr}, err
	}
	*p.n++
	if *p.n == p.limit {
		p.cancel()
	}
	return Result{Addr: addr}, nil
}

// TestScannerCancelNoSpuriousErrors is the cancellation-accounting
// regression test: once the run error is set, no further target may be
// probed with a dead context. The channel-fed engine kept probing every
// enqueued target after cancellation, inflating Report.Errors by up to
// Workers*2 spurious failures; the sharded engine stops each worker at
// its next draw, so a canceled run reports Errors == 0.
func TestScannerCancelNoSpuriousErrors(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	s, err := New(Config{
		Targets: part,
		Prober:  ctxProber{n: &n, limit: 40, cancel: cancel},
		Workers: 1, // single worker: the stop is observed deterministically
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if report.Errors != 0 {
		t.Errorf("canceled run reported %d spurious errors", report.Errors)
	}
	if report.Probed != 40 {
		t.Errorf("probed %d targets, want exactly 40 (none after cancellation)", report.Probed)
	}
}

// TestScannerPreCanceledRunProbesNothing: a context canceled before Run
// must not transmit a single probe, even with burst tokens available.
func TestScannerPreCanceledRunProbesNothing(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	prober, _ := NewSimProber(nil, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(Config{Targets: part, Prober: prober, Workers: 4, Seed: 1, Rate: 1000, Burst: 64})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v", err)
	}
	if report.Probed != 0 || report.Errors != 0 {
		t.Errorf("pre-canceled run probed %d, errored %d; want 0, 0", report.Probed, report.Errors)
	}
}

// TestScannerExclusionsConsumeNothing proves excluded targets consume
// neither rate tokens nor the Probed counter: with every non-excluded
// target covered by the burst, the limiter never sleeps.
func TestScannerExclusionsConsumeNothing(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/26")}) // 64 addrs
	prober, _ := NewSimProber(nil, 0, 1)
	s, err := New(Config{
		Targets: part,
		Prober:  prober,
		Workers: 2,
		Seed:    4,
		Rate:    1, // one token per second: any excess token use would sleep
		Burst:   16,
		Exclude: []netaddr.Prefix{pfx("10.0.0.16/28"), pfx("10.0.0.32/27")}, // 48 of 64
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	var sleeps atomic.Int64
	s.policy.now = clock.now
	s.policy.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		clock.advance(d)
		return nil
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Excluded != 48 || report.Probed != 16 {
		t.Fatalf("excluded %d probed %d, want 48 and 16", report.Excluded, report.Probed)
	}
	if n := sleeps.Load(); n != 0 {
		t.Errorf("limiter slept %d times: excluded targets consumed rate tokens", n)
	}
}

func TestScannerOnResultCallback(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/28")})
	prober, _ := NewSimProber([]netaddr.Addr{netaddr.MustParseAddr("10.0.0.3")}, 0, 1)
	var mu struct {
		n    int
		open int
		m    chan struct{}
	}
	results := make(chan Result, 16)
	s, err := New(Config{
		Targets:  part,
		Prober:   prober,
		Seed:     1,
		OnResult: func(r Result) { results <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(results)
	for r := range results {
		mu.n++
		if r.Open {
			mu.open++
		}
	}
	if mu.n != 16 || mu.open != 1 {
		t.Errorf("callback saw %d results, %d open", mu.n, mu.open)
	}
}

func TestScannerConfigErrors(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	prober, _ := NewSimProber(nil, 0, 1)
	if _, err := New(Config{Prober: prober}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := New(Config{Targets: part}); err == nil {
		t.Error("no prober accepted")
	}
}

func TestTCPProberAgainstLocalListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fmt.Fprint(conn, "220 synthetic FTP ready\r\n")
			conn.Close()
		}
	}()
	port := ln.Addr().(*net.TCPAddr).Port
	prober := &TCPProber{Port: port, Timeout: 2 * time.Second, BannerBytes: 64}
	addr := netaddr.MustParseAddr("127.0.0.1")

	res, err := prober.Probe(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Open {
		t.Fatal("local listener reported closed")
	}
	if !strings.HasPrefix(string(res.Banner), "220") {
		t.Errorf("banner %q", res.Banner)
	}

	// A port with (almost certainly) no listener reports closed, not error.
	closedProber := &TCPProber{Port: 1, Timeout: 200 * time.Millisecond}
	res, err = closedProber.Probe(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Open {
		t.Skip("something actually listens on port 1; skipping closed-port assertion")
	}
}

func TestScannerWithTCPProberEndToEnd(t *testing.T) {
	// Full engine over loopback: a /30 target partition where exactly one
	// address (127.0.0.1) has a listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	port := ln.Addr().(*net.TCPAddr).Port
	part, err := rib.NewPartition([]netaddr.Prefix{pfx("127.0.0.0/30")})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Targets: part,
		Prober:  &TCPProber{Port: port, Timeout: 300 * time.Millisecond},
		Workers: 4,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range report.Responsive {
		if a == netaddr.MustParseAddr("127.0.0.1") {
			found = true
		}
	}
	if !found {
		t.Errorf("scanner missed the loopback listener: %v", report.Responsive)
	}
}

func TestParseExclusions(t *testing.T) {
	input := `# operator blocklist
10.0.0.0/8
192.0.2.1      # single address

198.51.100.0/24	# trailing comment`
	got, err := ParseExclusions(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.0/8", "192.0.2.1/32", "198.51.100.0/24"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, w := range want {
		if got[i].String() != w {
			t.Errorf("exclusion %d = %v, want %s", i, got[i], w)
		}
	}
	if _, err := ParseExclusions(strings.NewReader("not-a-prefix")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseExclusionsEdgeCases(t *testing.T) {
	t.Run("comment-only and blank lines", func(t *testing.T) {
		got, err := ParseExclusions(strings.NewReader("# only comments\n\n   \n#another\n"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("comment-only input produced %v", got)
		}
	})
	t.Run("bare addresses become /32", func(t *testing.T) {
		got, err := ParseExclusions(strings.NewReader("192.0.2.7\n  10.1.2.3  \n"))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"192.0.2.7/32", "10.1.2.3/32"}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i, w := range want {
			if got[i].String() != w {
				t.Errorf("exclusion %d = %v, want %s", i, got[i], w)
			}
		}
	})
	t.Run("CRLF line endings", func(t *testing.T) {
		got, err := ParseExclusions(strings.NewReader("10.0.0.0/8\r\n192.0.2.1\r\n# comment\r\n"))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"10.0.0.0/8", "192.0.2.1/32"}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i, w := range want {
			if got[i].String() != w {
				t.Errorf("exclusion %d = %v, want %s", i, got[i], w)
			}
		}
	})
	t.Run("invalid CIDR reports its line number", func(t *testing.T) {
		input := "# header\n10.0.0.0/8\n\n10.0.0.0/33\n"
		_, err := ParseExclusions(strings.NewReader(input))
		if err == nil {
			t.Fatal("invalid CIDR accepted")
		}
		if !strings.Contains(err.Error(), "line 4") {
			t.Errorf("error %q does not name line 4", err)
		}
	})
	t.Run("empty input", func(t *testing.T) {
		got, err := ParseExclusions(strings.NewReader(""))
		if err != nil || len(got) != 0 {
			t.Errorf("empty input: %v, %v", got, err)
		}
	})
}

func TestRateLimitedScanDuration(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/28")}) // 16 addrs
	prober, _ := NewSimProber(nil, 0, 1)
	s, err := New(Config{Targets: part, Prober: prober, Rate: 200, Burst: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if report.Probed != 16 {
		t.Fatalf("probed %d", report.Probed)
	}
	// 16 probes at 200/s with burst 1 needs ≥ ~70ms.
	if elapsed < 50*time.Millisecond {
		t.Errorf("rate-limited scan finished in %v", elapsed)
	}
}

func BenchmarkPermutationNext(b *testing.B) {
	pm, err := NewPermutation(1<<30, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pm.Next(); !ok {
			pm.Reset()
		}
	}
}

func BenchmarkScannerSim(b *testing.B) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/16")})
	var live []netaddr.Addr
	for i := 0; i < 1000; i++ {
		live = append(live, netaddr.Addr(0x0A000000+i*17))
	}
	prober, _ := NewSimProber(live, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Targets: part, Prober: prober, Workers: 8, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
