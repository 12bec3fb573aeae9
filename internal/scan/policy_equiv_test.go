package scan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/rib"
)

// recSleeper records a pacer's sleep requests without sleeping: the
// schedule, not the sleeper, decides when virtual time passes.
type recSleeper struct {
	n    int
	d    time.Duration
	fail error // returned instead of nil (a canceled sleep)
}

func (r *recSleeper) sleep(ctx context.Context, d time.Duration) error {
	r.n++
	r.d = d
	return r.fail
}

// randomPolicyConfig draws a pacer hierarchy over the given six target
// prefixes in three ASes (plus the AS-0 bucket), with rates whose
// per-token intervals are mostly not whole nanoseconds. Backoff, when
// drawn, runs at the pacer's fixed floor and recovery step.
func randomPolicyConfig(rng *rand.Rand, targets rib.Partition) Config {
	rates := []float64{3, 7, 10, 64, 100, 333.3, 1000, 12345.6}
	pick := func() float64 { return rates[rng.Intn(len(rates))] }
	cfg := Config{Targets: targets, Politeness: Politeness{Origins: []uint32{10, 10, 20, 20, 30, 0}}}
	pol := &cfg.Politeness
	for cfg.Rate == 0 && pol.ASRate == 0 && pol.PrefixRate == 0 {
		if rng.Intn(2) == 0 {
			cfg.Rate, cfg.Burst = pick(), rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			pol.ASRate, pol.ASBurst = pick(), rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			pol.PrefixRate, pol.PrefixBurst = pick(), rng.Intn(4)
		}
	}
	if pol.ASRate > 0 && rng.Intn(2) == 0 {
		pol.Backoff = BackoffConfig{Threshold: 1 + rng.Intn(4)}
	}
	return cfg
}

// TestPolicyLimiterMatchesMutexReference drives the CAS pacer and the
// mutex pacer it replaced (policy_legacy_test.go) through the same
// seeded schedules on one virtual clock: waits, canceled waits, probe
// outcomes, external rate changes and clock advances. Every step must
// agree on errors and on ASRateOf, sleep lengths may differ by at most
// 1 ns (float rounding of the two refill forms), and both must make the
// same sleep-or-not decision — except where the reference's own debt is
// float residue around zero (at most 1 in 100 waits may be).
func TestPolicyLimiterMatchesMutexReference(t *testing.T) {
	const seeds, steps = 60, 1500
	// The targets map to the first four ASes. AS 99 is off the plan: the
	// live pacer refuses to retune it and reports the configured rate.
	ases := []uint32{0, 10, 20, 30, 99}
	targeted := ases[:4]
	// noiseNs bounds the reference's float residue: its token counts
	// carry ~1e-16 relative error, a debt far below 1e-3 ns.
	const noiseNs = 1e-3
	const prefixes = 6
	targets := policyTargets(t, prefixes)
	ops, waits, noise := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomPolicyConfig(rng, targets)
		live, ref := testPolicy(t, cfg), newMutexPolicy(cfg)
		clock := newFakeClock()
		var liveSleep, refSleep recSleeper
		live.now, live.sleep = clock.now, liveSleep.sleep
		ref.now, ref.sleep = clock.now, refSleep.sleep
		canceledCtx, cancel := context.WithCancel(context.Background())
		cancel()

		for step := 0; step < steps; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (rate %v burst %d, %+v): "+format, append([]any{seed, step, cfg.Rate, cfg.Burst, cfg.Politeness}, args...)...)
			}
			pfx := rng.Intn(prefixes)
			switch op := rng.Intn(20); {
			case op < 11: // Wait; 2 in 11 canceled
				waits++
				ctx, sleepErr := context.Background(), error(nil)
				if op >= 9 {
					ctx, sleepErr = canceledCtx, context.Canceled
				}
				liveSleep, refSleep = recSleeper{fail: sleepErr}, recSleeper{fail: sleepErr}
				refNeed := mutexNeedNs(ref, pfx, clock.now().UnixNano())
				lerr, rerr := live.waitOne(ctx, pfx), ref.Wait(ctx, pfx)
				if !errors.Is(lerr, rerr) || (lerr == nil) != (rerr == nil) {
					fail("Wait errors differ: live %v, reference %v", lerr, rerr)
				}
				switch {
				case liveSleep.n == refSleep.n:
					if diff := liveSleep.d - refSleep.d; diff < -1 || diff > 1 {
						fail("live slept %v, reference %v", liveSleep.d, refSleep.d)
					}
				case math.Abs(refNeed) <= noiseNs:
					// The reference's debt is float residue around zero,
					// so its verdict is rounding, not policy; the side that
					// slept must have slept only the 1 µs floor.
					if max(liveSleep.d, refSleep.d) != time.Microsecond {
						fail("noise-band debt %.3g ns slept live %v, reference %v", refNeed, liveSleep.d, refSleep.d)
					}
					noise++
				default:
					fail("live slept %d times, reference %d (reference debt %.3f ns)", liveSleep.n, refSleep.n, refNeed)
				}
				if sleepErr == nil && refSleep.n > 0 && rng.Intn(2) == 0 {
					clock.advance(refSleep.d) // the worker wakes on time
				}
			case op < 15:
				ok := rng.Intn(3) == 0
				if l, r := live.observe(pfx, ok), ref.Observe(pfx, ok); l != r {
					fail("Observe(%d, %v): live %v, reference %v", pfx, ok, l, r)
				}
			case op < 16:
				rate := []float64{0, -1, math.NaN(), 2.5, 50, 333.3, 5000}[rng.Intn(7)]
				as := targeted[rng.Intn(len(targeted))]
				lerr, rerr := live.SetASRate(as, rate), ref.SetASRate(as, rate)
				if (lerr == nil) != (rerr == nil) {
					fail("SetASRate(%d, %v): live %v, reference %v", as, rate, lerr, rerr)
				}
				if err := live.SetASRate(99, rate); err == nil {
					fail("SetASRate(99, %v) on an off-plan AS accepted", rate)
				}
			default:
				// Log-uniform from 1 ns to ~4 s: sub-token gaps and full refills.
				clock.advance(time.Duration(math.Exp(rng.Float64() * math.Log(4e9))))
			}
			for _, as := range ases {
				lr, lok := live.ASRateOf(as)
				rr, rok := ref.ASRateOf(as)
				if lr != rr || lok != rok {
					fail("ASRateOf(%d): live %v %v, reference %v %v", as, lr, lok, rr, rok)
				}
			}
			ops++
		}
	}
	t.Logf("%d scheduled operations agreed (%d waits, %d with the reference's debt in its rounding noise)", ops, waits, noise)
	if noise*100 > waits {
		t.Errorf("%d of %d waits fell in the reference's noise band", noise, waits)
	}
}

// mutexNeedNs is the debt, in ns, that the reference's next Wait on
// prefix pfx at time nowNs would sleep for (≤ 0: no sleep), computed on
// copies of its buckets so the reference itself is untouched.
func mutexNeedNs(p *mutexPolicy, pfx int, nowNs int64) float64 {
	need := math.Inf(-1)
	takeCopy := func(b *mutexBucket, rate float64, burst int) {
		c := newMutexBucket(rate, burst)
		if b != nil {
			*c = *b
		}
		c.take(nowNs)
		need = max(need, -c.tokens/c.rate*1e9)
	}
	if p.global != nil {
		takeCopy(p.global, 0, 0)
	}
	if p.asRate > 0 {
		b := p.asByPfx[pfx]
		if b == nil {
			b = p.as[p.origins[pfx]]
		}
		takeCopy(b, p.asRate, p.asBurst)
	}
	if p.pfx != nil {
		takeCopy(p.pfx[pfx], p.pfxRate, p.pfxBurst)
	}
	return need
}

// TestPolicyLimiterStressSlotsExact: on a frozen virtual clock with burst
// 1, k goroutines × m Waits each reserve a distinct slot, so the sleeps
// are exactly {1, …, k·m} intervals — a lost CAS update would double a
// slot, a lost refund or a torn read would skip one.
//
// With several levels each level takes its token in its own CAS, so two
// waiters can hold slots i and i+1 at one level and i+1 and i at another,
// and both wake at i+1. The hierarchy case therefore checks every level
// separately: each handed out exactly k·m slots (its balance is exactly
// -k·m), and every sleep is one of them.
//
// The batched cases give each goroutine its own pacer claiming up to
// batch global tokens at once, with a global burst of k·batch. Every
// goroutine releases its credit only once all are done, so no refund can
// hand a sleeper's slot out again, and the global-only sleeps must still
// be exactly the slots past the burst plus whatever credit was left over.
// Under the hierarchy the credit goes back before every sleep. Either
// way each level's balance after the releases counts every probe once.
func TestPolicyLimiterStressSlotsExact(t *testing.T) {
	const k, m = 8, 64
	const interval = 10 * time.Millisecond // rate 100
	const batch = 4
	for _, tc := range []struct {
		name  string
		cfg   Config
		batch int  // 0: every goroutine calls waitOne
		exact bool // one level: the sleeps are exactly the slots
	}{
		{"global", Config{Rate: 100, Burst: 1}, 0, true},
		{"hierarchy", Config{Rate: 100, Burst: 1, Politeness: Politeness{
			ASRate: 100, ASBurst: 1, PrefixRate: 100, PrefixBurst: 1, Origins: []uint32{7},
		}}, 0, false},
		{"global-batched", Config{Rate: 100, Burst: k * batch}, batch, true},
		{"hierarchy-batched", Config{Rate: 100, Burst: k * batch, Politeness: Politeness{
			ASRate: 100, ASBurst: 1, PrefixRate: 100, PrefixBurst: 1, Origins: []uint32{7},
		}}, batch, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, _ := virtualPolicy(t, tc.cfg)
			var mu sync.Mutex
			var slept []time.Duration
			p.sleep = func(ctx context.Context, d time.Duration) error {
				mu.Lock()
				slept = append(slept, d)
				mu.Unlock()
				return nil // the clock stays frozen
			}
			if err := p.waitOne(context.Background(), 0); err != nil {
				t.Fatal(err) // the first burst token
			}
			var wg, done sync.WaitGroup
			done.Add(k)
			for g := 0; g < k; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					pc := pacer{p: p, k: max(tc.batch, 1)}
					for i := 0; i < m; i++ {
						var err error
						if tc.batch == 0 {
							err = p.waitOne(context.Background(), 0)
						} else {
							err = pc.wait(context.Background(), 0)
						}
						if err != nil {
							t.Error(err)
							break
						}
					}
					done.Done()
					done.Wait()
					pc.release()
				}()
			}
			wg.Wait()
			levels := []*bucket{p.global}
			if p.as != nil {
				levels = append(levels, p.asBucket(0), &p.pfx[0])
			}
			// Each level starts with its burst; the first Wait and the k·m
			// probes took one token each.
			now := p.clock()
			for _, b := range levels {
				if want := b.burst - 1 - k*m; b.balance(now) != want {
					t.Fatalf("bucket balance %v after %d probes, want %v", b.balance(now), k*m+1, want)
				}
			}
			// Past its burst every probe sleeps; a global token held as
			// credit and released at the end makes one more probe sleep.
			past := k*m + 1 - int(p.global.burst)
			if len(slept) < past || tc.batch == 0 && len(slept) != past {
				t.Fatalf("%d sleeps for %d probes past the burst", len(slept), past)
			}
			sort.Slice(slept, func(i, j int) bool { return slept[i] < slept[j] })
			for i, d := range slept {
				want := time.Duration(i+1) * interval
				if tc.exact && d != want {
					t.Fatalf("slot %d slept %v, want %v", i, d, want)
				}
				if d%interval != 0 || d < interval || d > k*m*interval {
					t.Fatalf("sleep %v is not one of the %d slots", d, k*m)
				}
			}
			if last := slept[len(slept)-1]; tc.batch == 0 && last != k*m*interval {
				t.Fatalf("last wake at %v, want %v", last, k*m*interval)
			}
		})
	}
}

// TestPolicyLimiterBatchedWindowBound runs W goroutines, each with its own
// pacer claiming up to k global tokens, against a virtual clock that the
// probes themselves advance, with the odd idle gap that lets the buckets
// refill to their cap. Per level (the global bucket, each AS, each
// prefix), over the send times:
//   - no level ever sends before its slot: by time t a level has sent at
//     most burst + t/interval probes;
//   - every window [a, b] holds at most burst + (b−a)/interval + W·k
//     sends, the W·k being the probes that read the clock before a;
//   - after every worker has released, no pacer holds credit, and the
//     sends plus the balance left never exceed what the rate minted.
//
// In the share cases each pacer owns share w mod S of S = min(W, ASBurst)
// shares, as a Scanner's workers do, and borrows a due token of another
// share when its own has none, so an AS's sends and balance are summed
// over its S shares, each at rate/S with burst/S: the bounds hold for
// the sum unchanged. With ASBurst 4 each pacer owns a share of its own,
// with 6 a share holds a token and a half, and with 2 two pacers own each
// share. In the skewed case worker 0 draws every probe of AS 10, so that
// AS's tokens reach it only through its own share and borrowing from
// shares that sit full. The per-prefix level is loose there, so that the
// per-AS level binds, and each share is also checked as a level of its
// own at rate/S with burst/S; any pacer may take from it, so its window
// slack stays W·k.
func TestPolicyLimiterBatchedWindowBound(t *testing.T) {
	const workers, k, m = 4, 4, 400
	const probeNs = 300_000 // a probe takes up to 0.3 ms: demand far above every rate
	for _, tc := range []struct {
		name              string
		rate, asRate, pfx float64
		asBurst, pfxBurst int
		shares, skew      bool
	}{
		{"global-binds", 1000, 1000, 500, 4, 2, false, false},
		{"lower-levels-bind", 5000, 400, 250, 4, 2, false, false},
		// The per-AS level binds, from the first probe on.
		{"as-shares", 5000, 100, 5000, 4, 64, true, false},
		{"as-shares-skewed", 5000, 100, 5000, 4, 64, true, true},
		{"as-shares-fractional", 5000, 100, 5000, 6, 64, true, false},
		{"as-shares-shared", 5000, 100, 5000, 2, 64, true, false},
		{"as-shares-shared-skewed", 5000, 100, 5000, 2, 64, true, true},
	} {
		pol := Politeness{
			ASRate: tc.asRate, ASBurst: tc.asBurst,
			PrefixRate: tc.pfx, PrefixBurst: tc.pfxBurst,
			Origins: []uint32{10, 10, 20, 20, 30, 30},
		}
		cfg := Config{Rate: tc.rate, Burst: workers * k, Politeness: pol}
		if tc.shares {
			cfg.Workers = workers
		}
		prefixes := len(pol.Origins)
		ivOf := func(rate float64) time.Duration { return time.Duration(1e9 / rate) }
		for seed := int64(1); seed <= 8; seed++ {
			p, clock, _ := virtualPolicy(t, cfg)
			start := clock.now()
			p.clock() // the limiter clock's zero is start
			type send struct {
				at         time.Duration
				pfx, share int // share: the one the per-AS token came from
			}
			sends := make([][]send, workers)
			pacers := make([]pacer, workers)
			// A pass (wait, send, probe time) runs whole, so a send's time
			// is exactly when its wait returned; the workers' passes still
			// interleave in any order.
			var pass sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(w)))
					pacers[w] = pacer{p: p, k: k}
					pc := &pacers[w]
					defer pc.release()
					if tc.shares {
						pc.share = w % p.nShares
					}
					for i := 0; i < m; i++ {
						pfx := rng.Intn(prefixes)
						if tc.skew && w == 0 {
							pfx = rng.Intn(2) // AS 10's prefixes, 0 and 1
						} else if tc.skew {
							pfx = 2 + rng.Intn(prefixes-2)
						}
						pass.Lock()
						// The share whose word the wait moved gave the token.
						id, before := int(p.tab.ids[pfx]), make([]uint64, p.nShares)
						for j := range before {
							before[j] = p.shares[j*len(p.as)+id].Load()
						}
						err := pc.wait(context.Background(), pfx)
						from := -1
						for j, old := range before {
							if p.shares[j*len(p.as)+id].Load() != old {
								from = j
							}
						}
						sends[w] = append(sends[w], send{clock.now().Sub(start), pfx, from})
						// Now and then the worker idles.
						d := time.Duration(rng.Int63n(probeNs))
						if rng.Intn(200) == 0 {
							d = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
						}
						clock.advance(d)
						pass.Unlock()
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			end := clock.now().Sub(start)

			// A level's window slack is the probes of the pacers that
			// may take from it: W·k, every pacer.
			type level struct {
				name    string
				balance func(now float64) float64 // summed over the level's shares
				burst   float64
				iv      time.Duration
				slack   int
				at      []time.Duration
			}
			global := &level{name: "global", balance: p.global.balance, burst: float64(cfg.Burst), iv: ivOf(cfg.Rate), slack: workers * k}
			levels := []*level{global}
			byAS := map[uint32]*level{}
			byShare := map[[2]int]*level{} // per AS and share, in the share cases
			byPfx := map[int]*level{}
			for _, sl := range sends {
				for _, s := range sl {
					if s.share < 0 {
						t.Fatalf("%s seed %d: a send at %v took no per-AS token", tc.name, seed, s.at)
					}
					global.at = append(global.at, s.at)
					as, pfx := pol.Origins[s.pfx], s.pfx
					if byAS[as] == nil {
						byAS[as] = &level{name: fmt.Sprintf("AS%d", as), balance: func(now float64) float64 { return p.asBalance(pfx, now) }, burst: float64(pol.ASBurst), iv: ivOf(pol.ASRate), slack: workers * k}
						levels = append(levels, byAS[as])
					}
					byAS[as].at = append(byAS[as].at, s.at)
					// Each share is a level of its own at rate/S and burst/S.
					if sh := [2]int{int(as), s.share}; tc.shares {
						if byShare[sh] == nil {
							byShare[sh] = &level{name: fmt.Sprintf("AS%d share %d", as, s.share), balance: func(now float64) float64 { return p.shareBalance(pfx, sh[1], now) }, burst: float64(pol.ASBurst) / float64(p.nShares), iv: time.Duration(p.nShares) * ivOf(pol.ASRate), slack: workers * k}
							levels = append(levels, byShare[sh])
						}
						byShare[sh].at = append(byShare[sh].at, s.at)
					}
					if byPfx[s.pfx] == nil {
						byPfx[s.pfx] = &level{name: fmt.Sprintf("prefix %d", s.pfx), balance: p.pfx[s.pfx].balance, burst: float64(pol.PrefixBurst), iv: ivOf(pol.PrefixRate), slack: workers * k}
						levels = append(levels, byPfx[s.pfx])
					}
					byPfx[s.pfx].at = append(byPfx[s.pfx].at, s.at)
				}
			}
			if len(global.at) != workers*m {
				t.Fatalf("%s seed %d: %d sends, want %d", tc.name, seed, len(global.at), workers*m)
			}
			for w := range pacers {
				if c := pacers[w].credit; c != 0 {
					t.Fatalf("%s seed %d: worker %d kept %d tokens of credit", tc.name, seed, w, c)
				}
			}
			for _, l := range levels {
				at := l.at
				sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
				// The i-th send (from 1) is due no earlier than (i−burst)·iv.
				for i, t0 := range at {
					if slot := time.Duration((float64(i+1) - l.burst) * float64(l.iv)); t0 < slot {
						t.Fatalf("%s seed %d %s: send %d at %v, before its slot %v", tc.name, seed, l.name, i+1, t0, slot)
					}
				}
				// Window [at[i], at[j]] holds j−i+1 sends. Its slack against the
				// bound, in intervals, is maximal for the i maximizing
				// at[i]/iv − i, which a running maximum tracks.
				best := math.Inf(-1)
				for j, tj := range at {
					best = max(best, float64(at[j])/float64(l.iv)-float64(j))
					if excess := float64(j+1) - float64(tj)/float64(l.iv) + best - l.burst - float64(l.slack); excess > 1e-9 {
						t.Fatalf("%s seed %d %s: a window ending at %v holds %.3g sends over its bound", tc.name, seed, l.name, tj, excess)
					}
				}
				// Sends plus the tokens still available never exceed the burst
				// plus what the rate minted since the start: no credit was
				// created.
				now := p.clock()
				if got, minted := float64(len(at))+l.balance(now), l.burst+float64(end)/float64(l.iv); got > minted+1e-9 {
					t.Fatalf("%s seed %d %s: %d sends and a balance of %.3f exceed the %.3f tokens minted", tc.name, seed, l.name, len(at), l.balance(now), minted)
				}
			}
		}
	}
}
