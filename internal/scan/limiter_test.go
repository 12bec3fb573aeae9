package scan

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutex-protected virtual clock shared by the pacer's
// now() and the injected sleeper, so the pacer's blocking path runs
// entirely on virtual time. The Wait tests below pace through a
// global-only PolicyLimiter, one bucket, the scanner's Config.Rate path,
// with waitOne: a pacer that takes one token per call.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestWaitBlockingPathDeterministic(t *testing.T) {
	lim, clock, sleeps := virtualPolicy(t, Config{Rate: 100, Burst: 2})
	start := clock.now()

	// Burst drains without sleeping.
	for i := 0; i < 2; i++ {
		if err := lim.waitOne(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := sleeps.Load(); n != 0 {
		t.Fatalf("burst tokens slept %d times", n)
	}

	// The next token must sleep exactly one refill interval (10ms at
	// 100/s) of virtual time.
	if err := lim.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if n := sleeps.Load(); n != 1 {
		t.Fatalf("third token slept %d times, want 1", n)
	}
	if got := clock.now().Sub(start); got != 10*time.Millisecond {
		t.Fatalf("virtual time advanced %v, want 10ms", got)
	}
}

func TestWaitUnderContention(t *testing.T) {
	const (
		rate    = 100.0
		burst   = 5
		workers = 8
		perG    = 5
	)
	lim, clock, _ := virtualPolicy(t, Config{Rate: rate, Burst: burst})
	start := clock.now()

	var wg sync.WaitGroup
	var granted atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := lim.waitOne(context.Background(), 0); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
				granted.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := granted.Load(); got != workers*perG {
		t.Fatalf("granted %d tokens, want %d", got, workers*perG)
	}
	// 40 tokens at 100/s with a 5-token burst needs at least 350ms of
	// virtual time; concurrent sleepers may overshoot but never undercut.
	need := time.Duration(float64(workers*perG-burst) / rate * float64(time.Second))
	if elapsed := clock.now().Sub(start); elapsed < need {
		t.Fatalf("virtual elapsed %v below the token budget %v", elapsed, need)
	}
}

// TestWaitSingleWakeupAtContention is the thundering-herd regression
// test: 8 workers all block on an empty bucket *before* any time
// passes, forced by a gate in the injected sleeper. Under the old
// sleep-and-retry loop every worker computed the same refill delay,
// woke simultaneously, and fought over one token — losers slept again,
// so the total sleep count exceeded the worker count. Reservation
// serialization gives each waiter exactly one sleep, with strictly
// later slots: sleep durations must be exactly {1, 2, …, 8} refill
// intervals, one per worker.
func TestWaitSingleWakeupAtContention(t *testing.T) {
	const workers = 8
	lim, clock, _ := virtualPolicy(t, Config{Rate: 100, Burst: 1}) // refill interval 10ms

	var mu sync.Mutex
	var durations []time.Duration
	gate := make(chan struct{})
	lim.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		durations = append(durations, d)
		ready := len(durations) == workers
		mu.Unlock()
		if ready {
			close(gate) // all workers asleep: release everyone
		}
		<-gate
		clock.advance(d)
		return nil
	}

	// The burst token is granted without a sleep.
	if err := lim.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lim.waitOne(context.Background(), 0); err != nil {
				t.Errorf("Wait: %v", err)
			}
		}()
	}
	wg.Wait()

	if len(durations) != workers {
		t.Fatalf("%d sleeps for %d blocked workers, want exactly one each", len(durations), workers)
	}
	// Each successive waiter reserved the next 10ms slot: the duration
	// multiset is exactly {10ms, 20ms, …, 80ms} — a herd would have
	// computed identical delays.
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	for i, d := range durations {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if d != want {
			t.Errorf("sleep %d lasted %v, want %v", i, d, want)
		}
	}
}

func TestWaitCancellationInBlockingPath(t *testing.T) {
	lim, _, _ := virtualPolicy(t, Config{Rate: 1, Burst: 1})
	if err := lim.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err) // the burst token
	}

	// The sleeper cancels the context instead of advancing the clock:
	// the wait must surface context.Canceled without granting a token.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lim.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	if err := lim.waitOne(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// The refund leaves the next waiter one token in debt, not two: it
	// sleeps one refill interval (1s at rate 1), not two.
	var slept time.Duration
	lim.sleep = func(ctx context.Context, d time.Duration) error {
		slept = d
		return nil
	}
	if err := lim.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if slept != time.Second {
		t.Errorf("wait after a canceled reservation slept %v, want 1s", slept)
	}
}

// TestWaitStaleClockSleepsToSlot: a wait reads the clock before taking its
// tokens, so a waiter delayed in between finds the reservation of a
// waiter that read the clock later. Its sleep must end at its own slot,
// measured by a fresh reading, not that far past its stale one.
func TestWaitStaleClockSleepsToSlot(t *testing.T) {
	lim, clock, _ := virtualPolicy(t, Config{Rate: 100, Burst: 1}) // 10 ms per token
	if err := lim.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err) // the burst token
	}
	clock.advance(100 * time.Millisecond) // the bucket is full again

	// The first waiter reads 100 ms; before it takes its token a second
	// one reads 150 ms and takes the only token, without sleeping.
	interleaved := false
	lim.now = func() time.Time {
		now := clock.now()
		if !interleaved {
			interleaved = true
			clock.advance(50 * time.Millisecond)
			if err := lim.waitOne(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		return now
	}
	var slept []time.Duration
	lim.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	if err := lim.waitOne(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// The delayed waiter's slot is 160 ms and the clock reads 150 ms.
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Fatalf("sleeps %v, want exactly [10ms]", slept)
	}
}
