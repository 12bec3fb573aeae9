package scan

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// This file preserves the mutex PolicyLimiter that the lock-free GCRA
// pacer replaced, verbatim up to type names (bucket → mutexBucket,
// PolicyLimiter → mutexPolicy), its configuration (a Config that New
// has validated) and the backoff floor and recovery step (the live
// pacer's constants), as the reference that policy_equiv_test.go drives
// the live pacer against.

// mutexBucket is the parent implementation's token bucket: a token count
// refilled from the elapsed time, guarded by the owner's mutex.
type mutexBucket struct {
	rate     float64 // current refill rate (backoff moves it)
	base     float64 // configured rate (recovery target)
	burst    float64
	tokens   float64
	lastNs   int64  // UnixNano of the last refill; 0 = never refilled
	streak   int    // consecutive errors (backoff detection)
	backoffs uint64 // rate-halving events
}

func newMutexBucket(rate float64, burst int) *mutexBucket {
	return &mutexBucket{rate: rate, base: rate, burst: float64(burst), tokens: float64(burst)}
}

func (b *mutexBucket) refill(nowNs int64) {
	if b.lastNs != 0 {
		b.tokens += float64(nowNs-b.lastNs) * b.rate * 1e-9
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.lastNs = nowNs
}

// take reserves one token (driving the bucket negative) and returns the
// seconds until the refill covers the debt — 0 when the token was
// immediately available.
func (b *mutexBucket) take(nowNs int64) float64 {
	b.refill(nowNs)
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	return -b.tokens / b.rate
}

// untake returns a canceled reservation.
func (b *mutexBucket) untake() {
	b.tokens++
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// mutexPolicy is the parent implementation's PolicyLimiter: every level
// under one mutex, the clock read inside it.
type mutexPolicy struct {
	mu       sync.Mutex
	now      func() time.Time
	sleep    func(ctx context.Context, d time.Duration) error
	global   *mutexBucket // nil when no global rate
	asRate   float64
	asBurst  int
	pfxRate  float64
	pfxBurst int
	origins  []uint32
	backoff  BackoffConfig
	as       map[uint32]*mutexBucket
	asByPfx  []*mutexBucket // per-prefix cache of the owning AS bucket
	pfx      []*mutexBucket
}

// newMutexPolicy builds the hierarchy of a Config that New accepts.
func newMutexPolicy(cfg Config) *mutexPolicy {
	pol := cfg.Politeness
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	if pol.ASBurst <= 0 {
		pol.ASBurst = 16
	}
	if pol.PrefixBurst <= 0 {
		pol.PrefixBurst = 8
	}
	p := &mutexPolicy{
		now:      time.Now,
		sleep:    timerSleep,
		asRate:   pol.ASRate,
		asBurst:  pol.ASBurst,
		pfxRate:  pol.PrefixRate,
		pfxBurst: pol.PrefixBurst,
		origins:  pol.Origins,
		backoff:  pol.Backoff,
	}
	if cfg.Rate > 0 {
		p.global = newMutexBucket(cfg.Rate, cfg.Burst)
	}
	if pol.ASRate > 0 || pol.Backoff.Threshold > 0 {
		p.as = make(map[uint32]*mutexBucket)
		p.asByPfx = make([]*mutexBucket, len(pol.Origins))
	}
	if pol.PrefixRate > 0 {
		p.pfx = make([]*mutexBucket, cfg.Targets.Len())
	}
	return p
}

// asBucketFor resolves (lazily creating) the AS bucket owning target
// prefix pfxIdx. Callers hold p.mu.
func (p *mutexPolicy) asBucketFor(pfxIdx int) *mutexBucket {
	if b := p.asByPfx[pfxIdx]; b != nil {
		return b
	}
	as := p.origins[pfxIdx]
	b := p.as[as]
	if b == nil {
		b = newMutexBucket(p.asRate, p.asBurst)
		p.as[as] = b
	}
	p.asByPfx[pfxIdx] = b
	return b
}

// Wait blocks until a probe of target prefix pfxIdx may be sent, or the
// context is canceled (the reservations are returned). One sleep covers
// the deepest debt across all configured levels.
func (p *mutexPolicy) Wait(ctx context.Context, pfxIdx int) error {
	p.mu.Lock()
	now := p.now().UnixNano()
	var need float64
	var taken [3]*mutexBucket
	n := 0
	if p.global != nil {
		if d := p.global.take(now); d > need {
			need = d
		}
		taken[n] = p.global
		n++
	}
	if p.asRate > 0 {
		b := p.asBucketFor(pfxIdx)
		if d := b.take(now); d > need {
			need = d
		}
		taken[n] = b
		n++
	}
	if p.pfx != nil {
		b := p.pfx[pfxIdx]
		if b == nil {
			b = newMutexBucket(p.pfxRate, p.pfxBurst)
			p.pfx[pfxIdx] = b
		}
		if d := b.take(now); d > need {
			need = d
		}
		taken[n] = b
		n++
	}
	p.mu.Unlock()
	if need <= 0 {
		return nil
	}
	d := time.Duration(need * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	if err := p.sleep(ctx, d); err != nil {
		p.mu.Lock()
		for i := 0; i < n; i++ {
			taken[i].untake()
		}
		p.mu.Unlock()
		return err
	}
	return nil
}

// Observe feeds one probe outcome into the backoff detector and reports
// whether it triggered a rate halving for the target's AS. A streak of
// Backoff.Threshold consecutive errors inside one AS halves that AS's
// bucket rate (floored at backoffFloor of the base); each success resets
// the streak and restores backoffRecovery of the base rate. A no-op when
// backoff is disabled.
func (p *mutexPolicy) Observe(pfxIdx int, ok bool) bool {
	if p.backoff.Threshold <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.asBucketFor(pfxIdx)
	now := p.now().UnixNano()
	if ok {
		b.streak = 0
		if b.rate < b.base {
			// Credit accrual at the old rate before raising it.
			b.refill(now)
			b.rate += b.base * backoffRecovery
			if b.rate > b.base {
				b.rate = b.base
			}
		}
		return false
	}
	b.streak++
	if b.streak < p.backoff.Threshold {
		return false
	}
	b.streak = 0
	floor := b.base * backoffFloor
	next := b.rate / 2
	if next < floor {
		next = floor
	}
	if next >= b.rate {
		return false // already at the floor: no further event
	}
	b.refill(now)
	b.rate = next
	b.backoffs++
	return true
}

// SetASRate retunes one AS's current bucket rate mid-cycle — the hook
// for external abuse/complaint feeds. The configured base rate (the
// recovery target) is unchanged. It errors when per-AS pacing is off or
// the rate is not a finite positive number.
func (p *mutexPolicy) SetASRate(as uint32, rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return fmt.Errorf("scan: per-AS rate must be finite and positive, got %v", rate)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.as == nil {
		return fmt.Errorf("scan: per-AS pacing is not configured")
	}
	b := p.as[as]
	if b == nil {
		b = newMutexBucket(p.asRate, p.asBurst)
		p.as[as] = b
	}
	b.refill(p.now().UnixNano())
	b.rate = rate
	return nil
}

// ASRateOf returns the current bucket rate of an AS (the configured
// ASRate when the AS has not been touched yet); ok is false when per-AS
// pacing is off.
func (p *mutexPolicy) ASRateOf(as uint32) (rate float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.as == nil {
		return 0, false
	}
	if b := p.as[as]; b != nil {
		return b.rate, true
	}
	return p.asRate, true
}
