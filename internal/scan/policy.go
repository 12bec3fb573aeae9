package scan

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tass-scan/tass/internal/rib"
)

// Politeness configures the good-citizen layer of a scan: hierarchical
// per-origin-AS and per-prefix pacing under the global rate, adaptive
// per-AS backoff, per-AS probe budgets, and per-AS footprint telemetry.
// The zero value disables everything (the scanner behaves exactly as
// before). Any per-AS feature needs Origins.
type Politeness struct {
	// Origins maps each target prefix (by Config.Targets index) to its
	// origin AS — rib.Table.OriginsOf builds it from an announced table.
	// Origin 0 groups prefixes with no known origin.
	Origins []uint32
	// ASRate, when positive, caps probes per second into any single
	// origin AS (a token bucket per AS, built with the Scanner). The
	// Scanner splits each bucket into one share per worker, up to ASBurst
	// shares, which lend each other the tokens their own worker leaves.
	ASRate float64
	// ASBurst is the per-AS bucket burst (default 16), split across the
	// shares like ASRate: each share holds ASBurst/min(Workers, ASBurst).
	ASBurst int
	// PrefixRate, when positive, caps probes per second into any single
	// target prefix (a 48-byte bucket per prefix, built with the Scanner).
	PrefixRate float64
	// PrefixBurst is the per-prefix bucket burst (default 8).
	PrefixBurst int
	// ASBudget, when positive, caps total probes per origin AS for the
	// whole cycle — including across interrupted and resumed runs: the
	// per-AS counters ride in the Checkpoint. Targets drawn beyond the
	// cap are skipped (counted in ASStat.BudgetDenied), never probed.
	ASBudget uint64
	// Backoff enables adaptive per-AS backoff (requires ASRate > 0).
	Backoff BackoffConfig
	// Footprint enables per-AS accounting (Report.PerAS) even when no
	// per-AS rate or budget is configured.
	Footprint bool
}

// perAS reports whether any per-AS feature is on (and Origins required).
func (p *Politeness) perAS() bool {
	return p.ASRate > 0 || p.ASBudget > 0 || p.Backoff.Threshold > 0 || p.Footprint
}

// BackoffConfig parameterizes complaint-driven adaptive backoff: an AS
// answering with an error burst (timeout storm, ICMP unreachable flood —
// the classic "please stop" signals) gets its bucket rate halved, down to
// backoffFloor of ASRate, and earns it back gradually as probes succeed
// again, backoffRecovery of ASRate per success.
type BackoffConfig struct {
	// Threshold is the consecutive-error streak within one AS that
	// triggers a rate halving. 0 disables backoff.
	Threshold int
}

const (
	// backoffFloor is the share of the configured ASRate below which
	// backoff never halves: an AS never stops entirely, it just trickles
	// until probes succeed again.
	backoffFloor = 1.0 / 64
	// backoffRecovery is the share of the configured ASRate each
	// successful probe restores after a backoff: about 20 successes climb
	// one halving back.
	backoffRecovery = 0.05
)

// bucket is one token-bucket level of a PolicyLimiter, kept in GCRA
// form (generic cell rate algorithm) so a probe takes its token with one
// compare-and-swap and no lock. tat, the theoretical arrival time, is
// the limiter-clock instant at which the bucket's debt clears; the
// balance at time t is min(burst, (t-tat)/interval) tokens, so the state
// is the same machine as a token bucket holding that balance.
//
// Times are float64 nanoseconds on the limiter clock, which starts at
// zero, and the interval is rounded to a multiple of 2^-12 ns (off by
// at most 1.2e-4 ns per token). While the clock is below 2^41 ns (about
// 36 minutes) and the rate unchanged, every sum is exact, so tokens
// taken at one instant add up exactly; otherwise the error stays within
// float64 resolution, a fraction of a nanosecond per token after a month.
//
// A per-AS bucket is split into S shares (see PolicyLimiter) and keeps
// one tat word per share outside the bucket, in PolicyLimiter.shares; the
// bucket is then the AS's record: every share runs at rate/S with burst/S,
// so the shares sum to the AS's rate and burst; its own tat is unused.
//
// Rate changes (backoff, recovery, SetASRate) run under the owner's mu
// and convert the balance at the old interval to the new one in a single
// CAS on each tat word, then publish the new interval. A probe racing a
// rate change may charge its token at the old interval against the
// converted tat: the error is at most one token per racing probe.
type bucket struct {
	tat      atomic.Uint64 // math.Float64bits of the debt-clear instant; -Inf = full, never taken
	interval atomic.Uint64 // math.Float64bits of ns per token of one share at the current rate
	rate     atomic.Uint64 // math.Float64bits of the current whole rate (backoff moves it); written under mu
	streak   atomic.Int64  // consecutive errors (backoff detection)
	base     float64       // configured rate (recovery target)
	burst    float64       // of one share
}

// full is the tat of a bucket that was never taken.
var full = math.Float64bits(math.Inf(-1))

// newBuckets returns n full buckets at rate with the given burst, each
// split into shares.
func newBuckets(n int, rate float64, burst, shares int) []bucket {
	bs := make([]bucket, n)
	for i := range bs {
		b := &bs[i]
		b.base, b.burst = rate, float64(burst)/float64(shares)
		b.tat.Store(full)
		b.interval.Store(math.Float64bits(intervalOf(rate) * float64(shares)))
		b.rate.Store(math.Float64bits(rate))
	}
	return bs
}

// intervalGrid is the reciprocal of the interval rounding step (ns).
const intervalGrid = 1 << 12

// intervalOf converts a rate to nanoseconds per token, rounded to the
// grid (and at least one grid step).
func intervalOf(rate float64) float64 {
	return max(math.Round(1e9*intervalGrid/rate), 1) / intervalGrid
}

func (b *bucket) currentRate() float64 { return math.Float64frombits(b.rate.Load()) }

func (b *bucket) currentInterval() float64 { return math.Float64frombits(b.interval.Load()) }

// take reserves one token of the share whose tat word is w at time now
// (driving its balance negative) and returns the instant the refill
// covers the debt: at or before now when the token was immediately
// available. It takes nothing when that instant lies past by.
func (b *bucket) take(w *atomic.Uint64, now, by float64) float64 {
	for {
		old := w.Load()
		iv := b.currentInterval()
		// The balance is capped at burst.
		tat := max(math.Float64frombits(old), now-b.burst*iv) + iv
		if tat > by || w.CompareAndSwap(old, math.Float64bits(tat)) {
			return tat
		}
	}
}

// claim is take for a batch: in one CAS it takes every token already due
// at time now, up to k, and returns how many it took and the instant the
// refill covers the bucket's debt, at or before now. When no token is
// due it reserves one exactly as take does, and that instant lies past
// now; so at k = 1 it is take.
func (b *bucket) claim(now float64, k int) (int, float64) {
	for {
		old := b.tat.Load()
		iv := b.currentInterval()
		base := max(math.Float64frombits(old), now-b.burst*iv)
		// base ≥ now-burst·iv, so at most burst tokens are due. The
		// quotient can round up: step back until the last one is due.
		n := max(1, min(k, int((now-base)/iv)))
		for n > 1 && base+float64(n)*iv > now {
			n--
		}
		tat := base + float64(n)*iv
		if b.tat.CompareAndSwap(old, math.Float64bits(tat)) {
			return n, tat
		}
	}
}

// untake returns n canceled or unused reservations to the share whose
// tat word is w. The burst cap is applied by the next take, so the
// refund itself needs no clock.
func (b *bucket) untake(w *atomic.Uint64, n int) {
	for {
		old := w.Load()
		tat := math.Float64frombits(old) - float64(n)*b.currentInterval()
		if w.CompareAndSwap(old, math.Float64bits(tat)) {
			return
		}
	}
}

// retuneAS switches AS id to rate: each share's balance accrued at the
// old interval carries over unchanged in tokens. Callers hold mu, so
// rate changes never race each other.
func (p *PolicyLimiter) retuneAS(id int32, rate float64) {
	b, now, nAS := &p.as[id], p.clock(), len(p.as)
	oldIv, newIv := b.currentInterval(), intervalOf(rate)*float64(p.nShares)
	for i := int(id); i < len(p.shares); i += nAS {
		w := &p.shares[i]
		for {
			old := w.Load()
			tokens := (now - max(math.Float64frombits(old), now-b.burst*oldIv)) / oldIv
			if w.CompareAndSwap(old, math.Float64bits(now-tokens*newIv)) {
				break
			}
		}
	}
	b.interval.Store(math.Float64bits(newIv))
	b.rate.Store(math.Float64bits(rate))
}

// PolicyLimiter is the scanner's probe pacer, the politeness mechanism
// every responsible scanner runs (the paper's whole point is sending
// fewer probes; the pacer makes the ones we do send smooth instead of
// bursty). It paces through a hierarchy of token buckets: global,
// per-origin-AS, and per-target-prefix, each optional. A probe must
// clear every configured level; the wait is the maximum of the levels'
// debts.
//
// Waiters are serialized by reservation, not by sleep-and-retry: each
// waiter takes its tokens immediately (driving the buckets negative)
// and sleeps once for the longest debt, so concurrent waiters wake one
// at a time in reservation order at every level — no thundering herd of
// workers waking together to fight over one refilled token. A canceled
// wait returns its reservations.
//
// The probe path takes no lock: each Scanner worker paces through a
// pacer of its own, which shares one clock reading and one global claim
// among a batch of probes, indexes its buckets by the AS table's dense
// ids and the target prefix, and takes each token with a CAS; only a
// pacer that must sleep reads the clock again, to sleep until its slot.
// Each per-AS bucket is split into S = min(Workers, ASBurst) shares, so a
// share holds at least one token, and worker w's pacer takes from share
// w mod S, a tat word no other worker writes while Workers ≤ ASBurst,
// whenever a token is due there (else lend). Every bucket exists from
// construction, one per AS of the table with an 8-byte word per share,
// and one per target prefix (48 B each), so the probe path never creates
// one, even for the prefixes a one-shard Scanner never probes (DESIGN.md
// §12). mu serializes rate changes only:
// SetASRate and the observe backoff path retune a single AS's rate, all
// its shares at once, while a cycle runs. New builds it from the
// Scanner's Config; Scanner.Policy exposes it.
type PolicyLimiter struct {
	mu    sync.Mutex // serializes rate changes
	epoch time.Time  // zero of the monotonic limiter clock
	// now, when set, replaces the monotonic clock (tests inject a virtual
	// one); its readings count from its first, in nowBase.
	now     func() time.Time
	nowBase atomic.Int64
	sleep   func(ctx context.Context, d time.Duration) error
	global  *bucket  // nil when no global rate
	tab     *asTable // the ASes behind as; nil without per-AS pacing
	as      []bucket // per dense AS id; nil without per-AS pacing
	// shares holds the tat words of the per-AS buckets' nShares shares,
	// worker major: share w of AS id is shares[w·len(as)+id].
	shares  []atomic.Uint64
	nShares int
	pfx     []bucket // per target prefix; nil without per-prefix pacing
	backoff int      // Backoff.Threshold; 0 disables backoff
}

// newPolicyLimiter builds the pacer of a Config that New validated and
// filled with its defaults. Per-AS pacing indexes tab, the Scanner's AS
// table, and splits each AS's bucket into one share per worker, at most
// ASBurst: a share below one token would make every probe wait, even
// into an idle AS.
func newPolicyLimiter(cfg *Config, tab *asTable) *PolicyLimiter {
	pol := cfg.Politeness
	if pol.ASBurst <= 0 {
		pol.ASBurst = 16
	}
	if pol.PrefixBurst <= 0 {
		pol.PrefixBurst = 8
	}
	p := &PolicyLimiter{
		epoch:   time.Now(),
		sleep:   timerSleep,
		nShares: min(cfg.Workers, pol.ASBurst),
		backoff: pol.Backoff.Threshold,
	}
	if cfg.Rate > 0 {
		p.global = &newBuckets(1, cfg.Rate, cfg.Burst, 1)[0]
	}
	if pol.ASRate > 0 {
		p.tab, p.as = tab, newBuckets(len(tab.ases), pol.ASRate, pol.ASBurst, p.nShares)
		p.shares = make([]atomic.Uint64, p.nShares*len(tab.ases))
		for i := range p.shares {
			p.shares[i].Store(full)
		}
	}
	if pol.PrefixRate > 0 {
		p.pfx = newBuckets(cfg.Targets.Len(), pol.PrefixRate, pol.PrefixBurst, 1)
	}
	p.nowBase.Store(noBase)
	return p
}

// timerSleep is the production sleeper: a real timer racing the context.
func timerSleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// noBase marks an injected clock that has not been read yet.
const noBase = math.MinInt64

// clock reads the limiter clock in nanoseconds: a monotonic-only read
// since the epoch or, with an injected clock, the time since its first
// reading. Either way it starts at zero, where float64 is most precise.
func (p *PolicyLimiter) clock() float64 {
	if p.now == nil {
		return float64(time.Since(p.epoch))
	}
	t := p.now().UnixNano()
	p.nowBase.CompareAndSwap(noBase, t)
	return float64(t - p.nowBase.Load())
}

// paceBatch is the most limiter passes one clock reading serves, and the
// most global tokens one claim takes.
const paceBatch = 16

// paceSpan caps what one pacer's credit may stand for at the global
// rate. Credit one worker holds is time the others cannot use, and a
// batch only pays where a clock read is a real share of the interval:
// below 2000 probes/s, every probe reads the clock and takes one token.
const paceSpan = time.Millisecond

// pacer is one goroutine's handle on a PolicyLimiter. It batches what
// every probe would otherwise pay for: one clock reading serves k
// consecutive passes, and one CAS on the shared global bucket claims up
// to k tokens that are already due at that reading, kept as local credit.
// The per-AS and per-prefix levels still take one token per probe, at the
// batch's reading.
//
// A reading is never later than the true time, so a stale one can only
// make the pacer stricter: a token it finds due was due. Credit never
// outlives its batch, since a claim takes at most the batch's remaining
// passes, and goes back before any sleep and in release. So a worker
// never holds a future slot, and in any window [a, b] a level at a fixed
// rate sends at most burst + (b−a)/interval + W·k probes across W pacers.
// Each per-AS share is such a level at rate/S and burst/S, and every probe
// takes from one share, so the AS as a whole keeps the bound.
type pacer struct {
	p      *PolicyLimiter
	share  int     // the per-AS share this pacer takes from, < the limiter's nShares
	k      int     // passes per batch, 1 ≤ k ≤ paceBatch
	now    float64 // the batch's clock reading
	left   int     // passes the reading still serves
	credit int     // global tokens claimed and not yet used
}

// wait blocks until the pacer's next probe, into target prefix pfxIdx,
// may be sent, or the context is canceled (the reservations are
// returned). One sleep covers the deepest debt across all configured
// levels.
func (c *pacer) wait(ctx context.Context, pfxIdx int) error {
	p := c.p
	if c.left == 0 {
		c.now, c.left = p.clock(), c.k
	}
	c.left--
	now := c.now
	var taken [3]*bucket
	var words [3]*atomic.Uint64 // the tat word each level takes from
	n := 0
	deadline := now // the deepest level's debt-clear instant
	if g := p.global; g != nil {
		taken[n], words[n] = g, &g.tat
		n++
		switch {
		case c.credit > 0:
			c.credit--
		case c.left == 0: // a claim of one is a take
			deadline = max(deadline, g.take(&g.tat, now, math.Inf(1)))
		default:
			got, tat := g.claim(now, c.left+1)
			c.credit = got - 1
			deadline = max(deadline, tat)
		}
	}
	if p.as != nil {
		id := int(p.tab.ids[pfxIdx])
		b, w := &p.as[id], &p.shares[c.share*len(p.as)+id]
		tat := b.take(w, now, now)
		if tat > now { // no token due in the pacer's own share
			w, tat = p.lend(id, w, tat, now)
		}
		taken[n], words[n] = b, w
		n++
		deadline = max(deadline, tat)
	}
	if b := p.pfx; b != nil {
		taken[n], words[n] = &b[pfxIdx], &b[pfxIdx].tat
		n++
		deadline = max(deadline, b[pfxIdx].take(&b[pfxIdx].tat, now, math.Inf(1)))
	}
	if deadline <= now {
		return nil
	}
	c.release()
	// now was read before the CASes, maybe several probes ago. A waiter
	// delayed in between sees the reservations of waiters that read the
	// clock later as debt against its older reading, so sleep until the
	// slot by a fresh reading, which starts a new batch: the slot may
	// already have passed.
	fresh := p.clock()
	c.now, c.left = fresh, c.k-1
	wait := deadline - fresh
	if wait <= 0 {
		return nil
	}
	d := time.Duration(wait)
	if d < time.Microsecond {
		d = time.Microsecond
	}
	if err := p.sleep(ctx, d); err != nil {
		for i, b := range taken[:n] {
			b.untake(words[i], 1)
		}
		return err
	}
	return nil
}

// lend takes one token of AS id at time now for a pacer whose own share,
// with the tat word own, has none due until next: from any share with one
// due, else as a reservation on the share whose next token comes soonest
// (own on a tie), where one bucket would queue it. It returns the word
// taken from and take's result.
func (p *PolicyLimiter) lend(id int, own *atomic.Uint64, next, now float64) (*atomic.Uint64, float64) {
	b := &p.as[id]
	best, soonest := own, next
	for i := id; i < len(p.shares); i += len(p.as) {
		if tat := b.take(&p.shares[i], now, now); tat <= now {
			return &p.shares[i], tat
		} else if tat < soonest {
			best, soonest = &p.shares[i], tat
		}
	}
	return best, b.take(best, now, math.Inf(1))
}

// release returns the pacer's unused global credit in one CAS. A worker
// calls it when it leaves its loop; wait calls it before any sleep.
func (c *pacer) release() {
	if c.credit > 0 {
		c.p.global.untake(&c.p.global.tat, c.credit)
		c.credit = 0
	}
}

// observe feeds one probe outcome into the backoff detector and reports
// whether it triggered a rate halving for the target's AS. A streak of
// Backoff.Threshold consecutive errors inside one AS halves that AS's
// bucket rate (floored at backoffFloor of the base); each success resets
// the streak and restores backoffRecovery of the base rate. A no-op when
// backoff is disabled. The streak is counted lock-free; only an actual
// rate change takes p.mu.
func (p *PolicyLimiter) observe(pfxIdx int, ok bool) bool {
	if p.backoff <= 0 {
		return false
	}
	id := p.tab.ids[pfxIdx]
	b := &p.as[id]
	if ok {
		if b.streak.Load() != 0 {
			b.streak.Store(0)
		}
		if b.currentRate() < b.base {
			p.mu.Lock()
			if r := b.currentRate(); r < b.base {
				p.retuneAS(id, min(r+b.base*backoffRecovery, b.base))
			}
			p.mu.Unlock()
		}
		return false
	}
	// Each error either extends the streak or completes it (resetting
	// it to zero) in one CAS, so concurrent errors are counted exactly
	// once and exactly one of them claims each completed streak.
	thr := int64(p.backoff)
	for {
		s := b.streak.Load()
		next := s + 1
		if next >= thr {
			next = 0
		}
		if b.streak.CompareAndSwap(s, next) {
			if next != 0 {
				return false
			}
			break
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := b.currentRate()
	next := max(r/2, b.base*backoffFloor)
	if next >= r {
		return false // already at the floor: no further event
	}
	p.retuneAS(id, next)
	return true
}

// SetASRate retunes one AS's current bucket rate mid-cycle — the hook
// for external abuse/complaint feeds. The configured base rate (the
// recovery target) is unchanged. It errors when per-AS pacing is off,
// when no target prefix maps to the AS (nothing it would pace is ever
// probed), or when the rate is not a finite positive number.
func (p *PolicyLimiter) SetASRate(as uint32, rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return fmt.Errorf("scan: per-AS rate must be finite and positive, got %v", rate)
	}
	if p.as == nil {
		return fmt.Errorf("scan: per-AS pacing is not configured")
	}
	id, ok := p.tab.byAS[as]
	if !ok {
		return fmt.Errorf("scan: no target prefix maps to AS%d", as)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retuneAS(id, rate)
	return nil
}

// ASRateOf returns the current rate of an AS, the sum over its shares
// (the configured ASRate when no target prefix maps to the AS); ok is
// false when per-AS pacing is off.
func (p *PolicyLimiter) ASRateOf(as uint32) (rate float64, ok bool) {
	if p.as == nil {
		return 0, false
	}
	if id, ok := p.tab.byAS[as]; ok {
		return p.as[id].currentRate(), true
	}
	return p.as[0].base, true
}

// ASStat is the per-origin-AS footprint of one scan cycle.
type ASStat struct {
	// Probed counts transmitted probes. Under a resumed cycle it is
	// cumulative across the interrupted runs (the budget rides in the
	// checkpoint), unlike the run-scoped Report.Probed.
	Probed uint64 `json:"probed"`
	// Excluded counts targets skipped by the exclusion list.
	Excluded uint64 `json:"excluded,omitempty"`
	// Errors counts failed probe invocations.
	Errors uint64 `json:"errors,omitempty"`
	// Responsive counts successful handshakes.
	Responsive uint64 `json:"responsive,omitempty"`
	// BudgetDenied counts targets skipped because the AS exhausted its
	// probe budget.
	BudgetDenied uint64 `json:"budget_denied,omitempty"`
	// Backoffs counts adaptive rate halvings.
	Backoffs uint64 `json:"backoffs,omitempty"`
}

// asCounts is one AS's counts: a worker's private tally of one run, or
// the merged sums.
type asCounts struct {
	probed, excluded, errors, responsive, denied, backoffs uint64
}

// asTable numbers the origin ASes of a Scanner's target prefixes
// densely, once: the pacer's per-AS buckets and the footprint's counts
// are both indexed by its ids. It never changes after newASTable.
type asTable struct {
	ases []uint32         // dense id → origin AS
	ids  []int32          // target prefix → dense id
	byAS map[uint32]int32 // origin AS → dense id
}

func newASTable(origins []uint32) *asTable {
	t := &asTable{ids: make([]int32, len(origins)), byAS: make(map[uint32]int32)}
	for i, as := range origins {
		id, ok := t.byAS[as]
		if !ok {
			id = int32(len(t.ases))
			t.byAS[as] = id
			t.ases = append(t.ases, as)
		}
		t.ids[i] = id
	}
	return t
}

// footprint is a Scanner's per-origin-AS accounting, indexed by the ids
// of the Scanner's asTable. Each worker of a Run counts into a tally of
// its own, one asCounts per AS, and merges it into sum once, when it
// leaves the run, so without a budget nothing on the probe path writes
// shared state. A budget keeps one live shared count per AS, which
// every probe reserves against, so the cap holds exactly across
// workers. The arrays keep their length after newFootprint, so Runs
// that overlap share nothing but atomics and the mutex.
type footprint struct {
	tab    *asTable
	budget uint64          // max probes per AS per cycle (0 = unlimited)
	live   []atomic.Uint64 // probes reserved per id; budget > 0 only

	mu     sync.Mutex
	sum    []asCounts // merged counts
	listed []bool     // ASes a report lists: drawn at least once
	// orphans carries the checkpointed probe counts of ASes that no
	// target prefix maps to (the origins changed since the checkpoint):
	// they are reported and carried on, never probed.
	orphans map[uint32]uint64
}

func newFootprint(tab *asTable, budget uint64) *footprint {
	f := &footprint{tab: tab, budget: budget}
	n := len(tab.ases)
	f.sum = make([]asCounts, n)
	f.listed = make([]bool, n)
	if budget > 0 {
		f.live = make([]atomic.Uint64, n)
	}
	return f
}

// reserve claims one probe of AS id for the worker owning c. Under a
// budget it claims on the live count and reports false once the budget
// is spent, without overshooting; otherwise it just counts in c.
func (f *footprint) reserve(c *asCounts, id int32) bool {
	if f.live == nil {
		c.probed++
		return true
	}
	return reserveProbe(&f.live[id], f.budget)
}

// unreserve returns a claimed slot (rewind paths: the address was drawn
// and reserved but never probed). The AS stays listed, with whatever
// counts remain. A worker unreserves at most once, just before it
// leaves the run, so taking the lock here costs nothing per probe.
func (f *footprint) unreserve(c *asCounts, id int32) {
	f.mu.Lock()
	f.listed[id] = true
	f.mu.Unlock()
	if f.live == nil {
		c.probed--
		return
	}
	f.live[id].Add(^uint64(0))
}

// merge adds a worker's tally to the sums and lists every AS the run
// drew so far. Each worker calls it once, when it leaves the run. A
// drawn AS has a nonzero count in some tally or, under a budget, a
// live reservation; the one exception, an AS whose draw was
// unreserved, unreserve lists.
func (f *footprint) merge(t []asCounts) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id := range t {
		c := &t[id]
		if *c == (asCounts{}) {
			if f.live != nil && f.live[id].Load() > 0 {
				f.listed[id] = true
			}
			continue
		}
		s := &f.sum[id]
		s.probed += c.probed
		s.excluded += c.excluded
		s.errors += c.errors
		s.responsive += c.responsive
		s.denied += c.denied
		s.backoffs += c.backoffs
		f.listed[id] = true
	}
}

// reset zeroes every count for a fresh cycle. The set of ASes a report
// lists survives, as entries with zero counts.
func (f *footprint) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.sum)
	for id := range f.live {
		f.live[id].Store(0)
	}
	for as := range f.orphans {
		f.orphans[as] = 0
	}
}

// seed preloads per-AS probed counts from a checkpoint, so a resumed
// cycle's budgets pick up where the interrupted runs left off.
func (f *footprint) seed(probed map[uint32]uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for as, n := range probed {
		id, ok := f.tab.byAS[as]
		switch {
		case !ok:
			if f.orphans == nil {
				f.orphans = make(map[uint32]uint64)
			}
			f.orphans[as] = n
			continue
		case f.live != nil:
			f.live[id].Store(n)
		default:
			f.sum[id].probed = n
		}
		f.listed[id] = true
	}
}

// probedOf returns AS id's probe count. Callers hold f.mu.
func (f *footprint) probedOf(id int) uint64 {
	if f.live != nil {
		return f.live[id].Load()
	}
	return f.sum[id].probed
}

// probedByAS snapshots the per-AS probed counts (the checkpoint
// payload).
func (f *footprint) probedByAS() map[uint32]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint32]uint64)
	for id, as := range f.tab.ases {
		if n := f.probedOf(id); n > 0 {
			out[as] = n
		}
	}
	for as, n := range f.orphans {
		if n > 0 {
			out[as] = n
		}
	}
	return out
}

// report converts the sums into the Report.PerAS map.
func (f *footprint) report() map[uint32]ASStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint32]ASStat, len(f.tab.ases))
	for id, as := range f.tab.ases {
		if !f.listed[id] {
			continue
		}
		s := &f.sum[id]
		out[as] = ASStat{
			Probed:       f.probedOf(id),
			Excluded:     s.excluded,
			Errors:       s.errors,
			Responsive:   s.responsive,
			BudgetDenied: s.denied,
			Backoffs:     s.backoffs,
		}
	}
	for as, n := range f.orphans {
		out[as] = ASStat{Probed: n}
	}
	return out
}

// WriteFootprint renders a per-origin-AS footprint table for a completed
// scan: how many addresses of each AS were in the plan, how many probes
// it actually received (the paper's footprint claim, measured per
// network), and the politeness events — exclusions, errors, backoff
// halvings, budget denials. Rows are sorted by probe count, heaviest
// first; a totals row closes the table. origins must be the mapping the
// scan ran with (rib.Table.OriginsOf over targets).
func WriteFootprint(w io.Writer, targets rib.Partition, origins []uint32, rep *Report) error {
	if rep.PerAS == nil {
		return fmt.Errorf("scan: report has no per-AS accounting (set Politeness.Footprint)")
	}
	if len(origins) != targets.Len() {
		return fmt.Errorf("scan: origins cover %d prefixes, targets have %d", len(origins), targets.Len())
	}
	// Plan size per AS: the denominator of the per-network footprint.
	plan := make(map[uint32]uint64)
	for i := 0; i < targets.Len(); i++ {
		plan[origins[i]] += targets.Prefix(i).NumAddresses()
	}
	ases := make([]uint32, 0, len(plan))
	for as := range plan {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(i, j int) bool {
		pi, pj := rep.PerAS[ases[i]].Probed, rep.PerAS[ases[j]].Probed
		if pi != pj {
			return pi > pj
		}
		return ases[i] < ases[j]
	})
	if _, err := fmt.Fprintf(w, "%-10s %12s %12s %9s %9s %8s %9s %8s %8s\n",
		"origin", "plan-addrs", "probed", "probed%", "excluded", "errors", "respons.", "backoffs", "denied"); err != nil {
		return err
	}
	var tot ASStat
	var totPlan uint64
	for _, as := range ases {
		st := rep.PerAS[as]
		pct := 0.0
		if plan[as] > 0 {
			pct = 100 * float64(st.Probed) / float64(plan[as])
		}
		name := fmt.Sprintf("AS%d", as)
		if as == 0 {
			name = "(none)"
		}
		if _, err := fmt.Fprintf(w, "%-10s %12d %12d %8.2f%% %9d %8d %9d %8d %8d\n",
			name, plan[as], st.Probed, pct, st.Excluded, st.Errors, st.Responsive, st.Backoffs, st.BudgetDenied); err != nil {
			return err
		}
		totPlan += plan[as]
		tot.Probed += st.Probed
		tot.Excluded += st.Excluded
		tot.Errors += st.Errors
		tot.Responsive += st.Responsive
		tot.Backoffs += st.Backoffs
		tot.BudgetDenied += st.BudgetDenied
	}
	totPct := 0.0
	if totPlan > 0 {
		totPct = 100 * float64(tot.Probed) / float64(totPlan)
	}
	_, err := fmt.Fprintf(w, "%-10s %12d %12d %8.2f%% %9d %8d %9d %8d %8d\n",
		"total", totPlan, tot.Probed, totPct, tot.Excluded, tot.Errors, tot.Responsive, tot.Backoffs, tot.BudgetDenied)
	return err
}
