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
	// origin AS (a token bucket per AS, lazily created on first probe).
	ASRate float64
	// ASBurst is the per-AS bucket burst (default 16).
	ASBurst int
	// PrefixRate, when positive, caps probes per second into any single
	// target prefix.
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
// the classic "please stop" signals) gets its bucket rate halved, and
// earns it back gradually as probes succeed again.
type BackoffConfig struct {
	// Threshold is the consecutive-error streak within one AS that
	// triggers a rate halving. 0 disables backoff.
	Threshold int
	// MinRateShare floors the backed-off rate at this fraction of the
	// configured ASRate (default 1/64): an AS never stops entirely, it
	// just trickles until probes succeed again.
	MinRateShare float64
	// Recovery is the fraction of the base rate restored per successful
	// probe after a backoff (default 0.05, i.e. ~20 successes to climb
	// one halving back).
	Recovery float64
}

func (b *BackoffConfig) withDefaults() BackoffConfig {
	out := *b
	if out.MinRateShare <= 0 || out.MinRateShare > 1 {
		out.MinRateShare = 1.0 / 64
	}
	if out.Recovery <= 0 || out.Recovery > 1 {
		out.Recovery = 0.05
	}
	return out
}

// bucket is one token-bucket level of a PolicyLimiter. It carries no
// lock: all buckets of one PolicyLimiter share the owner's mutex, so
// layering per-AS and per-prefix pacing under the global rate costs
// arithmetic, not extra lock acquisitions. Timestamps are int64
// nanoseconds, not time.Time: a probe refills up to three buckets, and
// the integer subtraction keeps the per-bucket cost to a few ns (the
// ≤10% hierarchy-overhead budget of BenchmarkPolicyLimiter).
type bucket struct {
	rate     float64 // current refill rate (backoff moves it)
	base     float64 // configured rate (recovery target)
	burst    float64
	tokens   float64
	lastNs   int64  // UnixNano of the last refill; 0 = never refilled
	streak   int    // consecutive errors (backoff detection)
	backoffs uint64 // rate-halving events
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{rate: rate, base: rate, burst: float64(burst), tokens: float64(burst)}
}

func (b *bucket) refill(nowNs int64) {
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
func (b *bucket) take(nowNs int64) float64 {
	b.refill(nowNs)
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	return -b.tokens / b.rate
}

// untake returns a canceled reservation.
func (b *bucket) untake() {
	b.tokens++
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
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
// wait returns its reservations. All levels share one mutex: the global
// bucket serializes every probe anyway, so the per-AS and per-prefix
// levels add bucket arithmetic under the already-taken lock rather than
// extra lock traffic.
//
// Per-AS buckets are created lazily on first probe into the AS (a 2^32
// scan over ~70 k ASes allocates only what it touches), and per-prefix
// buckets likewise. SetASRate and the Observe backoff path retune a
// single AS's rate while a cycle runs.
type PolicyLimiter struct {
	mu       sync.Mutex
	now      func() time.Time
	sleep    func(ctx context.Context, d time.Duration) error
	global   *bucket // nil when no global rate
	asRate   float64
	asBurst  int
	pfxRate  float64
	pfxBurst int
	origins  []uint32
	backoff  BackoffConfig
	as       map[uint32]*bucket
	asByPfx  []*bucket // per-prefix cache of the owning AS bucket
	pfx      []*bucket
}

// PolicyConfig parameterizes NewPolicyLimiter. Rate/Burst are the global
// level (0 disables it); ASRate and PrefixRate the lower levels. Origins
// is required when ASRate or Backoff is set; Prefixes sizes the
// per-prefix level and must cover every index passed to Wait.
type PolicyConfig struct {
	Rate        float64
	Burst       int
	ASRate      float64
	ASBurst     int
	PrefixRate  float64
	PrefixBurst int
	Origins     []uint32
	Prefixes    int
	Backoff     BackoffConfig
}

// NewPolicyLimiter validates cfg and builds the hierarchy.
func NewPolicyLimiter(cfg PolicyConfig) (*PolicyLimiter, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{{"rate", cfg.Rate}, {"as-rate", cfg.ASRate}, {"prefix-rate", cfg.PrefixRate}} {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) || r.v < 0 {
			return nil, fmt.Errorf("scan: policy %s must be finite and non-negative, got %v", r.name, r.v)
		}
	}
	if cfg.Backoff.Threshold > 0 && cfg.ASRate <= 0 {
		return nil, fmt.Errorf("scan: backoff needs a per-AS rate to halve")
	}
	if cfg.ASRate > 0 && len(cfg.Origins) == 0 {
		return nil, fmt.Errorf("scan: per-AS rate needs an origin mapping")
	}
	if cfg.PrefixRate > 0 && cfg.Prefixes <= 0 {
		return nil, fmt.Errorf("scan: per-prefix rate needs the target prefix count")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	if cfg.ASBurst <= 0 {
		cfg.ASBurst = 16
	}
	if cfg.PrefixBurst <= 0 {
		cfg.PrefixBurst = 8
	}
	p := &PolicyLimiter{
		now:      time.Now,
		sleep:    timerSleep,
		asRate:   cfg.ASRate,
		asBurst:  cfg.ASBurst,
		pfxRate:  cfg.PrefixRate,
		pfxBurst: cfg.PrefixBurst,
		origins:  cfg.Origins,
		backoff:  cfg.Backoff.withDefaults(),
	}
	if cfg.Rate > 0 {
		p.global = newBucket(cfg.Rate, cfg.Burst)
	}
	if cfg.ASRate > 0 || cfg.Backoff.Threshold > 0 {
		p.as = make(map[uint32]*bucket)
		p.asByPfx = make([]*bucket, len(cfg.Origins))
	}
	if cfg.PrefixRate > 0 {
		p.pfx = make([]*bucket, cfg.Prefixes)
	}
	return p, nil
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

// asBucketFor resolves (lazily creating) the AS bucket owning target
// prefix pfxIdx. Callers hold p.mu.
func (p *PolicyLimiter) asBucketFor(pfxIdx int) *bucket {
	if b := p.asByPfx[pfxIdx]; b != nil {
		return b
	}
	as := p.origins[pfxIdx]
	b := p.as[as]
	if b == nil {
		b = newBucket(p.asRate, p.asBurst)
		p.as[as] = b
	}
	p.asByPfx[pfxIdx] = b
	return b
}

// Wait blocks until a probe of target prefix pfxIdx may be sent, or the
// context is canceled (the reservations are returned). One sleep covers
// the deepest debt across all configured levels.
func (p *PolicyLimiter) Wait(ctx context.Context, pfxIdx int) error {
	p.mu.Lock()
	now := p.now().UnixNano()
	var need float64
	var taken [3]*bucket
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
			b = newBucket(p.pfxRate, p.pfxBurst)
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
// bucket rate (floored at MinRateShare of the base); each success resets
// the streak and restores Recovery of the base rate. A no-op when
// backoff is disabled.
func (p *PolicyLimiter) Observe(pfxIdx int, ok bool) bool {
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
			b.rate += b.base * p.backoff.Recovery
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
	floor := b.base * p.backoff.MinRateShare
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
func (p *PolicyLimiter) SetASRate(as uint32, rate float64) error {
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
		b = newBucket(p.asRate, p.asBurst)
		p.as[as] = b
	}
	b.refill(p.now().UnixNano())
	b.rate = rate
	return nil
}

// ASRateOf returns the current bucket rate of an AS (the configured
// ASRate when the AS has not been touched yet); ok is false when per-AS
// pacing is off.
func (p *PolicyLimiter) ASRateOf(as uint32) (rate float64, ok bool) {
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

// asCounter is the live (atomic) accounting behind one AS's ASStat.
// Probed doubles as the budget reservation counter.
type asCounter struct {
	probed, excluded, errors, responsive, denied, backoffs atomic.Uint64
}

// footprint tracks per-origin-AS accounting for one scan cycle. Counter
// resolution is lock-free after an AS's first touch: each target prefix
// caches a pointer to its AS's counter.
type footprint struct {
	origins []uint32
	budget  uint64 // max probes per AS per cycle (0 = unlimited)

	mu    sync.Mutex
	m     map[uint32]*asCounter
	byPfx []atomic.Pointer[asCounter]
}

func newFootprint(origins []uint32, budget uint64) *footprint {
	return &footprint{
		origins: origins,
		budget:  budget,
		m:       make(map[uint32]*asCounter),
		byPfx:   make([]atomic.Pointer[asCounter], len(origins)),
	}
}

// at returns the counter of the AS owning target prefix pfxIdx.
func (f *footprint) at(pfxIdx int) *asCounter {
	if c := f.byPfx[pfxIdx].Load(); c != nil {
		return c
	}
	f.mu.Lock()
	as := f.origins[pfxIdx]
	c := f.m[as]
	if c == nil {
		c = &asCounter{}
		f.m[as] = c
	}
	f.mu.Unlock()
	f.byPfx[pfxIdx].Store(c)
	return c
}

// reserve claims one probe slot under the AS budget; it reports false
// once the AS's budget is spent, without overshooting. With no budget
// it just counts.
func (f *footprint) reserve(c *asCounter) bool {
	if f.budget == 0 {
		c.probed.Add(1)
		return true
	}
	return reserveProbe(&c.probed, f.budget)
}

// unreserve returns a claimed slot (rewind paths: the address was drawn
// and reserved but never probed).
func (f *footprint) unreserve(c *asCounter) {
	c.probed.Add(^uint64(0))
}

// reset zeroes every counter for a fresh cycle. The AS map and the
// per-prefix caches survive: cached pointers stay valid.
func (f *footprint) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.m {
		c.probed.Store(0)
		c.excluded.Store(0)
		c.errors.Store(0)
		c.responsive.Store(0)
		c.denied.Store(0)
		c.backoffs.Store(0)
	}
}

// seed preloads per-AS probed counts from a checkpoint, so a resumed
// cycle's budgets pick up where the interrupted runs left off.
func (f *footprint) seed(probed map[uint32]uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for as, n := range probed {
		c := f.m[as]
		if c == nil {
			c = &asCounter{}
			f.m[as] = c
		}
		c.probed.Store(n)
	}
}

// probedByAS snapshots the per-AS probed counters (the checkpoint
// payload).
func (f *footprint) probedByAS() map[uint32]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint32]uint64, len(f.m))
	for as, c := range f.m {
		if n := c.probed.Load(); n > 0 {
			out[as] = n
		}
	}
	return out
}

// report converts the counters into the Report.PerAS map.
func (f *footprint) report() map[uint32]ASStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint32]ASStat, len(f.m))
	for as, c := range f.m {
		out[as] = ASStat{
			Probed:       c.probed.Load(),
			Excluded:     c.excluded.Load(),
			Errors:       c.errors.Load(),
			Responsive:   c.responsive.Load(),
			BudgetDenied: c.denied.Load(),
			Backoffs:     c.backoffs.Load(),
		}
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
