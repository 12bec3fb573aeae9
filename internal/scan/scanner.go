package scan

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// Config parameterizes a scan run.
type Config struct {
	// Targets is the scan plan: a disjoint prefix set (a TASS selection,
	// or the full announced space).
	Targets rib.Partition
	// Prober performs the probes.
	Prober Prober
	// Rate, when positive, caps probes per second.
	Rate float64
	// Burst is the limiter burst size (default 64).
	Burst int
	// Workers is the number of concurrent probe workers (default 16).
	Workers int
	// Seed drives the target permutation.
	Seed int64
	// Shard and Shards split the permutation cycle across scanner
	// instances, ZMap-style: an instance configured as shard i of n
	// probes exactly the cycle positions ≡ i (mod n), so n instances (on
	// one machine or many) cover the target space exactly once with no
	// coordination beyond agreeing on (Seed, Shards). Defaults to the
	// whole cycle (Shard 0 of 1). Within an instance, its shard is
	// subdivided again so every worker owns a private slice.
	Shard, Shards int
	// Exclude lists prefixes never to probe (operator blocklist). The
	// list can be swapped while a cycle runs (SetExclusions, or an
	// ExclusionReloader polling the file): addresses drawn after the
	// swap — including ones re-drawn by a resumed cycle — are counted
	// as Excluded and never probed.
	Exclude []netaddr.Prefix
	// MaxProbes, when positive, stops the scan after that many probes
	// (sampling mode).
	MaxProbes uint64
	// Politeness layers per-origin-AS and per-prefix pacing, adaptive
	// backoff, probe budgets and footprint telemetry under the global
	// rate. The zero value changes nothing.
	Politeness Politeness
	// OnResult, when set, receives every result (including closed ones)
	// from worker goroutines; it must be safe for concurrent calls.
	OnResult func(Result)
}

// Report summarizes a completed scan cycle.
type Report struct {
	// Probed counts transmitted probes (exclusion hits don't count).
	Probed uint64
	// Excluded counts targets skipped by the exclusion list.
	Excluded uint64
	// Errors counts probe invocations that failed outright.
	Errors uint64
	// BudgetDenied counts targets skipped because their origin AS had
	// exhausted its probe budget (Politeness.ASBudget).
	BudgetDenied uint64
	// Responsive is the sorted set of addresses with successful
	// handshakes.
	Responsive []netaddr.Addr
	// PerAS is the per-origin-AS footprint breakdown, keyed by AS
	// number; nil unless the scan ran with per-AS accounting. Probed is
	// cumulative across the interrupted runs of one cycle (it rides in
	// the checkpoint to enforce budgets); the other fields count this
	// run only.
	PerAS map[uint32]ASStat
	// Elapsed is the wall-clock scan duration.
	Elapsed time.Duration
}

// Hitrate returns successful handshakes per probe, the efficiency metric
// of the paper.
func (r *Report) Hitrate() float64 {
	if r.Probed == 0 {
		return 0
	}
	return float64(len(r.Responsive)) / float64(r.Probed)
}

// Scanner executes scan cycles over a fixed target set.
//
// Run gives every worker a private shard of the target permutation
// (Permutation.Shard), so there is no feeder goroutine and no channel
// handoff: each worker iterates, probes and buffers results locally, and
// the per-worker buffers are merged once at the end. Nothing on the
// per-probe path takes a shared lock: counters, per-AS ones included,
// are per-worker tallies merged when the worker exits (only a MaxProbes
// or ASBudget cap keeps a live atomic count), the exclusion check is a
// binary search over an atomically swapped range list, run only for
// target prefixes the list intersects, cancellation is polled on the
// context's Done channel, and the PolicyLimiter paces with CAS token
// buckets.
type Scanner struct {
	cfg Config
	// cum holds the cumulative target sizes for index→address mapping;
	// top[j] is the target holding index j<<shift (see addrAt).
	cum   []uint64
	top   []int32
	shift uint
	// firsts is the targets' first addresses (rib.Partition.Bounds), so
	// addrAt reads one slice element instead of copying the partition.
	firsts []netaddr.Addr
	// exclude is swapped atomically by SetExclusions, so a reloaded
	// list takes effect mid-cycle without pausing the workers.
	exclude atomic.Pointer[exclusionList]
	policy  *PolicyLimiter // probe pacing (nil without any rate)
	fp      *footprint     // per-AS accounting (nil without per-AS features)

	mu     sync.Mutex
	shards []*Shard    // worker shards of the most recent Run
	resume *Checkpoint // pending cursor state for the next Run
}

// New validates the configuration and builds a Scanner.
func New(cfg Config) (*Scanner, error) {
	if cfg.Targets.Len() == 0 {
		return nil, fmt.Errorf("scan: no targets")
	}
	if cfg.Prober == nil {
		return nil, fmt.Errorf("scan: no prober")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("scan: shard %d of %d out of range", cfg.Shard, cfg.Shards)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Scanner{cfg: cfg}
	s.firsts, _ = cfg.Targets.Bounds()
	s.cum = make([]uint64, cfg.Targets.Len())
	var cum uint64
	for i := 0; i < cfg.Targets.Len(); i++ {
		cum += cfg.Targets.Prefix(i).NumAddresses()
		s.cum[i] = cum
	}
	s.buildTop()
	s.SetExclusions(cfg.Exclude)
	// One AS table serves the pacer's per-AS level and the footprint.
	pol := &cfg.Politeness
	var tab *asTable
	if pol.perAS() {
		tab = newASTable(pol.Origins)
		s.fp = newFootprint(tab, pol.ASBudget)
	}
	if cfg.Rate > 0 || pol.ASRate > 0 || pol.PrefixRate > 0 {
		// One pacer for every level: a global-only Rate is a
		// single-bucket PolicyLimiter, and per-AS or per-prefix rates add
		// bucket levels to it. Each worker gets its own per-AS share,
		// unless there are more workers than tokens of AS burst.
		s.policy = newPolicyLimiter(&cfg, tab)
	}
	return s, nil
}

// validate checks every rate and the origin mapping that per-AS
// features need. It is the only rate check, and New runs it before any
// `> 0` gate, whether or not a rate is set: a NaN or negative rate fails
// every such gate and would silently switch its level off.
func (cfg *Config) validate() error {
	pol := &cfg.Politeness
	for _, r := range []struct {
		name string
		v    float64
	}{{"rate", cfg.Rate}, {"as-rate", pol.ASRate}, {"prefix-rate", pol.PrefixRate}} {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) || r.v < 0 {
			return fmt.Errorf("scan: policy %s must be finite and non-negative, got %v", r.name, r.v)
		}
	}
	if pol.Backoff.Threshold > 0 && pol.ASRate <= 0 {
		return fmt.Errorf("scan: backoff needs a per-AS rate to halve")
	}
	if pol.perAS() && len(pol.Origins) != cfg.Targets.Len() {
		return fmt.Errorf("scan: politeness origins cover %d prefixes, targets have %d (rib.Table.OriginsOf builds the mapping)", len(pol.Origins), cfg.Targets.Len())
	}
	return nil
}

// exclusionList is one installed exclusion list: the prefixes as sorted,
// merged address ranges (disjoint and non-adjacent), plus the number of
// prefixes they came from.
type exclusionList struct {
	ranges   []netaddr.AddrRange
	prefixes int
	// hits[i] reports whether some range intersects target prefix i. It
	// is computed with the list, so a list swapped in mid-run carries
	// its own, and workers search the ranges only for draws from those
	// prefixes.
	hits []bool
}

// newExclusionList merges ps into sorted, disjoint, non-adjacent ranges:
// nested, overlapping, adjacent and duplicate prefixes collapse.
func newExclusionList(ps []netaddr.Prefix) *exclusionList {
	rs := make([]netaddr.AddrRange, len(ps))
	for i, p := range ps {
		rs[i] = p.Range()
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].First < rs[j].First })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			// last.Last+1 would wrap at 255.255.255.255, where every
			// later range is covered anyway.
			if last.Last == math.MaxUint32 || r.First <= last.Last+1 {
				if r.Last > last.Last {
					last.Last = r.Last
				}
				continue
			}
		}
		out = append(out, r)
	}
	return &exclusionList{ranges: out, prefixes: len(ps)}
}

// intersect sets l.hits for the targets with the given bounds
// (rib.Partition.Bounds) in one merge walk: targets and ranges are both
// sorted and disjoint.
func (l *exclusionList) intersect(firsts, lasts []netaddr.Addr) {
	l.hits = make([]bool, len(firsts))
	rs := l.ranges
	j := 0
	for i := range l.hits {
		for j < len(rs) && rs[j].Last < firsts[i] {
			j++
		}
		if j == len(rs) {
			break
		}
		l.hits[i] = rs[j].First <= lasts[i]
	}
}

// contains reports whether a falls in an excluded range. Workers run it
// on every draw from a target prefix the list intersects, so the binary
// search is hand-rolled like addrAt's.
func (l *exclusionList) contains(a netaddr.Addr) bool {
	rs := l.ranges
	lo, hi := 0, len(rs) // first i with rs[i].First > a
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].First > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo > 0 && a <= rs[lo-1].Last
}

// SetExclusions atomically replaces the exclusion list. Safe to call
// while Run is in flight: workers see the new list on their next draw,
// and addresses a resumed cycle re-draws under a grown list are counted
// as Excluded, never probed. A nil or empty list clears all exclusions.
func (s *Scanner) SetExclusions(ps []netaddr.Prefix) {
	if len(ps) == 0 {
		s.exclude.Store(nil)
		return
	}
	l := newExclusionList(ps)
	l.intersect(s.cfg.Targets.Bounds())
	s.exclude.Store(l)
}

// ExclusionCount returns the number of exclusion prefixes currently
// active (as given, before merging).
func (s *Scanner) ExclusionCount() int {
	if l := s.exclude.Load(); l != nil {
		return l.prefixes
	}
	return 0
}

// Policy exposes the probe pacer, non-nil whenever any rate is set
// (Config.Rate, or a per-AS or per-prefix Politeness rate) — the hook
// for external feeds to retune a single AS mid-cycle via SetASRate,
// which errors unless Politeness set a per-AS rate and some target
// prefix maps to the AS, and to read an AS's current rate via ASRateOf.
// The pacer shares the Scanner's AS table with the footprint.
func (s *Scanner) Policy() *PolicyLimiter {
	return s.policy
}

// buildTop indexes cum by the top bits of a permutation index: a window
// of 2^shift indices per entry, with shift chosen so the table has about
// one entry per target. Entry j is the target holding index j<<shift; the
// last entry, past the end of the space, is the last target.
func (s *Scanner) buildTop() {
	n := s.cum[len(s.cum)-1]
	s.shift = uint(bits.Len64((n - 1) / uint64(len(s.cum))))
	s.top = make([]int32, (n-1)>>s.shift+2)
	i := 0
	for j := range s.top {
		for i < len(s.cum)-1 && s.cum[i] <= uint64(j)<<s.shift {
			i++
		}
		s.top[j] = int32(i)
	}
}

// addrAt maps a permutation index to the target address space, returning
// the address and the index of the target prefix containing it (the key
// into the politeness layer's origin mapping). It runs once per probe on
// every worker: the top table narrows the search to the few targets that
// share the index's window, and the binary search over them is
// hand-rolled, since sort.Search's closure call costs more than the whole
// loop here.
func (s *Scanner) addrAt(idx uint64) (netaddr.Addr, int) {
	cum := s.cum
	j := idx >> s.shift
	// The target holding idx lies in [top[j], top[j+1]]: cum[top[j+1]]
	// exceeds (j+1)<<shift, so it exceeds idx.
	lo, hi := int(s.top[j]), int(s.top[j+1]) // first i with cum[i] > idx
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] > idx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	off := idx
	if lo > 0 {
		off -= cum[lo-1]
	}
	return s.firsts[lo] + netaddr.Addr(off), lo
}

// Run executes one scan cycle: every target address owned by the
// configured shard is probed exactly once, in permuted order, honoring
// rate limit, exclusions and context cancellation. A canceled run stops
// probing immediately — addresses not yet probed are left for a resumed
// cycle (see Checkpoint) and never probed with a dead context.
func (s *Scanner) Run(ctx context.Context) (*Report, error) {
	perm, err := NewPermutation(s.cfg.Targets.AddressCount(), s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	workers := s.cfg.Workers
	// Worker w owns global shard (Shard + w·Shards) of (Shards·Workers):
	// sub-sharding composes, so the union over this instance's workers is
	// exactly the instance's top-level shard of the cycle.
	shards := make([]*Shard, workers)
	for w := 0; w < workers; w++ {
		sh, err := perm.Shard(s.cfg.Shard+w*s.cfg.Shards, s.cfg.Shards*workers)
		if err != nil {
			return nil, err
		}
		shards[w] = sh
	}
	s.mu.Lock()
	resumed := s.resume
	s.resume = nil
	s.mu.Unlock()
	if cp := resumed; cp != nil {
		if err := cp.validate(s.cfg, perm.N()); err != nil {
			return nil, err
		}
		for w := range shards {
			if err := shards[w].Skip(cp.Consumed[w]); err != nil {
				return nil, err
			}
		}
	}
	if s.fp != nil {
		// A fresh Run is a fresh cycle: per-AS counters start at zero. A
		// resumed Run seeds the probed counters from the checkpoint, so AS
		// budgets hold across the interrupted runs of one cycle.
		s.fp.reset()
		if resumed != nil {
			s.fp.seed(resumed.ASProbed)
		}
	}
	s.mu.Lock()
	s.shards = shards
	s.mu.Unlock()

	start := time.Now()
	var (
		probed, excluded, errors, denied atomic.Uint64
		stop                             atomic.Bool // set on the first run error
		errOnce                          sync.Once
		runErr                           error
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		stop.Store(true)
	}

	paceK := s.paceK()
	// Read once, so the probe path tests one local per probe.
	backoffOn := s.policy != nil && s.policy.backoff > 0
	responsive := make([][]netaddr.Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The worker draws from a copy on its own stack, so its
			// per-draw cursor writes share no cache line with another
			// worker's shard; the copy goes back when the worker leaves.
			sh := *shards[w]
			// Polled without blocking instead of ctx.Err(), which locks.
			done := ctx.Done()
			var local []netaddr.Addr
			// Per-worker tallies, flushed into the shared atomics once at
			// exit: the per-probe path touches no shared cache line. Only
			// the MaxProbes budget needs a live shared counter, and only
			// an AS budget a live per-AS one.
			var nProbed, nExcluded, nErrors, nDenied uint64
			var tl []asCounts
			if s.fp != nil {
				tl = make([]asCounts, len(s.fp.tab.ases))
			}
			var pc pacer
			if s.policy != nil {
				pc = pacer{p: s.policy, share: w % s.policy.nShares, k: paceK}
				defer pc.release() // unused global credit goes back on every exit
			}
			for !stop.Load() {
				idx, ok := sh.Next()
				if !ok {
					break
				}
				addr, pi := s.addrAt(idx)
				if ex := s.exclude.Load(); ex != nil && ex.hits[pi] && ex.contains(addr) {
					// Exclusion hits consume neither a rate token nor a
					// probe: only transmitted probes are accounted.
					nExcluded++
					if tl != nil {
						tl[s.fp.tab.ids[pi]].excluded++
					}
					continue
				}
				if canceled(done) {
					sh.rewind() // drawn but not probed
					fail(ctx.Err())
					break
				}
				var fpc *asCounts
				var id int32
				if tl != nil {
					id = s.fp.tab.ids[pi]
					fpc = &tl[id]
					if !s.fp.reserve(fpc, id) {
						// AS budget spent: the draw is consumed — the cap
						// is a deliberate skip for this cycle, not a
						// deferral — and no token or probe is used.
						nDenied++
						fpc.denied++
						continue
					}
				}
				// The MaxProbes slot comes before the limiter, so no worker
				// sleeps for a token once the budget is spent.
				if s.cfg.MaxProbes > 0 && !reserveProbe(&probed, s.cfg.MaxProbes) {
					if fpc != nil {
						s.fp.unreserve(fpc, id)
					}
					sh.rewind()
					break
				}
				if s.policy != nil {
					if err := pc.wait(ctx, pi); err != nil {
						if s.cfg.MaxProbes > 0 {
							probed.Add(^uint64(0))
						}
						if fpc != nil {
							s.fp.unreserve(fpc, id)
						}
						sh.rewind()
						fail(err)
						break
					}
				}
				res, err := s.cfg.Prober.Probe(ctx, addr)
				if s.cfg.MaxProbes == 0 {
					nProbed++
				}
				if err != nil {
					nErrors++
					if fpc != nil {
						fpc.errors++
					}
					if backoffOn && s.policy.observe(pi, false) {
						fpc.backoffs++
					}
					continue
				}
				if backoffOn {
					s.policy.observe(pi, true)
				}
				if s.cfg.OnResult != nil {
					s.cfg.OnResult(res)
				}
				if res.Open {
					local = append(local, res.Addr)
					if fpc != nil {
						fpc.responsive++
					}
				}
			}
			probed.Add(nProbed)
			excluded.Add(nExcluded)
			errors.Add(nErrors)
			denied.Add(nDenied)
			if tl != nil {
				s.fp.merge(tl)
			}
			*shards[w] = sh
			responsive[w] = local
		}(w)
	}
	wg.Wait()

	report := &Report{
		Probed:       probed.Load(),
		Excluded:     excluded.Load(),
		Errors:       errors.Load(),
		BudgetDenied: denied.Load(),
	}
	if s.fp != nil {
		report.PerAS = s.fp.report()
	}
	total := 0
	for _, buf := range responsive {
		total += len(buf)
	}
	report.Responsive = make([]netaddr.Addr, 0, total)
	for _, buf := range responsive {
		report.Responsive = append(report.Responsive, buf...)
	}
	sort.Slice(report.Responsive, func(i, j int) bool {
		return report.Responsive[i] < report.Responsive[j]
	})
	report.Elapsed = time.Since(start)
	return report, runErr
}

// paceK is the most global tokens a worker's pacer claims at once: the
// credit held across all workers never exceeds one burst, and one
// worker's credit never stands for more than paceSpan of the rate.
func (s *Scanner) paceK() int {
	k := min(paceBatch, max(1, s.cfg.Burst/s.cfg.Workers))
	if s.cfg.Rate > 0 {
		k = min(k, max(1, int(s.cfg.Rate*paceSpan.Seconds())))
	}
	return k
}

// canceled polls a context's Done channel without blocking.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// reserveProbe claims one probe slot under the max budget; it reports
// false once the budget is spent, without ever overshooting.
func reserveProbe(probed *atomic.Uint64, max uint64) bool {
	for {
		cur := probed.Load()
		if cur >= max {
			return false
		}
		if probed.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// ParseExclusions reads a ZMap-style exclusion file: one CIDR prefix or
// bare address per line, '#' comments and blank lines ignored.
func ParseExclusions(r io.Reader) ([]netaddr.Prefix, error) {
	sc := bufio.NewScanner(r)
	var out []netaddr.Prefix
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if !strings.ContainsRune(text, '/') {
			text += "/32"
		}
		p, err := netaddr.ParsePrefix(text)
		if err != nil {
			return nil, fmt.Errorf("scan: exclusion line %d: %w", line, err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan: reading exclusions: %w", err)
	}
	return out, nil
}
