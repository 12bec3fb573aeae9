package scan

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
)

// This file preserves the atomic per-AS footprint that per-worker
// tallies replaced, verbatim up to type names (asCounter →
// atomicASCounter, footprint → atomicFootprint), together with the
// Scanner.Run loop that drove it (atomicScanner.Run: the loop as it was,
// its comments trimmed, reading the footprint from r.fp and running the
// exclusion search on every draw). footprint_test.go runs it against
// the live Scanner.

// atomicASCounter is the live (atomic) accounting behind one AS's ASStat.
// Probed doubles as the budget reservation counter.
type atomicASCounter struct {
	probed, excluded, errors, responsive, denied, backoffs atomic.Uint64
}

// atomicFootprint tracks per-origin-AS accounting for one scan cycle.
// Counter resolution is lock-free after an AS's first touch: each target
// prefix caches a pointer to its AS's counter.
type atomicFootprint struct {
	origins []uint32
	budget  uint64 // max probes per AS per cycle (0 = unlimited)

	mu    sync.Mutex
	m     map[uint32]*atomicASCounter
	byPfx []atomic.Pointer[atomicASCounter]
}

func newAtomicFootprint(origins []uint32, budget uint64) *atomicFootprint {
	return &atomicFootprint{
		origins: origins,
		budget:  budget,
		m:       make(map[uint32]*atomicASCounter),
		byPfx:   make([]atomic.Pointer[atomicASCounter], len(origins)),
	}
}

// at returns the counter of the AS owning target prefix pfxIdx.
func (f *atomicFootprint) at(pfxIdx int) *atomicASCounter {
	if c := f.byPfx[pfxIdx].Load(); c != nil {
		return c
	}
	f.mu.Lock()
	as := f.origins[pfxIdx]
	c := f.m[as]
	if c == nil {
		c = &atomicASCounter{}
		f.m[as] = c
	}
	f.mu.Unlock()
	f.byPfx[pfxIdx].Store(c)
	return c
}

// reserve claims one probe slot under the AS budget; it reports false
// once the AS's budget is spent, without overshooting. With no budget
// it just counts.
func (f *atomicFootprint) reserve(c *atomicASCounter) bool {
	if f.budget == 0 {
		c.probed.Add(1)
		return true
	}
	return reserveProbe(&c.probed, f.budget)
}

// unreserve returns a claimed slot (rewind paths: the address was drawn
// and reserved but never probed).
func (f *atomicFootprint) unreserve(c *atomicASCounter) {
	c.probed.Add(^uint64(0))
}

// reset zeroes every counter for a fresh cycle. The AS map and the
// per-prefix caches survive: cached pointers stay valid.
func (f *atomicFootprint) reset() {
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
func (f *atomicFootprint) seed(probed map[uint32]uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for as, n := range probed {
		c := f.m[as]
		if c == nil {
			c = &atomicASCounter{}
			f.m[as] = c
		}
		c.probed.Store(n)
	}
}

// probedByAS snapshots the per-AS probed counters (the checkpoint
// payload).
func (f *atomicFootprint) probedByAS() map[uint32]uint64 {
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
func (f *atomicFootprint) report() map[uint32]ASStat {
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

// atomicScanner is a Scanner whose Run accounts per AS on the atomic
// footprint above; everything but the accounting is the Scanner's own.
type atomicScanner struct {
	*Scanner
	fp *atomicFootprint // nil without per-AS features
}

func newAtomicScanner(cfg Config) (*atomicScanner, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	as := &atomicScanner{Scanner: s}
	if s.fp != nil {
		as.fp = newAtomicFootprint(cfg.Politeness.Origins, cfg.Politeness.ASBudget)
	}
	return as, nil
}

// Checkpoint is Scanner.Checkpoint with the reference's per-AS counters.
func (r *atomicScanner) Checkpoint() *Checkpoint {
	cp := r.Scanner.Checkpoint()
	if cp != nil && r.fp != nil {
		cp.ASProbed = r.fp.probedByAS()
	}
	return cp
}

// Run is the Scanner.Run that drove the atomic footprint.
func (r *atomicScanner) Run(ctx context.Context) (*Report, error) {
	s := r.Scanner
	perm, err := NewPermutation(s.cfg.Targets.AddressCount(), s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	workers := s.cfg.Workers
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
	if r.fp != nil {
		r.fp.reset()
		if resumed != nil {
			r.fp.seed(resumed.ASProbed)
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

	paceK := min(paceBatch, max(1, s.cfg.Burst/workers))
	if s.cfg.Rate > 0 {
		paceK = min(paceK, max(1, int(s.cfg.Rate*paceSpan.Seconds())))
	}
	backoffOn := s.policy != nil && s.policy.backoff > 0
	responsive := make([][]netaddr.Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := shards[w]
			done := ctx.Done()
			var local []netaddr.Addr
			var nProbed, nExcluded, nErrors, nDenied uint64
			var pc pacer
			if s.policy != nil {
				pc = pacer{p: s.policy, k: paceK}
				defer pc.release()
			}
			for !stop.Load() {
				idx, ok := sh.Next()
				if !ok {
					break
				}
				addr, pi := s.addrAt(idx)
				if ex := s.exclude.Load(); ex != nil && ex.contains(addr) {
					nExcluded++
					if r.fp != nil {
						r.fp.at(pi).excluded.Add(1)
					}
					continue
				}
				if canceled(done) {
					sh.rewind()
					fail(ctx.Err())
					break
				}
				var fpc *atomicASCounter
				if r.fp != nil {
					fpc = r.fp.at(pi)
					if !r.fp.reserve(fpc) {
						nDenied++
						fpc.denied.Add(1)
						continue
					}
				}
				if s.cfg.MaxProbes > 0 && !reserveProbe(&probed, s.cfg.MaxProbes) {
					if fpc != nil {
						r.fp.unreserve(fpc)
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
							r.fp.unreserve(fpc)
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
						fpc.errors.Add(1)
					}
					if backoffOn && s.policy.observe(pi, false) {
						fpc.backoffs.Add(1)
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
						fpc.responsive.Add(1)
					}
				}
			}
			probed.Add(nProbed)
			excluded.Add(nExcluded)
			errors.Add(nErrors)
			denied.Add(nDenied)
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
	if r.fp != nil {
		report.PerAS = r.fp.report()
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
