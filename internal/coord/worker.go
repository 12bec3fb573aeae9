package coord

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// Worker is the fleet side of a distributed campaign: acquire a shard
// lease, scan it in checkpointable chunks, upload the cursor and
// results at every chunk boundary, complete, repeat until the campaign
// is done. A background renewer heartbeats the lease on a timer,
// independent of chunk boundaries, so a chunk that takes longer than
// the lease TTL (slow prober, tight rate cap) never costs the worker
// its shard.
//
// Failure posture: a worker that loses the coordinator does not abandon
// its shard — it keeps scanning and buffering results, retrying uploads
// at each chunk boundary, until either the coordinator comes back
// (reconnect, upload everything, continue) or the worker's local copy
// of the lease deadline passes without a successful renewal (the
// coordinator has certainly re-leased the shard by then; the worker
// discards its buffer and starts over with a fresh acquire). A
// rejected renewal (ErrLeaseLost) is an immediate stop: another worker
// owns the shard now, and uploading stale results would double-count.
type Worker struct {
	// Client talks to the coordinator (required).
	Client *Client
	// ID names this worker in leases and logs.
	ID string
	// Campaign is the campaign to work on (required).
	Campaign string
	// Prober performs the probes (required unless ProberAt is set).
	Prober scan.Prober
	// ProberAt, when set, supplies the prober per cycle (the simulation
	// hook, mirroring scan.Campaign.ProberAt).
	ProberAt func(cycle int) scan.Prober
	// Exclude lists prefixes this worker must never probe, layered on
	// top of the campaign-wide exclusion list carried in each lease.
	Exclude []netaddr.Prefix
	// HeartbeatEvery is the background lease-renewal cadence (default
	// TTL/3). Renewals re-send the last consistent upload — uploads are
	// cumulative and replace the previous one, so the replay is
	// idempotent.
	HeartbeatEvery time.Duration
	// Now is the worker's clock, injectable for deterministic tests
	// (default time.Now).
	Now func() time.Time
	// Sleep waits between polls when no shard is free, injectable for
	// tests (default timer sleep). Must honor ctx.
	Sleep func(ctx context.Context, d time.Duration) error
	// PollEvery is the idle-acquire poll interval (default 200ms).
	PollEvery time.Duration
	// OnEvent, when set, receives human-readable progress lines.
	OnEvent func(format string, args ...any)
}

// Run works the campaign until it is done or ctx is canceled. A
// coordinator outage during acquire is retried forever (the worker has
// nothing to lose and nowhere to be); ctx is the only way out.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil || w.Campaign == "" || (w.Prober == nil && w.ProberAt == nil) {
		return fmt.Errorf("coord: worker needs a client, a campaign and a prober")
	}
	for {
		lease, done, err := w.Client.Acquire(ctx, w.Campaign, w.ID)
		switch {
		case done:
			w.eventf("campaign %s done", w.Campaign)
			return nil
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.eventf("acquire failed (%v); retrying", err)
			if err := w.idle(ctx); err != nil {
				return err
			}
			continue
		case lease == nil:
			// Every shard is leased or done; poll until the cycle turns.
			if err := w.idle(ctx); err != nil {
				return err
			}
			continue
		}
		w.eventf("leased %s: cycle %d shard %d/%d (%d prefixes, resume=%v)",
			lease.LeaseID, lease.Cycle, lease.Shard, lease.Shards, len(lease.Plan), lease.Checkpoint != nil)
		if err := w.runLease(ctx, lease); err != nil {
			return err
		}
	}
}

// leaseHealth is the worker-side view of one held lease, shared between
// the chunk loop and the background renewer.
type leaseHealth struct {
	lastUp   atomic.Pointer[Upload]    // last consistent (chunk-boundary) upload
	deadline atomic.Pointer[time.Time] // local copy of the lease deadline
	fenced   atomic.Bool               // the coordinator rejected the lease outright
}

func (h *leaseHealth) renewed(d time.Time) { h.deadline.Store(&d) }

// fenced reports whether err means the lease is no longer the worker's:
// lost to expiry or a new holder, or its campaign is gone.
func fenced(err error) bool {
	return errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrUnknownCampaign) || errors.Is(err, ErrUnknownLease)
}

// runLease scans one leased shard to completion (or abandonment). The
// returned error is only ever a dead context: lease-level failures are
// handled by abandoning the shard and letting Run re-acquire.
func (w *Worker) runLease(ctx context.Context, lease *Lease) error {
	plan, err := parsePartition(lease.Plan)
	if err != nil {
		// A malformed plan is a protocol bug, not a transient: abandon
		// the lease (it will expire) and surface loudly.
		w.eventf("lease %s: bad plan: %v", lease.LeaseID, err)
		return fmt.Errorf("coord: lease %s: bad plan: %w", lease.LeaseID, err)
	}
	exclude := append([]netaddr.Prefix(nil), w.Exclude...)
	for _, s := range lease.Exclude {
		p, err := netaddr.ParsePrefix(s)
		if err != nil {
			w.eventf("lease %s: bad exclusion %q: %v", lease.LeaseID, s, err)
			return fmt.Errorf("coord: lease %s: bad exclusion %q: %w", lease.LeaseID, s, err)
		}
		exclude = append(exclude, p)
	}
	prober := w.Prober
	if w.ProberAt != nil {
		prober = w.ProberAt(lease.Cycle)
	}
	scanner, err := scan.New(scan.Config{
		Targets:   plan,
		Prober:    prober,
		Rate:      lease.Rate,
		Workers:   lease.Workers,
		Seed:      lease.Seed,
		Shard:     lease.Shard,
		Shards:    lease.Shards,
		Exclude:   exclude,
		MaxProbes: lease.ChunkProbes,
		Politeness: scan.Politeness{
			PrefixRate:  lease.PrefixRate,
			PrefixBurst: lease.PrefixBurst,
		},
	})
	if err != nil {
		return fmt.Errorf("coord: lease %s: %w", lease.LeaseID, err)
	}
	if lease.Checkpoint != nil {
		if err := scanner.Resume(lease.Checkpoint); err != nil {
			return fmt.Errorf("coord: lease %s: %w", lease.LeaseID, err)
		}
	}

	// The worker's view of the lease, shared with the background
	// renewer. The initial upload carries the inherited checkpoint so a
	// renewal that fires before the first chunk boundary re-asserts the
	// cursor the coordinator already holds instead of clearing it.
	health := &leaseHealth{}
	health.lastUp.Store(&Upload{Checkpoint: lease.Checkpoint})
	health.renewed(w.now().Add(lease.TTL))
	scanCtx, cancelScan := context.WithCancel(ctx)
	renewDone := make(chan struct{})
	go w.renewLoop(scanCtx, cancelScan, lease, health, renewDone)
	stopRenewer := func() {
		cancelScan()
		<-renewDone
	}
	defer stopRenewer()

	var responsive []netaddr.Addr
	var probed, nErrors uint64

	for {
		report, runErr := scanner.Run(scanCtx)
		if report != nil {
			responsive = mergeAddrs(responsive, report.Responsive)
			probed += report.Probed
			nErrors += report.Errors
		}
		cp := scanner.Checkpoint()
		up := Upload{Checkpoint: cp, Responsive: responsive, Probed: probed, Errors: nErrors}
		health.lastUp.Store(&up)

		if runErr != nil {
			if health.fenced.Load() && ctx.Err() == nil {
				// The renewer hit the fence and canceled the scan: the
				// shard has a new owner; every further probe would be
				// repeated by it. Discard and re-acquire.
				w.eventf("lease %s: lost; discarding buffered results", lease.LeaseID)
				return nil
			}
			// Canceled mid-chunk. The checkpoint still describes exactly
			// what was probed (the scanner rewinds drawn-but-unprobed
			// addresses), so one last upload hands the precise cursor to
			// whoever inherits the shard. The parent ctx is dead; give
			// the dying gasp its own short deadline.
			gctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			if err := w.Client.Heartbeat(gctx, lease.Campaign, lease.LeaseID, up); err != nil {
				w.eventf("lease %s: final checkpoint upload failed: %v", lease.LeaseID, err)
			} else {
				w.eventf("lease %s: interrupted; cursor uploaded", lease.LeaseID)
			}
			cancel()
			return runErr
		}

		if lease.ChunkProbes == 0 || report.Probed < lease.ChunkProbes {
			// The chunk under-ran its probe budget: the shard is
			// exhausted. (A chunk that exactly hit the budget at the end
			// of the shard just goes around once more and lands here
			// with 0 probed. A zero chunk size means the whole shard ran
			// unchunked — the background renewer alone keeps the lease
			// alive.)
			break
		}

		// Chunk boundary: renew the lease and publish the cursor.
		err := w.Client.Heartbeat(ctx, lease.Campaign, lease.LeaseID, up)
		switch {
		case err == nil:
			health.renewed(w.now().Add(lease.TTL))
		case fenced(err):
			// Fenced off: the shard has a new owner (or the campaign is
			// gone). Discard everything buffered — uploading it would
			// double-count against the replacement's work.
			w.eventf("lease %s: lost (%v); discarding buffered results", lease.LeaseID, err)
			return nil
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Coordinator unreachable: degrade gracefully. Keep the
			// shard running and the results buffered; the next chunk
			// boundary retries. Only a locally expired lease stops us.
			if !w.now().Before(*health.deadline.Load()) {
				w.eventf("lease %s: coordinator away past lease deadline; abandoning shard", lease.LeaseID)
				return nil
			}
			w.eventf("lease %s: heartbeat failed (%v); continuing offline", lease.LeaseID, err)
		}

		if err := scanner.Resume(scanner.Checkpoint()); err != nil {
			return fmt.Errorf("coord: lease %s: %w", lease.LeaseID, err)
		}
	}

	// Shard complete. Stop the renewer first: a renewal in flight while
	// Complete lands would see the (correctly) dead lease and report it
	// lost. Then push the final upload until it lands, the lease is
	// fenced, or the worker's local deadline passes.
	stopRenewer()
	if health.fenced.Load() {
		w.eventf("lease %s: lost before completion; discarding", lease.LeaseID)
		return nil
	}
	up := Upload{Responsive: responsive, Probed: probed, Errors: nErrors}
	for {
		err := w.Client.Complete(ctx, lease.Campaign, lease.LeaseID, up)
		switch {
		case err == nil:
			w.eventf("lease %s: shard complete (%d probed, %d responsive)",
				lease.LeaseID, probed, len(responsive))
			return nil
		case fenced(err):
			w.eventf("lease %s: lost before completion (%v); discarding", lease.LeaseID, err)
			return nil
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !w.now().Before(*health.deadline.Load()) {
				w.eventf("lease %s: cannot report completion before deadline; abandoning", lease.LeaseID)
				return nil
			}
			w.eventf("lease %s: complete failed (%v); buffering and retrying", lease.LeaseID, err)
			if err := w.idle(ctx); err != nil {
				return err
			}
		}
	}
}

// renewLoop renews the lease on a real-time timer, decoupled from chunk
// boundaries: with the default TTL/3 cadence a chunk may take
// arbitrarily long (sequential TCP probes, a tight -rate cap) without
// the lease ever lapsing. Each renewal re-sends the last consistent
// upload, which the coordinator applies idempotently. A fenced renewal
// cancels the scan via cancelScan so the worker stops probing a shard
// it no longer owns; transient failures are left to the chunk loop's
// offline-deadline policy.
func (w *Worker) renewLoop(ctx context.Context, cancelScan context.CancelFunc, lease *Lease, health *leaseHealth, done chan<- struct{}) {
	defer close(done)
	interval := w.HeartbeatEvery
	if interval <= 0 {
		interval = lease.TTL / 3
	}
	if interval <= 0 {
		return
	}
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		err := w.Client.Heartbeat(ctx, lease.Campaign, lease.LeaseID, *health.lastUp.Load())
		switch {
		case err == nil:
			health.renewed(w.now().Add(lease.TTL))
		case fenced(err):
			w.eventf("lease %s: renewal fenced (%v); stopping the scan", lease.LeaseID, err)
			health.fenced.Store(true)
			cancelScan()
			return
		}
		t.Reset(interval)
	}
}

func (w *Worker) now() time.Time {
	if w.Now != nil {
		return w.Now()
	}
	return time.Now()
}

// idle waits one poll interval (default 200ms) before the next try.
func (w *Worker) idle(ctx context.Context) error {
	d := w.PollEvery
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	if w.Sleep != nil {
		return w.Sleep(ctx, d)
	}
	return sleepCtx(ctx, d)
}

func (w *Worker) eventf(format string, args ...any) {
	if w.OnEvent != nil {
		w.OnEvent(format, args...)
	}
}
