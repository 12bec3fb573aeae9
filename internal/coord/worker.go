package coord

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// Worker is the fleet side of a distributed campaign: acquire a shard
// lease, scan it in checkpointable chunks, upload the cursor and
// results at every chunk boundary, complete, repeat until the campaign
// is done. While a chunk runs the lease is renewed every TTL/3, so a
// chunk slower than the lease TTL never costs the worker its shard. A
// worker that loses the coordinator keeps scanning and buffering until
// the coordinator returns or the local copy of the lease deadline
// passes; a fenced reply stops it at once (leaseMachine.replied).
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
	// Sleep waits between polls when no shard is free and between
	// completion retries, injectable for tests (default timer sleep).
	// Must honor ctx.
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
		case lease == nil: // an outage, or every shard is leased or done
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				w.eventf("acquire failed (%v); retrying", err)
			}
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

// action is what a leaseMachine asks its driver to do next.
type action int

const (
	actNone      action = iota // nothing to send: the running chunk goes on
	actScan                    // resume from the upload's cursor, run the next chunk
	actHeartbeat               // send the upload: at a boundary, or as a renewal mid-chunk
	actComplete                // send the upload as the shard's completion
	actGasp                    // the chunk was canceled: send the upload, its cursor exact, and stop
	actDrop                    // the shard is lost: cancel a running chunk, discard the buffer
	actDone                    // the shard is complete
)

// leaseMachine is the lease logic of one held shard with no I/O, as
// scan.CycleMachine is the campaign loop's: chunk outcomes, replies and
// clock readings go in, the next action comes out. Worker.Run drives it
// with real time, the fleet simulation on a virtual clock.
type leaseMachine struct {
	lease *Lease
	// await is the step whose outcome the machine waits for: actScan (a
	// running chunk; replies are to renewals), actHeartbeat (the boundary
	// heartbeat), actComplete, or actNone once the lease is over.
	await    action
	deadline time.Time // local copy of the lease deadline
	renewAt  time.Time // when the next renewal is due, never past the deadline
	// up is the buffer: the last consistent (chunk-boundary) upload. It
	// starts with the inherited cursor, which early renewals re-assert.
	up Upload
}

// newLeaseMachine starts a machine, whose first action is actScan.
func newLeaseMachine(lease *Lease, now time.Time) *leaseMachine {
	return &leaseMachine{
		lease:    lease,
		await:    actScan,
		deadline: now.Add(lease.TTL),
		renewAt:  now.Add(lease.TTL / 3),
		up:       Upload{Checkpoint: lease.Checkpoint},
	}
}

// fenced reports whether err means the lease is no longer the worker's:
// lost to expiry or a new holder, or its campaign is gone.
func fenced(err error) bool {
	return errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrUnknownCampaign) || errors.Is(err, ErrUnknownLease)
}

// chunked takes a chunk's report (nil if it never ran), the scanner's
// checkpoint after it (exact even when canceled: the scanner rewinds
// drawn-but-unprobed addresses) and its error. A chunk under its probe
// budget, or any chunk of an unchunked lease, ends the shard.
func (m *leaseMachine) chunked(rep *scan.Report, cp *scan.Checkpoint, err error) action {
	if rep != nil {
		m.up.Responsive = mergeAddrs(m.up.Responsive, rep.Responsive)
		m.up.Probed += rep.Probed
		m.up.Errors += rep.Errors
	}
	m.up.Checkpoint = cp
	switch {
	case err != nil:
		m.await = actNone
		return actGasp
	case m.lease.ChunkProbes == 0 || rep.Probed < m.lease.ChunkProbes:
		m.await, m.up.Checkpoint = actComplete, nil
	default:
		m.await = actHeartbeat
	}
	return m.await
}

// tick takes a clock reading. While a chunk runs, a renewal (the last
// upload again, which the coordinator applies idempotently) is due every
// TTL/3, and the local deadline drops the shard. Nothing renews at a
// boundary or once completing: a renewal after Complete finds no lease.
func (m *leaseMachine) tick(now time.Time) action {
	switch {
	case m.await != actScan:
		return actNone
	case !now.Before(m.deadline):
		m.await = actNone
		return actDrop
	case !now.Before(m.renewAt):
		m.renewAt = now.Add(m.lease.TTL / 3)
		if m.deadline.Before(m.renewAt) {
			m.renewAt = m.deadline
		}
		return actHeartbeat
	}
	return actNone
}

// replied takes the reply to a renewal, a boundary heartbeat or a
// completion, received at now. It is the one reply rule: a nil reply
// renews the local deadline; a fenced reply drops the buffer and the
// shard (a fenced renewal also cancels the running chunk); any other
// error keeps the worker scanning offline, or retrying the completion,
// until now reaches the local deadline, and then abandons the shard.
func (m *leaseMachine) replied(now time.Time, err error) action {
	switch {
	case err == nil:
		m.deadline = now.Add(m.lease.TTL)
	case fenced(err):
		m.await, m.up = actNone, Upload{}
		return actDrop
	case !now.Before(m.deadline):
		m.await = actNone
		return actDrop
	}
	switch m.await {
	case actHeartbeat:
		m.await = actScan
		return actScan
	case actComplete:
		if err == nil {
			m.await = actNone
			return actDone
		}
		return actComplete
	}
	return actNone
}

// runLease drives one leased shard's machine. It returns an error only
// for a dead context or a lease the scanner cannot run.
func (w *Worker) runLease(ctx context.Context, lease *Lease) error {
	scanner, err := w.newScanner(lease)
	if err != nil { // a protocol bug, not a transient: the lease will expire
		w.eventf("%v", err)
		return err
	}
	m := newLeaseMachine(lease, time.Now())
	var runErr error
	for a := actScan; ; {
		switch a {
		case actScan:
			if cp := m.up.Checkpoint; cp != nil {
				_ = scanner.Resume(cp) // fails only on a nil checkpoint
			}
			a, runErr = w.scanChunk(ctx, scanner, m)
		case actHeartbeat, actComplete:
			send, what := w.Client.Heartbeat, "heartbeat"
			if a == actComplete {
				send, what = w.Client.Complete, "complete"
			}
			err := send(ctx, lease.Campaign, lease.LeaseID, m.up)
			if err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if a = w.reply(m, what, err); a == actComplete {
				if err := w.idle(ctx); err != nil {
					return err
				}
			}
		case actGasp: // ctx is dead: the final upload gets its own deadline
			gctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			if err := w.Client.Heartbeat(gctx, lease.Campaign, lease.LeaseID, m.up); err != nil {
				w.eventf("lease %s: final checkpoint upload failed: %v", lease.LeaseID, err)
			} else {
				w.eventf("lease %s: interrupted; cursor uploaded", lease.LeaseID)
			}
			cancel()
			return runErr
		default: // actDrop, actDone
			return nil
		}
	}
}

// scanChunk runs one chunk, sending the renewals the machine asks for,
// and returns the machine's next action and the chunk's error.
func (w *Worker) scanChunk(ctx context.Context, scanner *scan.Scanner, m *leaseMachine) (action, error) {
	chunkCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var rep *scan.Report
	var runErr error
	done := make(chan struct{})
	go func() {
		rep, runErr = scanner.Run(chunkCtx)
		close(done)
	}()
	timer := time.NewTimer(time.Until(m.renewAt))
	defer timer.Stop()
	for {
		select {
		case <-done:
			return m.chunked(rep, scanner.Checkpoint(), runErr), runErr
		case <-timer.C:
		}
		a := m.tick(time.Now())
		switch a {
		case actDrop:
			w.eventf("lease %s: coordinator away past lease deadline; abandoning shard", m.lease.LeaseID)
		case actHeartbeat:
			err := w.Client.Heartbeat(chunkCtx, m.lease.Campaign, m.lease.LeaseID, m.up)
			if err != nil && chunkCtx.Err() != nil {
				continue // the worker is stopping: the chunk ends with the final upload
			}
			a = w.reply(m, "renewal", err)
		}
		if a == actDrop {
			cancel()
			<-done
			return actDrop, nil
		}
		timer.Reset(time.Until(m.renewAt))
	}
}

// reply feeds the reply to a heartbeat, renewal or completion to the
// machine and reports what it decided.
func (w *Worker) reply(m *leaseMachine, what string, err error) action {
	a := m.replied(time.Now(), err)
	switch id := m.lease.LeaseID; {
	case a == actDone:
		w.eventf("lease %s: shard complete (%d probed, %d responsive)", id, m.up.Probed, len(m.up.Responsive))
	case err == nil:
	case a == actDrop:
		w.eventf("lease %s: lost (%s: %v); discarding buffered results", id, what, err)
	default:
		w.eventf("lease %s: %s failed (%v); continuing offline", id, what, err)
	}
	return a
}

// newScanner builds a leased shard's scanner, chunked at ChunkProbes,
// with the lease's exclusions and the worker's.
func (w *Worker) newScanner(lease *Lease) (*scan.Scanner, error) {
	plan, err := parsePartition(lease.Plan)
	if err != nil {
		return nil, fmt.Errorf("coord: lease %s: bad plan: %w", lease.LeaseID, err)
	}
	exclude := append([]netaddr.Prefix(nil), w.Exclude...)
	for _, s := range lease.Exclude {
		p, err := netaddr.ParsePrefix(s)
		if err != nil {
			return nil, fmt.Errorf("coord: lease %s: bad exclusion %q: %w", lease.LeaseID, s, err)
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
		return nil, fmt.Errorf("coord: lease %s: %w", lease.LeaseID, err)
	}
	return scanner, nil
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
