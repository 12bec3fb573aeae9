package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// TestLeaseMachineRule pins the lease machine's one reply rule: every
// combination of reply (nil, each fenced sentinel, a transient error),
// time (before the local deadline, at it) and phase (chunk boundary,
// renewal while a chunk runs, completion) maps to exactly one action,
// with its effect on the buffer and the deadline. It also pins the
// clock readings (renewal every TTL/3, drop at the deadline, no renewal
// outside a running chunk), the chunk outcomes and the cancellations.
func TestLeaseMachineRule(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	const ttl = 30 * time.Second
	lease := &Lease{LeaseID: "L00000001", Campaign: "camp", TTL: ttl, ChunkProbes: 16}
	cp := &scan.Checkpoint{N: 256, Seed: 42, Shards: 1, Workers: 1, Consumed: []uint64{16}}
	host := netaddr.MustParseAddr("203.0.113.7")
	full := &scan.Report{Probed: 16, Responsive: []netaddr.Addr{host}}
	short := &scan.Report{Probed: 5}
	deadline := t0.Add(ttl)

	// machine returns a machine granted at t0 and brought to a phase.
	machine := func(ph string) *leaseMachine {
		m := newLeaseMachine(lease, t0)
		switch ph {
		case "boundary":
			m.chunked(full, cp, nil)
		case "completion":
			m.chunked(short, cp, nil)
		}
		return m
	}
	replies := []struct {
		name string
		err  error
	}{
		{"nil", nil},
		{"lease lost", fmt.Errorf("%w: L00000001", ErrLeaseLost)},
		{"unknown lease", fmt.Errorf("%w: L00000001", ErrUnknownLease)},
		{"unknown campaign", fmt.Errorf("%w: camp", ErrUnknownCampaign)},
		{"transient", errors.New("coord: POST /v1/campaigns/camp/leases/L00000001/heartbeat: connection refused")},
	}
	// want[phase][late] lists the action per reply, in the order above.
	want := map[string][2][5]action{
		"boundary": {
			{actScan, actDrop, actDrop, actDrop, actScan},
			{actScan, actDrop, actDrop, actDrop, actDrop},
		},
		"renewal": {
			{actNone, actDrop, actDrop, actDrop, actNone},
			{actNone, actDrop, actDrop, actDrop, actDrop},
		},
		"completion": {
			{actDone, actDrop, actDrop, actDrop, actComplete},
			{actDone, actDrop, actDrop, actDrop, actDrop},
		},
	}
	for _, ph := range []string{"boundary", "renewal", "completion"} {
		for late, at := range []time.Time{deadline.Add(-time.Nanosecond), deadline} {
			for i, r := range replies {
				name := fmt.Sprintf("%s/%s/late=%v", ph, r.name, late == 1)
				m := machine(ph)
				before := m.up
				got := m.replied(at, r.err)
				if w := want[ph][late][i]; got != w {
					t.Errorf("%s: action %d, want %d", name, got, w)
				}
				switch {
				case r.err == nil:
					if !m.deadline.Equal(at.Add(ttl)) {
						t.Errorf("%s: deadline %v, want renewed to %v", name, m.deadline, at.Add(ttl))
					}
				case fenced(r.err):
					if !reflect.DeepEqual(m.up, Upload{}) {
						t.Errorf("%s: buffer %+v; want it dropped", name, m.up)
					}
				default:
					if !m.deadline.Equal(deadline) || !reflect.DeepEqual(m.up, before) {
						t.Errorf("%s: deadline %v, buffer %+v; want both kept", name, m.deadline, m.up)
					}
				}
			}
		}
	}

	// Clock readings.
	ticks := []struct {
		ph   string
		at   time.Duration
		want action
	}{
		{"renewal", ttl/3 - time.Nanosecond, actNone},
		{"renewal", ttl / 3, actHeartbeat},
		{"renewal", ttl, actDrop},
		{"boundary", ttl / 3, actNone},
		{"completion", ttl / 3, actNone},
		{"completion", ttl, actNone},
	}
	for _, tc := range ticks {
		m := machine(tc.ph)
		if got := m.tick(t0.Add(tc.at)); got != tc.want {
			t.Errorf("%s: tick at %v: action %d, want %d", tc.ph, tc.at, got, tc.want)
		}
	}
	// Failed renewals come every TTL/3 until the deadline, which drops
	// the shard.
	m := machine("renewal")
	for k := 1; k <= 2; k++ {
		at := t0.Add(time.Duration(k) * ttl / 3)
		if a := m.tick(at); a != actHeartbeat {
			t.Fatalf("renewal %d: action %d", k, a)
		}
		if a := m.replied(at, errors.New("connection refused")); a != actNone {
			t.Fatalf("renewal %d failed: action %d", k, a)
		}
	}
	if !m.renewAt.Equal(deadline) || m.tick(deadline) != actDrop {
		t.Fatalf("after two failed renewals: next reading %v, want the deadline %v to drop the shard", m.renewAt, deadline)
	}

	// Chunk outcomes.
	m = machine("renewal")
	if a := m.chunked(full, cp, nil); a != actHeartbeat || m.up.Checkpoint != cp || m.up.Probed != 16 || len(m.up.Responsive) != 1 {
		t.Errorf("full chunk: action %d, upload %+v", a, m.up)
	}
	if a := m.chunked(full, cp, nil); a != actHeartbeat || m.up.Probed != 32 || len(m.up.Responsive) != 1 {
		t.Errorf("second full chunk: action %d, upload %+v; want cumulative counts, merged hosts", a, m.up)
	}
	m = machine("renewal")
	if a := m.chunked(short, cp, nil); a != actComplete || m.up.Checkpoint != nil || m.up.Probed != 5 {
		t.Errorf("short chunk: action %d, upload %+v; want a completion without cursor", a, m.up)
	}
	m = machine("renewal")
	if a := m.chunked(short, cp, context.Canceled); a != actGasp || m.up.Checkpoint != cp || m.up.Probed != 5 {
		t.Errorf("canceled chunk: action %d, upload %+v; want the final upload of the exact cursor", a, m.up)
	}

	// Cancellations outside a chunk: every phase with an unacknowledged
	// buffer asks for the gasp, of the cursor at a boundary and of the
	// completion at the shard's end; a running chunk reports through
	// chunked (above), and a lease that is over sends nothing.
	cancels := []struct {
		ph    string
		prep  func(m *leaseMachine)
		want  action
		final bool
	}{
		{"renewal", func(m *leaseMachine) {}, actNone, false},
		{"boundary", func(m *leaseMachine) {}, actGasp, false},
		{"completion", func(m *leaseMachine) {}, actGasp, true},
		{"completion", func(m *leaseMachine) { m.replied(t0, errors.New("connection refused")) }, actGasp, true}, // waiting to retry
		{"boundary", func(m *leaseMachine) { m.replied(t0, fmt.Errorf("%w: L00000001", ErrLeaseLost)) }, actNone, false},
		{"completion", func(m *leaseMachine) { m.replied(t0, nil) }, actNone, true},
	}
	for i, tc := range cancels {
		m := machine(tc.ph)
		tc.prep(m)
		before := m.up
		if a := m.canceled(); a != tc.want || m.final != tc.final || !reflect.DeepEqual(m.up, before) {
			t.Errorf("cancel %d (%s): action %d final %v, upload %+v; want action %d final %v, buffer kept",
				i, tc.ph, a, m.final, m.up, tc.want, tc.final)
		}
		if a := m.canceled(); tc.want == actGasp && a != actNone {
			t.Errorf("cancel %d (%s): a second cancellation asks for action %d; one gasp is all", i, tc.ph, a)
		}
	}

	inherited := *lease
	inherited.Checkpoint = cp
	if m := newLeaseMachine(&inherited, t0); m.up.Checkpoint != cp {
		t.Errorf("a resumed lease's first renewal would clear the inherited cursor: %+v", m.up)
	}
}

// TestWorkerCanceledMidRPCGasps cancels a real Worker while a boundary
// heartbeat or the completion is out, and that request is lost: the
// worker must still land its results with one final upload under its
// own deadline, the boundary's cursor as a heartbeat, the shard's end
// as its completion.
func TestWorkerCanceledMidRPCGasps(t *testing.T) {
	for _, tc := range []struct {
		route string
		nth   int
	}{{"/heartbeat", 2}, {"/complete", 1}} {
		t.Run(strings.TrimPrefix(tc.route, "/"), func(t *testing.T) {
			clk := newVClock()
			c := mustCoordinator(t, NewMemStore(), clk.Now)
			if err := c.CreateCampaign(faultSpec(1, 1)); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			tr := &memTransport{handler: NewHandler(c), onRequest: func(r *http.Request) error {
				if strings.HasSuffix(r.URL.Path, tc.route) && r.Context().Err() == nil {
					if seen++; seen == tc.nth {
						cancel()
						return context.Canceled
					}
				}
				return nil
			}}
			w := &Worker{Client: newTestClient(tr), ID: "w", Campaign: "camp", ProberAt: faultProberAt,
				Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() }}
			if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
			st, err := c.Status("camp")
			if err != nil {
				t.Fatal(err)
			}
			sh := c.campaigns["camp"].Shards[0]
			switch tc.route {
			case "/heartbeat":
				if sh.State != shardLeased || sh.Checkpoint == nil || sh.CurProbed != 32 {
					t.Fatalf("shard %s with %d probed; want the second chunk's cursor (32 probed) landed", sh.State, sh.CurProbed)
				}
			case "/complete":
				if !st.Done {
					t.Fatalf("campaign not done; the final completion did not land: %+v", st)
				}
			}
		})
	}
}
