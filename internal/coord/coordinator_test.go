package coord

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// vclock is a mutex-guarded virtual clock: lease expiry in these tests
// happens exactly when the test says so, never because a runner was
// slow.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVClock() *vclock {
	return &vclock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testSpec(id string) CampaignSpec {
	return CampaignSpec{
		ID:          id,
		Universe:    []string{"198.51.100.0/28", "198.51.100.16/28", "198.51.100.32/28", "198.51.100.48/28"},
		Phi:         0.9,
		Cycles:      2,
		Shards:      2,
		Workers:     2,
		Seed:        7,
		LeaseTTL:    30 * time.Second,
		ChunkProbes: 16,
	}
}

func mustCoordinator(t *testing.T, store Store, now func() time.Time) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(store, now)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateCampaignValidation(t *testing.T) {
	c := mustCoordinator(t, NewMemStore(), nil)
	cases := []struct {
		name string
		mut  func(*CampaignSpec)
	}{
		{"no id", func(s *CampaignSpec) { s.ID = "" }},
		{"no universe", func(s *CampaignSpec) { s.Universe = nil }},
		{"overlapping universe", func(s *CampaignSpec) { s.Universe = []string{"10.0.0.0/8", "10.1.0.0/16"} }},
		{"bad cidr", func(s *CampaignSpec) { s.Universe = []string{"not-a-prefix"} }},
		{"zero cycles", func(s *CampaignSpec) { s.Cycles = 0 }},
		{"zero shards", func(s *CampaignSpec) { s.Shards = 0 }},
		{"phi out of range", func(s *CampaignSpec) { s.Phi = 1.5 }},
		{"negative rate", func(s *CampaignSpec) { s.Rate = -1 }},
	}
	for _, tc := range cases {
		spec := testSpec("v")
		tc.mut(&spec)
		if err := c.CreateCampaign(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
	if err := c.CreateCampaign(testSpec("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCampaign(testSpec("v")); !errors.Is(err, ErrCampaignExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
}

// TestRestoreClampsNegativeRate: a spec saved before rates were checked
// at creation may carry a negative Rate, which scanners now refuse. The
// restored campaign leases Rate 0 (no global pacing, as before), and a
// worker's scanner accepts the lease.
func TestRestoreClampsNegativeRate(t *testing.T) {
	store := NewMemStore()
	if err := mustCoordinator(t, store, nil).CreateCampaign(testSpec("old")); err != nil {
		t.Fatal(err)
	}
	data, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var st persistentState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st.Campaigns["old"].Spec.Rate = -1
	if data, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(data); err != nil {
		t.Fatal(err)
	}

	c := mustCoordinator(t, store, nil)
	l, _, err := c.Acquire("old", "worker-a")
	if err != nil || l == nil {
		t.Fatalf("acquire = %+v, %v", l, err)
	}
	if l.Rate != 0 {
		t.Fatalf("restored lease rate = %v, want 0", l.Rate)
	}
	plan, err := parsePartition(l.Plan)
	if err != nil {
		t.Fatal(err)
	}
	prober, err := scan.NewSimProber(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scan.New(scan.Config{Targets: plan, Prober: prober, Rate: l.Rate, Shard: l.Shard, Shards: l.Shards}); err != nil {
		t.Fatalf("scanner refused the restored lease: %v", err)
	}
}

// TestLeaseExpiryHandsCheckpointToReplacement is the heart of the
// fault-tolerance story: a lease that dies silently is re-issued to the
// next worker with the dead worker's last uploaded cursor and results.
func TestLeaseExpiryHandsCheckpointToReplacement(t *testing.T) {
	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	if err := c.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}

	l1, done, err := c.Acquire("x", "worker-a")
	if err != nil || done || l1 == nil {
		t.Fatalf("acquire = %+v, %v, %v", l1, done, err)
	}
	if l1.Checkpoint != nil {
		t.Fatal("fresh shard came with a checkpoint")
	}

	// worker-a uploads a cursor, then goes silent.
	cp := &scan.Checkpoint{N: 64, Seed: 7, Shards: 2, Workers: 2, Consumed: []uint64{5, 6}, Shard: l1.Shard}
	found := []netaddr.Addr{netaddr.MustParseAddr("198.51.100.3")}
	if _, err := c.Heartbeat("x", l1.LeaseID, Upload{Checkpoint: cp, Responsive: found, Probed: 11, Errors: 1}); err != nil {
		t.Fatal(err)
	}

	// Before expiry the shard is not re-leasable: a second worker gets
	// the other shard, a third gets nothing.
	l2, _, err := c.Acquire("x", "worker-b")
	if err != nil || l2 == nil || l2.Shard == l1.Shard {
		t.Fatalf("second acquire = %+v, %v", l2, err)
	}
	l3, done, err := c.Acquire("x", "worker-c")
	if err != nil || done || l3 != nil {
		t.Fatalf("exhausted acquire = %+v, %v, %v", l3, done, err)
	}

	// Past the deadline worker-a's shard is re-issued — with its cursor.
	clk.Advance(31 * time.Second)
	l4, _, err := c.Acquire("x", "worker-c")
	if err != nil || l4 == nil {
		t.Fatalf("post-expiry acquire = %+v, %v", l4, err)
	}
	if l4.Shard != l1.Shard {
		t.Fatalf("re-lease got shard %d, want %d (worker-b's shard %d must not move)", l4.Shard, l1.Shard, l2.Shard)
	}
	if l4.Checkpoint == nil || l4.Checkpoint.Consumed[0] != 5 || l4.Checkpoint.Consumed[1] != 6 {
		t.Fatalf("re-lease checkpoint = %+v, want worker-a's cursor", l4.Checkpoint)
	}
	if l4.LeaseID == l1.LeaseID {
		t.Fatal("re-lease reused the dead lease ID: fencing impossible")
	}

	// The dead lease is fenced: worker-a coming back from the partition
	// must get ErrLeaseLost on every verb, and its buffered upload must
	// not be double-counted.
	if _, err := c.Heartbeat("x", l1.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat err = %v, want ErrLeaseLost", err)
	}
	if err := c.Complete("x", l1.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale complete err = %v, want ErrLeaseLost", err)
	}
	// worker-b expired too (same clock) — advance was global. worker-b's
	// shard went back to pending; re-acquire works.
	if _, err := c.Heartbeat("x", l2.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("worker-b heartbeat err = %v, want ErrLeaseLost (also expired)", err)
	}

	// A lease ID never issued is unknown, not lost.
	if _, err := c.Heartbeat("x", "L99999999", Upload{}); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("unknown lease err = %v, want ErrUnknownLease", err)
	}
}

// TestRenewalKeepsLeaseAlive: heartbeats move the deadline; a renewed
// lease survives arbitrarily long.
func TestRenewalKeepsLeaseAlive(t *testing.T) {
	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	if err := c.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}
	l, _, err := c.Acquire("x", "w")
	if err != nil || l == nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(20 * time.Second) // inside the 30s TTL every time
		if _, err := c.Heartbeat("x", l.LeaseID, Upload{Probed: uint64(i)}); err != nil {
			t.Fatalf("renewal %d failed: %v", i, err)
		}
	}
	clk.Advance(31 * time.Second) // now let it lapse
	if _, err := c.Heartbeat("x", l.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("post-lapse heartbeat err = %v, want ErrLeaseLost", err)
	}
}

// TestCycleCompletionReseeds: completing every shard of a cycle merges
// results, runs the selection, and opens the next cycle on the
// tightened plan; the last cycle finishes the campaign.
func TestCycleCompletionReseeds(t *testing.T) {
	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	spec := testSpec("x") // 4 /28s, φ=0.9, 2 cycles, 2 shards
	if err := c.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}
	// All responsive hosts live in the first /28: the selection must
	// tighten the plan to (at least mostly) that prefix.
	dense := []netaddr.Addr{
		netaddr.MustParseAddr("198.51.100.1"),
		netaddr.MustParseAddr("198.51.100.2"),
		netaddr.MustParseAddr("198.51.100.3"),
		netaddr.MustParseAddr("198.51.100.4"),
	}
	la, _, _ := c.Acquire("x", "a")
	lb, _, _ := c.Acquire("x", "b")
	if la == nil || lb == nil {
		t.Fatal("acquires failed")
	}
	if err := c.Complete("x", la.LeaseID, Upload{Responsive: dense[:2], Probed: 32}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 0 || len(st.History) != 0 {
		t.Fatalf("cycle advanced with a shard outstanding: %+v", st)
	}
	if err := c.Complete("x", lb.LeaseID, Upload{Responsive: dense[2:], Probed: 32}); err != nil {
		t.Fatal(err)
	}
	st, err = c.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1 {
		t.Fatalf("cycle = %d after full completion, want 1", st.Cycle)
	}
	if len(st.History) != 1 || st.History[0].Responsive != 4 || st.History[0].Probed != 64 {
		t.Fatalf("history = %+v", st.History)
	}
	if len(st.Plan) == 0 || len(st.Plan) >= 4 {
		t.Fatalf("cycle-1 plan %v, want a tightened selection", st.Plan)
	}
	for _, p := range st.Plan {
		if !strings.HasPrefix(p, "198.51.100.") {
			t.Fatalf("plan prefix %s outside universe", p)
		}
	}
	// Cycle 1 (the last): complete both shards, campaign done.
	la, _, _ = c.Acquire("x", "a")
	lb, _, _ = c.Acquire("x", "b")
	if la.Cycle != 1 || lb.Cycle != 1 {
		t.Fatalf("cycle-1 leases = %d, %d", la.Cycle, lb.Cycle)
	}
	if err := c.Complete("x", la.LeaseID, Upload{Responsive: dense[:1], Probed: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("x", lb.LeaseID, Upload{Responsive: dense[1:3], Probed: 8}); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Status("x")
	if !st.Done {
		t.Fatalf("campaign not done: %+v", st)
	}
	if len(st.Responsive) != 3 {
		t.Fatalf("final responsive = %d, want 3", len(st.Responsive))
	}
	if _, done, err := c.Acquire("x", "a"); err != nil || !done {
		t.Fatalf("post-done acquire = done=%v err=%v", done, err)
	}
}

// TestCoordinatorRestartResumesLeases is acceptance criterion (b) at
// the state-machine level: a coordinator rebuilt from the durable store
// honors leases its predecessor issued, mid-campaign, mid-cycle.
func TestCoordinatorRestartResumesLeases(t *testing.T) {
	clk := newVClock()
	store := NewFileStore(t.TempDir() + "/state")
	c1 := mustCoordinator(t, store, clk.Now)
	if err := c1.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}
	la, _, _ := c1.Acquire("x", "a")
	lb, _, _ := c1.Acquire("x", "b")
	cp := &scan.Checkpoint{N: 64, Seed: 7, Shard: la.Shard, Shards: 2, Workers: 2, Consumed: []uint64{3, 4}}
	if _, err := c1.Heartbeat("x", la.LeaseID, Upload{Checkpoint: cp, Probed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Complete("x", lb.LeaseID, Upload{
		Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.20")},
		Probed:     32,
	}); err != nil {
		t.Fatal(err)
	}

	// The process dies here. A new coordinator loads the same store.
	c2 := mustCoordinator(t, store, clk.Now)
	st, err := c2.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 0 || st.Done {
		t.Fatalf("restarted status = %+v", st)
	}
	var leased, doneShards int
	for _, sh := range st.Shards {
		switch sh.State {
		case shardLeased:
			leased++
			if sh.LeaseID != la.LeaseID || sh.Worker != "a" || !sh.Resumable {
				t.Fatalf("restarted shard = %+v, want worker-a's live lease with cursor", sh)
			}
		case shardDone:
			doneShards++
		}
	}
	if leased != 1 || doneShards != 1 {
		t.Fatalf("restarted shards = %+v", st.Shards)
	}
	// worker-a never noticed the restart: its renewal lands on c2.
	if _, err := c2.Heartbeat("x", la.LeaseID, Upload{Checkpoint: cp, Probed: 9}); err != nil {
		t.Fatalf("heartbeat across restart: %v", err)
	}
	if err := c2.Complete("x", la.LeaseID, Upload{
		Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.5")},
		Probed:     32,
	}); err != nil {
		t.Fatalf("complete across restart: %v", err)
	}
	st, _ = c2.Status("x")
	if st.Cycle != 1 {
		t.Fatalf("cycle after restart-complete = %d, want 1", st.Cycle)
	}
	// Lease IDs keep counting up across the restart — no reuse, fencing
	// intact.
	lc, _, _ := c2.Acquire("x", "c")
	if lc == nil || lc.LeaseID == la.LeaseID || lc.LeaseID == lb.LeaseID {
		t.Fatalf("post-restart lease = %+v, reuses an old ID", lc)
	}
}

// TestEmptySelectionFinishesEarly: a cycle that finds nothing selects
// nothing; the campaign ends with a note instead of leasing an empty
// plan forever.
func TestEmptySelectionFinishesEarly(t *testing.T) {
	c := mustCoordinator(t, NewMemStore(), newVClock().Now)
	spec := testSpec("x")
	spec.Shards = 1
	if err := c.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}
	l, _, _ := c.Acquire("x", "a")
	if err := c.Complete("x", l.LeaseID, Upload{Probed: 64}); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Status("x")
	if !st.Done || st.Note == "" {
		t.Fatalf("empty-result campaign not finished early: %+v", st)
	}
}

// TestCompleteReseedFailureRollsBack: when the last shard of a cycle
// completes but reseeding the next cycle fails (here: every responsive
// host lies outside the universe, so the seeder has nothing to plan
// from), the coordinator must leave the shard exactly as it was — in
// memory AND in the durable store — so the worker's retry is not fenced
// off with ErrLeaseLost and the campaign cannot wedge.
func TestCompleteReseedFailureRollsBack(t *testing.T) {
	clk := newVClock()
	store := NewFileStore(filepath.Join(t.TempDir(), "coord.json"))
	c := mustCoordinator(t, store, clk.Now)
	if err := c.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}
	la, _, err := c.Acquire("x", "wa")
	if err != nil || la == nil {
		t.Fatalf("acquire a: %+v, %v", la, err)
	}
	lb, _, err := c.Acquire("x", "wb")
	if err != nil || lb == nil {
		t.Fatalf("acquire b: %+v, %v", lb, err)
	}
	if err := c.Complete("x", la.LeaseID, Upload{Probed: 32}); err != nil {
		t.Fatalf("complete a: %v", err)
	}

	// Out-of-universe responsive host: cycle finishes, reseed cannot.
	bad := Upload{
		Responsive: []netaddr.Addr{netaddr.MustParseAddr("203.0.113.5")},
		Probed:     32,
	}
	if err := c.Complete("x", lb.LeaseID, bad); err == nil {
		t.Fatal("complete with un-seedable snapshot unexpectedly succeeded")
	}

	check := func(c *Coordinator, label string) {
		st, err := c.Status("x")
		if err != nil {
			t.Fatalf("%s: status: %v", label, err)
		}
		if st.Done || st.Cycle != 0 || len(st.History) != 0 {
			t.Fatalf("%s: cycle advanced despite reseed failure: %+v", label, st)
		}
		var sb *ShardStatus
		for i := range st.Shards {
			if st.Shards[i].Index == lb.Shard {
				sb = &st.Shards[i]
			}
		}
		if sb == nil || sb.State != shardLeased || sb.LeaseID != lb.LeaseID {
			t.Fatalf("%s: shard b not still leased under %s: %+v", label, lb.LeaseID, sb)
		}
	}
	check(c, "in-memory")
	// The durable store must agree: a restarted coordinator sees the
	// same pre-failure state.
	check(mustCoordinator(t, store, clk.Now), "restarted")

	// A corrected retry under the SAME lease succeeds and advances the
	// cycle — the failed attempt did not burn the lease.
	good := Upload{
		Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.2")},
		Probed:     32,
	}
	if err := c.Complete("x", lb.LeaseID, good); err != nil {
		t.Fatalf("retry complete: %v", err)
	}
	st, err := c.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1 || len(st.History) != 1 {
		t.Fatalf("retry did not advance cycle: %+v", st)
	}
}
