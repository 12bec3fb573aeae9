package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// The seeded schedule explorer drives the live coordinator and the
// verbatim reference (reference_test.go) through the same random
// schedule over a virtual clock: campaign creation, acquires by several
// workers, heartbeats with growing cumulative uploads, completions,
// clock jumps past the lease TTL, stale and bogus lease IDs, and
// coordinator restarts from the durable store. After every step it
// asserts the replies agree and the invariants hold. A failing seed
// replays alone: go test -run 'TestScheduleExplorer/seed=17$'.
const (
	explorerSeeds = 300
	explorerSteps = 80
)

// explorerUniverse is four /28s: small enough that selections tighten
// and cycles turn within a schedule.
var explorerUniverse = []string{"198.51.100.0/28", "198.51.100.16/28", "198.51.100.32/28", "198.51.100.48/28"}

// explorerWorker is one simulated fleet member: the lease it believes
// it holds and its cumulative upload under that lease.
type explorerWorker struct {
	id    string
	lease *Lease
	found map[netaddr.Addr]bool
	up    Upload
}

// explorer holds one schedule's world: both coordinators, their stores,
// the shared clock and the workers.
type explorer struct {
	t        *testing.T
	rng      *rand.Rand
	clk      *vclock
	store    *MemStore
	refStore *MemStore
	live     *Coordinator
	ref      *refCoordinator
	workers  []*explorerWorker
	hostless map[string]bool // campaigns whose workers never find a host
	issued   map[string]bool // every lease ID ever granted
	stale    []*Lease        // leases their workers dropped
	step     int
	op       string
	seen     map[string]int // how often each interesting event happened
}

func (x *explorer) fail(format string, args ...any) {
	x.t.Helper()
	x.t.Fatalf("step %d (%s): %s", x.step, x.op, fmt.Sprintf(format, args...))
}

func TestScheduleExplorer(t *testing.T) {
	seen := map[string]int{}
	ran := 0
	for seed := int64(1); seed <= explorerSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			exploreSchedule(t, seed, seen)
		})
	}
	// The schedules must reach every transition the invariants guard,
	// or a passing run proves little. A replay of some seeds is not held
	// to that.
	t.Logf("events over %d schedules: %v", ran, seen)
	if t.Failed() || ran < explorerSeeds {
		return
	}
	for _, ev := range []string{"lease lost", "unknown lease", "unknown campaign", "resumed lease",
		"cycle turned", "campaign done", "found nothing", "selected nothing"} {
		if seen[ev] == 0 {
			t.Errorf("no schedule reached %q; seen %v", ev, seen)
		}
	}
}

func exploreSchedule(t *testing.T, seed int64, seen map[string]int) {
	x := &explorer{
		seen:     seen,
		t:        t,
		rng:      rand.New(rand.NewSource(seed)),
		clk:      newVClock(),
		store:    NewMemStore(),
		refStore: NewMemStore(),
		hostless: map[string]bool{},
		issued:   map[string]bool{},
	}
	x.restart()
	for k := 0; k < 1+x.rng.Intn(3); k++ {
		x.workers = append(x.workers, &explorerWorker{id: fmt.Sprintf("w%d", k)})
	}
	x.op = "create"
	x.create("a")
	x.check()
	for x.step = 1; x.step <= explorerSteps; x.step++ {
		switch r := x.rng.Intn(100); {
		case r < 5:
			x.op = "create"
			x.create([]string{"a", "b"}[x.rng.Intn(2)])
		case r < 30:
			x.op = "acquire"
			x.acquire()
		case r < 52:
			x.op = "heartbeat"
			x.upload(false)
		case r < 72:
			x.op = "complete"
			x.upload(true)
		case r < 77:
			x.op = "stale upload"
			x.staleUpload()
		case r < 82:
			x.op = "status"
			x.status(x.campaignID())
		case r < 90:
			x.op = "tick"
			x.clk.Advance(time.Duration(1+x.rng.Intn(10)) * time.Second)
		case r < 95:
			x.op = "expire"
			x.clk.Advance(31 * time.Second)
		default:
			x.op = "restart"
			x.restart()
		}
		x.check()
	}
}

// restart rebuilds both coordinators from their durable stores.
func (x *explorer) restart() {
	var err error
	if x.live, err = NewCoordinator(x.store, x.clk.Now); err != nil {
		x.fail("live restart: %v", err)
	}
	if x.ref, err = newRefCoordinator(x.refStore, x.clk.Now); err != nil {
		x.fail("reference restart: %v", err)
	}
}

// campaignID picks a campaign, now and then one that does not exist.
func (x *explorer) campaignID() string {
	return []string{"a", "a", "b", "b", "zz"}[x.rng.Intn(5)]
}

func (x *explorer) create(id string) {
	spec := CampaignSpec{
		ID:          id,
		Universe:    explorerUniverse,
		Phi:         []float64{0.5, 0.9, 1}[x.rng.Intn(3)],
		Cycles:      1 + x.rng.Intn(3),
		Shards:      1 + x.rng.Intn(3),
		Workers:     2,
		Seed:        x.rng.Int63n(1000),
		LeaseTTL:    30 * time.Second,
		ChunkProbes: 16,
	}
	switch x.rng.Intn(6) {
	case 0:
		spec.Targets = explorerUniverse[1:3]
	case 1:
		spec.MinDensity = 0.3 // may select nothing: the early finish
	case 2:
		spec.Exclude = []string{"198.51.100.60/30"}
	}
	if _, exists := x.live.campaigns[id]; !exists {
		x.hostless[id] = x.rng.Intn(5) == 0
	}
	errL := x.live.CreateCampaign(spec)
	errR := x.ref.CreateCampaign(spec)
	x.sameErr(errL, errR)
}

func (x *explorer) acquire() {
	w := x.workers[x.rng.Intn(len(x.workers))]
	id := x.campaignID()
	if w.lease != nil {
		// A worker that re-acquires while holding a lease crashed and
		// came back: its old lease lingers until it expires.
		x.stale = append(x.stale, w.lease)
		w.lease = nil
	}
	leaseL, doneL, errL := x.live.Acquire(id, w.id)
	leaseR, doneR, errR := x.ref.Acquire(id, w.id)
	x.sameErr(errL, errR)
	if doneL != doneR || !reflect.DeepEqual(leaseL, leaseR) {
		x.fail("acquire: live (%+v, %v), reference (%+v, %v)", leaseL, doneL, leaseR, doneR)
	}
	if leaseL == nil {
		return
	}
	if x.issued[leaseL.LeaseID] {
		x.fail("lease ID %s granted twice", leaseL.LeaseID)
	}
	x.issued[leaseL.LeaseID] = true
	if leaseL.Checkpoint != nil {
		x.seen["resumed lease"]++
	}
	w.lease, w.found, w.up = leaseL, map[netaddr.Addr]bool{}, Upload{}
}

// grow extends w's cumulative upload: a few more probes, maybe a few
// more hosts from its lease's plan, and a fresh cursor.
func (x *explorer) grow(w *explorerWorker) {
	n := uint64(1 + x.rng.Intn(16))
	w.up.Probed += n
	w.up.Errors += uint64(x.rng.Intn(2))
	if !x.hostless[w.lease.Campaign] {
		plan, err := parsePartition(w.lease.Plan)
		if err != nil {
			x.fail("lease plan: %v", err)
		}
		for k := x.rng.Intn(4); k > 0; k-- {
			p := plan.Prefix(x.rng.Intn(plan.Len()))
			w.found[p.First()+netaddr.Addr(x.rng.Intn(1<<(32-p.Bits())))] = true
		}
	}
	w.up.Responsive = w.up.Responsive[:0:0]
	for a := range w.found {
		w.up.Responsive = append(w.up.Responsive, a)
	}
	slices.Sort(w.up.Responsive)
	w.up.Checkpoint = &scan.Checkpoint{
		N: 64, Seed: w.lease.Seed, Shard: w.lease.Shard, Shards: w.lease.Shards,
		Workers: w.lease.Workers, Consumed: []uint64{w.up.Probed, w.up.Probed / 2},
	}
}

// upload sends a heartbeat, or a completion, for a worker's lease.
func (x *explorer) upload(complete bool) {
	var holders []*explorerWorker
	for _, w := range x.workers {
		if w.lease != nil {
			holders = append(holders, w)
		}
	}
	if len(holders) == 0 {
		x.op = "acquire"
		x.acquire()
		return
	}
	w := holders[x.rng.Intn(len(holders))]
	x.grow(w)
	up := w.up
	if complete {
		up.Checkpoint = nil
	}
	err := x.send(w.lease, up, complete)
	if err != nil || complete {
		if err != nil && !fenced(err) {
			x.fail("upload refused with %v", err)
		}
		if err != nil {
			x.stale = append(x.stale, w.lease)
		}
		w.lease = nil
	}
}

// staleUpload replays a dropped lease or sends a never-issued one.
func (x *explorer) staleUpload() {
	lease := &Lease{Campaign: x.campaignID(), LeaseID: "L99999999"}
	if len(x.stale) > 0 && x.rng.Intn(4) > 0 {
		lease = x.stale[x.rng.Intn(len(x.stale))]
	}
	up := Upload{Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")}, Probed: 1}
	x.send(lease, up, x.rng.Intn(2) == 0)
}

// send delivers one upload to both coordinators and checks that a
// refused (fenced) upload changed nothing but what reclaiming expired
// leases — a plain Status — changes.
func (x *explorer) send(lease *Lease, up Upload, complete bool) error {
	readOnly := x.readOnlyEffect(lease.Campaign)
	var errL, errR error
	var dlL, dlR time.Time
	if complete {
		errL = x.live.Complete(lease.Campaign, lease.LeaseID, up)
		errR = x.ref.Complete(lease.Campaign, lease.LeaseID, up)
	} else {
		dlL, errL = x.live.Heartbeat(lease.Campaign, lease.LeaseID, up)
		dlR, errR = x.ref.Heartbeat(lease.Campaign, lease.LeaseID, up)
	}
	x.sameErr(errL, errR)
	for ev, s := range map[string]error{"lease lost": ErrLeaseLost, "unknown lease": ErrUnknownLease, "unknown campaign": ErrUnknownCampaign} {
		if errors.Is(errL, s) {
			x.seen[ev]++
		}
	}
	if !dlL.Equal(dlR) {
		x.fail("heartbeat deadline: live %v, reference %v", dlL, dlR)
	}
	if fenced(errL) && !bytes.Equal(memoryBytes(x.t, x.live), readOnly) {
		x.fail("fenced upload of %s changed the state beyond lease expiry", lease.LeaseID)
	}
	return errL
}

// readOnlyEffect is the state the live coordinator would reach from
// here by reading campaign id: a clone from the store, one Status.
func (x *explorer) readOnlyEffect(id string) []byte {
	clone := x.reload()
	clone.Status(id)
	return memoryBytes(x.t, clone)
}

// reload builds a fresh coordinator over a copy of the live store.
func (x *explorer) reload() *Coordinator {
	cp := NewMemStore()
	if data, err := x.store.Load(); err == nil {
		cp.Save(data)
	}
	c, err := NewCoordinator(cp, x.clk.Now)
	if err != nil {
		x.fail("reload: %v", err)
	}
	return c
}

// status compares both coordinators' Status replies.
func (x *explorer) status(id string) *Status {
	stL, errL := x.live.Status(id)
	stR, errR := x.ref.Status(id)
	x.sameErr(errL, errR)
	if errL != nil {
		return nil
	}
	x.sameStatus(stL, stR, "reference")
	switch {
	case strings.Contains(stL.Note, "found no"):
		x.seen["found nothing"]++
	case strings.Contains(stL.Note, "selected no"):
		x.seen["selected nothing"]++
	case stL.Done:
		x.seen["campaign done"]++
	case stL.Cycle > 0:
		x.seen["cycle turned"]++
	}
	return stL
}

// sameStatus compares a live Status with another's. The live
// coordinator's final-cycle summary also carries the selection the
// cycle machine drew; the reference leaves it zero.
func (x *explorer) sameStatus(live, other *Status, label string) {
	x.t.Helper()
	if label == "reference" {
		cp := *live
		cp.History = slices.Clone(live.History)
		for i := range cp.History {
			if h := &cp.History[i]; h.Cycle == cp.Cycles-1 {
				h.Selected, h.SpaceShare = 0, 0
			}
		}
		live = &cp
	}
	if !reflect.DeepEqual(live, other) {
		x.fail("status diverged from the %s:\nlive  %+v\nother %+v", label, live, other)
	}
}

func (x *explorer) sameErr(live, ref error) {
	x.t.Helper()
	if (live == nil) != (ref == nil) || (live != nil && live.Error() != ref.Error()) {
		x.fail("errors diverged: live %v, reference %v", live, ref)
	}
	for _, s := range []error{ErrUnknownCampaign, ErrUnknownLease, ErrLeaseLost, ErrCampaignExists, ErrInvalidSpec} {
		if errors.Is(live, s) != errors.Is(ref, s) {
			x.fail("error kinds diverged: live %v, reference %v", live, ref)
		}
	}
}

// check asserts the invariants after a step: memory equals the store,
// no lease ID is held twice or was never granted, and, per campaign,
// the live Status equals the reference's and a coordinator reloaded
// from the store answers the same. Status reclaims expired leases, so
// the Status checks skip clock steps: the next step then meets the
// expiry on its own path (an acquire, a fenced upload), as in a real
// schedule.
func (x *explorer) check() {
	x.t.Helper()
	assertMemoryMatchesStore(x.t, x.live, x.store)
	held := map[string]bool{}
	for _, cs := range x.live.campaigns {
		for _, sh := range cs.Shards {
			if sh.State != shardLeased {
				continue
			}
			if held[sh.LeaseID] || !x.issued[sh.LeaseID] {
				x.fail("lease %s held twice or never granted", sh.LeaseID)
			}
			held[sh.LeaseID] = true
		}
	}
	if x.op == "tick" || x.op == "expire" {
		return
	}
	for _, id := range []string{"a", "b"} {
		st := x.status(id)
		if st == nil {
			continue
		}
		assertMemoryMatchesStore(x.t, x.live, x.store)
		again, err := x.reload().Status(id)
		if err != nil {
			x.fail("reloaded status: %v", err)
		}
		x.sameStatus(st, again, "reloaded coordinator")
	}
}

// memoryBytes is the coordinator's in-memory state, marshalled exactly
// as saveLocked marshals it.
func memoryBytes(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	data, err := json.Marshal(persistentState{Version: 1, NextLease: c.nextLease, Campaigns: c.campaigns})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertMemoryMatchesStore requires the re-marshalled memory to equal
// the last saved blob byte for byte.
func assertMemoryMatchesStore(t *testing.T, c *Coordinator, store Store) {
	t.Helper()
	saved, err := store.Load()
	if err == ErrNoState && len(c.campaigns) == 0 && c.nextLease == 0 {
		return
	}
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if mem := memoryBytes(t, c); !bytes.Equal(mem, saved) {
		t.Fatalf("memory diverged from the durable store:\nmemory %s\nstore  %s", mem, saved)
	}
}

// TestMemoryMatchesStoreAfterEveryCall walks one campaign through every
// public call, past a lease expiry that only Status and fenced uploads
// observe, and requires memory to equal the store after each call.
func TestMemoryMatchesStoreAfterEveryCall(t *testing.T) {
	clk := newVClock()
	store := NewMemStore()
	c := mustCoordinator(t, store, clk.Now)
	check := func(label string) {
		t.Helper()
		t.Run(label, func(t *testing.T) { assertMemoryMatchesStore(t, c, store) })
	}
	if err := c.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}
	check("create")
	la, _, _ := c.Acquire("x", "a")
	lb, _, _ := c.Acquire("x", "b")
	check("acquire")
	if _, err := c.Heartbeat("x", la.LeaseID, Upload{Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")}, Probed: 5}); err != nil {
		t.Fatal(err)
	}
	check("heartbeat")
	clk.Advance(31 * time.Second)
	if _, err := c.Status("x"); err != nil {
		t.Fatal(err)
	}
	check("status past the TTL")
	if _, err := c.Heartbeat("x", lb.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("expired heartbeat err = %v", err)
	}
	check("fenced heartbeat")
	if err := c.Complete("x", la.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("expired complete err = %v", err)
	}
	check("fenced complete")
	for _, w := range []string{"a", "b"} {
		l, _, err := c.Acquire("x", w)
		if err != nil || l == nil {
			t.Fatalf("re-acquire: %+v, %v", l, err)
		}
		clk.Advance(31 * time.Second)
		if _, err := c.Heartbeat("x", l.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("expired heartbeat err = %v", err)
		}
		check("fenced heartbeat after re-lease")
	}
	for cycle := 0; cycle < 2; cycle++ {
		for _, w := range []string{"a", "b"} {
			l, _, err := c.Acquire("x", w)
			if err != nil || l == nil {
				t.Fatalf("cycle %d acquire: %+v, %v", cycle, l, err)
			}
			if err := c.Complete("x", l.LeaseID, Upload{Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.2")}, Probed: 32}); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("cycle %d complete", cycle))
		}
	}
	if st, _ := c.Status("x"); !st.Done {
		t.Fatalf("campaign not done: %+v", st)
	}
	check("done")
}
