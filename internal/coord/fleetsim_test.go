package coord

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// The fleet simulation runs one coordinator and a fleet of workers'
// lease machines (leaseMachine, the logic Worker.Run drives) through
// one seeded schedule on a virtual clock. Every request goes over the
// in-process memTransport, where the schedule drops requests before the
// coordinator sees them and replies after it ran; the coordinator
// crashes and reloads from its store (a MemStore or a FileStore);
// workers die mid-chunk, with or without their final cursor upload.
// Time moves only in idle polls and probes, and every renewal fires at
// the virtual instant it is due. After every step memory must equal the
// store and no lease ID may be held by two live machines; at the end
// every address of every cycle must have been probed exactly once
// (probes a dead worker never had acknowledged may be repeated, and
// only those), and each cycle must equal the single-node scan.Campaign's.
// A failing seed replays alone: go test -run 'TestFleetSim/seed=N$'.
const (
	fleetSimSeeds = 24
	fleetSimSteps = 20000
	fleetSimPoll  = 2 * time.Second
)

// simConfig is one schedule's fleet and fault mix.
type simConfig struct {
	workers, shards, cycles int
	ttl                     time.Duration
	chunk                   uint64
	fileStore               bool
	probeCost               time.Duration // virtual time per probe
	// dropRequest and dropReply decide per request whether the network
	// loses it before the coordinator, or its reply after.
	dropRequest, dropReply func(s *fleetSim, r *http.Request) bool
	// crash, asked before each step, returns how many request attempts
	// the coordinator stays down before it reloads from its store.
	crash func(s *fleetSim) int
	// kill, asked at each probe, decides whether the prober dies there,
	// and whether hard (no final cursor upload).
	kill func(s *fleetSim, w *simWorker) (kill, hard bool)
	// revive brings killed workers back as fresh processes.
	revive bool
}

// simWorker is one incarnation of a fleet member: a process that holds
// at most one lease machine at a time.
type simWorker struct {
	id      string
	w       *Worker // its client, prober and scanner construction
	at      time.Time
	m       *leaseMachine
	scanner *scan.Scanner
	next    action
	cancel  context.CancelFunc // of the running chunk
	dropped bool               // a renewal dropped the running chunk's lease
	killed  bool               // the process dies at the end of the chunk
	hard    bool               // ... without a final upload
	dead    bool
	done    bool
	probes  int
	// unacked lists the probes under the current lease that no
	// acknowledged upload covers yet; the first inUp of them are in the
	// machine's upload.
	unacked []simProbe
	inUp    int
}

type simProbe struct {
	cycle int
	addr  netaddr.Addr
}

// fleetSim is one schedule's world.
type fleetSim struct {
	t       *testing.T
	rng     *rand.Rand
	cfg     simConfig
	clk     *vclock
	store   Store
	c       *Coordinator
	tr      *memTransport
	workers []*simWorker
	log     *probeLog // every probe
	excess  *probeLog // probes a lossy end left unacknowledged
	reqs    int
	down    int
	step    int
	seen    map[string]int
}

func (s *fleetSim) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("step %d: %s", s.step, fmt.Sprintf(format, args...))
}

// fleetScenarios are the named seeds: the scenarios of the wall-clock
// fault tests they replaced.
var fleetScenarios = []struct {
	name  string
	cfg   func() simConfig
	check func(s *fleetSim, st *Status)
}{{
	// A worker killed mid-chunk uploads its exact cursor on the way
	// out; its lease expires, the survivor inherits the shard with that
	// cursor, and every address is still probed exactly once.
	name: "killed",
	cfg: func() simConfig {
		return simConfig{workers: 2, shards: 2, cycles: 3, ttl: 30 * time.Second, chunk: 16,
			kill: func(s *fleetSim, w *simWorker) (bool, bool) { return w.id == "w0" && w.probes == 40, false }}
	},
	check: func(s *fleetSim, st *Status) {
		if st.History[0].Releases != 3 {
			s.t.Errorf("cycle 0 lease grants = %d, want 3 (two shards + one re-lease after the kill)", st.History[0].Releases)
		}
		if s.seen["final upload"] != 1 || s.seen["resume"] == 0 {
			s.t.Errorf("the dead worker's cursor was not handed over: %v", s.seen)
		}
	},
}, {
	// The coordinator crashes at the 4th heartbeat and stays down for
	// more attempts than a call retries; the worker scans on offline,
	// the coordinator reloads from its state file and honors the
	// original lease.
	name: "crash-restart",
	cfg: func() simConfig {
		heartbeats := 0
		return simConfig{workers: 1, shards: 1, cycles: 2, ttl: 30 * time.Second, chunk: 16, fileStore: true,
			dropRequest: func(s *fleetSim, r *http.Request) bool {
				if strings.HasSuffix(r.URL.Path, "/heartbeat") {
					if heartbeats++; heartbeats == 4 {
						s.down = 2*maxRetries - 2
					}
				}
				return false
			}}
	},
	check: func(s *fleetSim, st *Status) {
		if s.seen["restart"] != 1 || s.seen["offline"] == 0 {
			s.t.Errorf("the worker never scanned offline across a coordinator restart: %v", s.seen)
		}
		for i, h := range st.History {
			if h.Releases != 1 {
				s.t.Errorf("cycle %d lease grants = %d, want 1: the restart must honor the original lease", i, h.Releases)
			}
		}
		if s.seen["drop"] != 0 {
			s.t.Errorf("the worker lost its lease across the coordinator restart: %v", s.seen)
		}
	},
}, {
	// Every 11th request is lost before the coordinator and every 7th
	// reply after it: client retries, idempotent uploads and fencing
	// still deliver every address once.
	name: "flaky",
	cfg: func() simConfig {
		return simConfig{workers: 1, shards: 2, cycles: 2, ttl: 30 * time.Second, chunk: 16,
			dropRequest: func(s *fleetSim, r *http.Request) bool { return s.reqs%11 == 0 },
			dropReply:   func(s *fleetSim, r *http.Request) bool { return s.reqs%7 == 0 }}
	},
	check: func(s *fleetSim, st *Status) {
		if s.seen["request dropped"] == 0 || s.seen["reply dropped"] == 0 {
			s.t.Errorf("no faults fired: %v", s.seen)
		}
	},
}, {
	// Each probe takes 5 virtual seconds, so the shard's one chunk runs
	// 1280 s against a 30 s TTL: renewals alone keep the lease.
	name: "slow-chunk",
	cfg: func() simConfig {
		return simConfig{workers: 1, shards: 1, cycles: 1, ttl: 30 * time.Second, chunk: 4096, probeCost: 5 * time.Second}
	},
	check: func(s *fleetSim, st *Status) {
		if st.History[0].Releases != 1 || s.seen["drop"] != 0 {
			s.t.Errorf("lease grants = %d, events %v: the slow chunk cost the worker its lease", st.History[0].Releases, s.seen)
		}
		if s.seen["renewal"] == 0 {
			s.t.Error("no renewal fired; the seed proved nothing")
		}
	},
}}

// randomSimConfig draws a fleet and fault mix from the seed.
func randomSimConfig(rng *rand.Rand) simConfig {
	pick := func(ps ...float64) float64 { return ps[rng.Intn(len(ps))] }
	pReq, pReply, pKill := pick(0, 0.03, 0.1), pick(0, 0.03, 0.1), pick(0, 0.005, 0.02)
	return simConfig{
		workers:   1 + rng.Intn(3),
		shards:    1 + rng.Intn(3),
		cycles:    1 + rng.Intn(3),
		ttl:       []time.Duration{5 * time.Second, 30 * time.Second}[rng.Intn(6)%2],
		chunk:     []uint64{16, 32, 64}[rng.Intn(3)],
		fileStore: rng.Float64() < 0.15,
		probeCost: []time.Duration{0, 25 * time.Millisecond, 100 * time.Millisecond}[rng.Intn(3)],
		revive:    true,
		dropRequest: func(s *fleetSim, r *http.Request) bool {
			return s.rng.Float64() < pReq
		},
		dropReply: func(s *fleetSim, r *http.Request) bool {
			return s.rng.Float64() < pReply
		},
		crash: func(s *fleetSim) int {
			if s.rng.Intn(80) == 0 {
				return 1 + s.rng.Intn(10*maxRetries)
			}
			return 0
		},
		kill: func(s *fleetSim, w *simWorker) (bool, bool) {
			return s.rng.Float64() < pKill, s.rng.Float64() < 0.5
		},
	}
}

func TestFleetSim(t *testing.T) {
	single, singleLog := runSingleNode(t, 3)
	seen := map[string]int{}
	ran := 0
	for _, sc := range fleetScenarios {
		t.Run("seed="+sc.name, func(t *testing.T) {
			ran++
			cfg := sc.cfg()
			s := runFleetSim(t, 1, cfg, single, singleLog, seen)
			st, err := s.c.Status("camp")
			if err != nil {
				t.Fatal(err)
			}
			// No named seed loses a cursor: every address exactly once.
			assertMatchesSingleNode(t, st, s.log, nil, single[:cfg.cycles], singleLog)
			sc.check(s, st)
		})
	}
	for seed := int64(1); seed <= fleetSimSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			runFleetSim(t, seed, randomSimConfig(rand.New(rand.NewSource(seed))), single, singleLog, seen)
		})
	}
	// The schedules must reach every fault the invariants guard, or a
	// passing run proves little. A replay of some seeds is not held to
	// that.
	t.Logf("events over %d schedules: %v", ran, seen)
	if t.Failed() || ran < len(fleetScenarios)+fleetSimSeeds {
		return
	}
	for _, ev := range []string{"request dropped", "reply dropped", "restart", "offline", "renewal",
		"final upload", "hard kill", "resume", "fenced", "abandon"} {
		if seen[ev] == 0 {
			t.Errorf("no schedule reached %q; seen %v", ev, seen)
		}
	}
}

// runFleetSim runs one schedule to the campaign's end and audits it
// against the single-node run.
func runFleetSim(t *testing.T, seed int64, cfg simConfig, single []scan.Cycle, singleLog *probeLog, seen map[string]int) *fleetSim {
	s := &fleetSim{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		cfg:    cfg,
		clk:    newVClock(),
		store:  NewMemStore(),
		log:    newProbeLog(),
		excess: newProbeLog(),
		seen:   map[string]int{},
	}
	defer func() {
		for ev, n := range s.seen {
			seen[ev] += n
		}
	}()
	if cfg.fileStore {
		s.store = NewFileStore(t.TempDir() + "/state")
	}
	s.c = mustCoordinator(t, s.store, s.clk.Now)
	s.tr = &memTransport{handler: NewHandler(s.c)}
	s.tr.onRequest = s.onRequest
	s.tr.dropResponse = func(r *http.Request) bool {
		if cfg.dropReply != nil && cfg.dropReply(s, r) {
			s.seen["reply dropped"]++
			return true
		}
		return false
	}
	spec := faultSpec(cfg.shards, cfg.cycles)
	// One scanner worker per shard: each chunk probes in one order, so a
	// seed replays exactly.
	spec.Workers, spec.LeaseTTL, spec.ChunkProbes = 1, cfg.ttl, cfg.chunk
	if err := s.c.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cfg.workers; k++ {
		s.workers = append(s.workers, s.spawn(fmt.Sprintf("w%d", k), s.clk.Now()))
	}

	for s.step = 1; ; s.step++ {
		if s.step > fleetSimSteps {
			s.fail("campaign unfinished after %d steps", fleetSimSteps)
		}
		if cfg.crash != nil && s.down == 0 {
			if n := cfg.crash(s); n > 0 {
				s.down = n
			}
		}
		w := s.nextWorker()
		if w == nil {
			break
		}
		s.advance(w.at)
		s.act(w)
		s.check()
	}
	st, err := s.c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleNode(t, st, s.log, s.excess, single[:cfg.cycles], singleLog)
	return s
}

// spawn starts a worker process that acts first at the given time.
func (s *fleetSim) spawn(id string, at time.Time) *simWorker {
	sw := &simWorker{id: id, at: at}
	sw.w = &Worker{
		Client:   newTestClient(s.tr),
		ID:       id,
		Campaign: "camp",
		ProberAt: func(cycle int) scan.Prober {
			return &simProber{s: s, w: sw, cycle: cycle, inner: faultProberAt(cycle)}
		},
	}
	return sw
}

// nextWorker is the live worker due first, ties broken by the seed;
// nil once every worker is done.
func (s *fleetSim) nextWorker() *simWorker {
	var due []*simWorker
	for _, w := range s.workers {
		switch {
		case w.dead || w.done:
		case len(due) == 0 || w.at.Before(due[0].at):
			due = []*simWorker{w}
		case w.at.Equal(due[0].at):
			due = append(due, w)
		}
	}
	if len(due) == 0 {
		return nil
	}
	return due[s.rng.Intn(len(due))]
}

// advance moves the clock to the given time, feeding every running
// chunk's machine a reading at each instant one of them is due.
func (s *fleetSim) advance(to time.Time) {
	for {
		var next *simWorker
		for _, w := range s.workers {
			if w.m != nil && !w.dead && w.m.await == actScan && (next == nil || w.m.renewAt.Before(next.m.renewAt)) {
				next = w
			}
		}
		if next == nil || next.m.renewAt.After(to) {
			break
		}
		if d := next.m.renewAt.Sub(s.clk.Now()); d > 0 {
			s.clk.Advance(d)
		}
		s.tick(next)
	}
	if d := to.Sub(s.clk.Now()); d > 0 {
		s.clk.Advance(d)
	}
}

// tick feeds w's machine a clock reading and sends the renewal it asks
// for.
func (s *fleetSim) tick(w *simWorker) {
	a := w.m.tick(s.clk.Now())
	if a == actDrop {
		s.seen["abandon"]++
	}
	if a == actHeartbeat {
		s.seen["renewal"]++
		a = s.reply(w, s.heartbeat(w))
	}
	if a != actDrop {
		return
	}
	if w.cancel != nil {
		w.dropped = true
		w.cancel()
		return
	}
	s.lose(w, "drop")
}

// act performs w's next step.
func (s *fleetSim) act(w *simWorker) {
	ctx := context.Background()
	now := s.clk.Now()
	if w.m == nil {
		lease, done, err := w.w.Client.Acquire(ctx, "camp", w.id)
		switch {
		case done:
			w.done = true
		case err != nil || lease == nil:
			w.at = now.Add(fleetSimPoll)
		default:
			if lease.Checkpoint != nil {
				s.seen["resume"]++
			}
			if w.scanner, err = w.w.newScanner(lease); err != nil {
				s.fail("lease scanner: %v", err)
			}
			w.m, w.next = newLeaseMachine(lease, now), actScan
		}
		return
	}
	switch w.next {
	case actScan:
		if cp := w.m.up.Checkpoint; cp != nil {
			_ = w.scanner.Resume(cp)
		}
		var chunkCtx context.Context
		chunkCtx, w.cancel = context.WithCancel(ctx)
		rep, err := w.scanner.Run(chunkCtx)
		w.cancel()
		w.cancel = nil
		if w.dropped {
			w.dropped = false
			s.lose(w, "drop")
			return
		}
		w.next = w.m.chunked(rep, w.scanner.Checkpoint(), err)
		w.inUp = len(w.unacked)
		if w.killed {
			s.die(w)
		}
	case actHeartbeat:
		err := s.heartbeat(w)
		if w.next = s.reply(w, err); err != nil && w.next == actScan {
			s.seen["offline"]++
		}
	case actComplete:
		err := w.w.Client.Complete(ctx, "camp", w.m.lease.LeaseID, w.m.up)
		if err == nil {
			s.acked(w)
		}
		if w.next = s.reply(w, err); w.next == actComplete {
			w.at = now.Add(fleetSimPoll)
		}
	default:
		s.fail("worker %s: unexpected action %d", w.id, w.next)
	}
	switch w.next {
	case actDrop:
		s.lose(w, "drop")
	case actDone:
		w.m = nil
	}
}

// heartbeat sends w's upload and acknowledges the probes in it.
func (s *fleetSim) heartbeat(w *simWorker) error {
	err := w.w.Client.Heartbeat(context.Background(), "camp", w.m.lease.LeaseID, w.m.up)
	if err == nil {
		s.acked(w)
	}
	return err
}

// reply feeds a reply to w's machine.
func (s *fleetSim) reply(w *simWorker, err error) action {
	a := w.m.replied(s.clk.Now(), err)
	switch {
	case fenced(err):
		s.seen["fenced"]++
	case a == actDrop:
		s.seen["abandon"]++
	}
	return a
}

func (s *fleetSim) acked(w *simWorker) {
	w.unacked, w.inUp = w.unacked[w.inUp:], 0
}

// lose ends w's lease without handing its cursor on: a replacement may
// repeat every probe no acknowledged upload covered.
func (s *fleetSim) lose(w *simWorker, why string) {
	s.seen[why]++
	for _, p := range w.unacked {
		s.excess.record(p.cycle, p.addr)
	}
	w.m, w.unacked, w.inUp = nil, nil, 0
}

// die ends a killed worker's process after its chunk: a graceful death
// sends the final cursor when the machine asks for it, as Worker.Run
// does; a chunk that ran to its end first leaves an RPC the dead
// context refuses.
func (s *fleetSim) die(w *simWorker) {
	switch {
	case w.hard || w.next != actGasp:
		s.lose(w, "hard kill")
	case s.heartbeat(w) == nil:
		s.seen["final upload"]++
		w.m = nil
	default:
		s.lose(w, "final upload lost")
	}
	w.dead = true
	if s.cfg.revive {
		s.workers = append(s.workers, s.spawn(w.id, s.clk.Now().Add(time.Duration(s.rng.Intn(40))*time.Second)))
	}
}

// onRequest is the network in front of the coordinator: it drops
// requests, and while the coordinator is down refuses them, reloading
// it from its store on the last refused attempt.
func (s *fleetSim) onRequest(r *http.Request) error {
	s.reqs++
	if s.cfg.dropRequest != nil && s.cfg.dropRequest(s, r) {
		s.seen["request dropped"]++
		return errors.New("coord sim: request dropped")
	}
	if s.down > 0 {
		if s.down--; s.down == 0 {
			s.seen["restart"]++
			c, err := NewCoordinator(s.store, s.clk.Now)
			if err != nil {
				s.fail("restart from the store: %v", err)
			}
			s.c = c
			s.tr.handler = NewHandler(c)
		}
		return errors.New("coord sim: coordinator down")
	}
	return nil
}

// check asserts the invariants after a step.
func (s *fleetSim) check() {
	s.t.Helper()
	assertMemoryMatchesStore(s.t, s.c, s.store)
	held := map[string]string{}
	for _, w := range s.workers {
		if w.m == nil || w.dead {
			continue
		}
		if other, ok := held[w.m.lease.LeaseID]; ok {
			s.fail("lease %s held by %s and %s", w.m.lease.LeaseID, other, w.id)
		}
		held[w.m.lease.LeaseID] = w.id
	}
}

// simProber records every probe, charges its virtual time, and lets
// the schedule kill the prober.
type simProber struct {
	s     *fleetSim
	w     *simWorker
	cycle int
	inner scan.Prober
}

func (p *simProber) Probe(ctx context.Context, addr netaddr.Addr) (scan.Result, error) {
	s, w := p.s, p.w
	s.log.record(p.cycle, addr)
	w.probes++
	w.unacked = append(w.unacked, simProbe{p.cycle, addr})
	if s.cfg.probeCost > 0 {
		s.advance(s.clk.Now().Add(s.cfg.probeCost))
	}
	if s.cfg.kill != nil && !w.killed && !w.dropped {
		if w.killed, w.hard = s.cfg.kill(s, w); w.killed {
			w.cancel()
		}
	}
	return p.inner.Probe(ctx, addr)
}
