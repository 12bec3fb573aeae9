package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// ---------------------------------------------------------------------
// Test harness: in-process transport, fault injection, probe accounting.
// ---------------------------------------------------------------------

// memTransport is an http.RoundTripper that serves every request
// in-process against a swappable handler — no sockets, no goroutine
// races on listeners. Faults are injected at the two places a real
// network fails: before the handler sees the request (connection
// refused, partition, dead coordinator) and after the handler ran but
// before the response arrives (lost response — the case that makes
// idempotency matter, because the coordinator DID apply the request).
type memTransport struct {
	mu      sync.Mutex
	handler http.Handler
	reqs    int
	// onRequest, when set, may reject a request before it reaches the
	// handler (simulated network failure).
	onRequest func(r *http.Request) error
	// dropResponse, when set, may discard a response after the handler
	// processed the request.
	dropResponse func(r *http.Request) bool
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	if t.onRequest != nil {
		if err := t.onRequest(req); err != nil {
			return nil, err
		}
	}
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, req)
	if t.dropResponse != nil && t.dropResponse(req) {
		return nil, fmt.Errorf("coord test: response lost")
	}
	return rec.Result(), nil
}

func newTestClient(tr *memTransport) *Client {
	return &Client{
		Base:  "http://coordinator",
		HTTP:  &http.Client{Transport: tr},
		Seed:  7,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// probeLog counts every probe per (cycle, address) — the exactly-once
// ledger the acceptance tests audit.
type probeLog struct {
	mu     sync.Mutex
	cycles map[int]map[netaddr.Addr]int
}

func newProbeLog() *probeLog {
	return &probeLog{cycles: map[int]map[netaddr.Addr]int{}}
}

func (l *probeLog) record(cycle int, addr netaddr.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.cycles[cycle]
	if m == nil {
		m = map[netaddr.Addr]int{}
		l.cycles[cycle] = m
	}
	m[addr]++
}

func (l *probeLog) set(cycle int) map[netaddr.Addr]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[netaddr.Addr]int, len(l.cycles[cycle]))
	for a, n := range l.cycles[cycle] {
		out[a] = n
	}
	return out
}

// countingProber records every probe in the shared log and delegates
// to the deterministic simulation prober.
type countingProber struct {
	log   *probeLog
	cycle int
	inner scan.Prober
}

func (p *countingProber) Probe(ctx context.Context, addr netaddr.Addr) (scan.Result, error) {
	p.log.record(p.cycle, addr)
	return p.inner.Probe(ctx, addr)
}

// eventLog captures worker progress lines for assertions.
type eventLog struct {
	mu    sync.Mutex
	lines []string
}

func (e *eventLog) f(format string, args ...any) {
	e.mu.Lock()
	e.lines = append(e.lines, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

func (e *eventLog) contains(sub string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, l := range e.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Ground truth shared by the single-node baseline and the distributed
// runs: a /24 universe with one dense and one sparse /26, probed by a
// per-cycle deterministic SimProber (loss depends only on the address
// and the cycle seed, never on probe order or which machine probes).
// ---------------------------------------------------------------------

func faultUniverse() []string {
	return []string{"203.0.113.0/26", "203.0.113.64/26", "203.0.113.128/26", "203.0.113.192/26"}
}

func faultTruth() []netaddr.Addr {
	base := netaddr.MustParseAddr("203.0.113.0")
	var out []netaddr.Addr
	for i := 0; i < 40; i++ { // dense first /26
		out = append(out, base+netaddr.Addr(i))
	}
	for i := 64; i < 69; i++ { // sparse second /26
		out = append(out, base+netaddr.Addr(i))
	}
	return out
}

func faultProberAt(cycle int) scan.Prober {
	p, err := scan.NewSimProber(faultTruth(), 0.1, 900+int64(cycle))
	if err != nil {
		panic(err)
	}
	return p
}

func faultSpec(shards, cycles int) CampaignSpec {
	return CampaignSpec{
		ID:          "camp",
		Universe:    faultUniverse(),
		Phi:         0.9,
		Cycles:      cycles,
		Shards:      shards,
		Workers:     2,
		Seed:        42,
		LeaseTTL:    30 * time.Second,
		ChunkProbes: 16,
	}
}

// runSingleNode produces the ground-truth result: the same campaign run
// by scan.Campaign on one machine, one process, no coordinator.
func runSingleNode(t *testing.T, cycles int) ([]scan.Cycle, *probeLog) {
	t.Helper()
	uni, err := parsePartition(faultUniverse())
	if err != nil {
		t.Fatal(err)
	}
	log := newProbeLog()
	camp := &scan.Campaign{
		Universe: uni,
		ProberAt: func(cycle int) scan.Prober {
			return &countingProber{log: log, cycle: cycle, inner: faultProberAt(cycle)}
		},
		Opts:    core.Options{Phi: 0.9},
		Workers: 2,
		Seed:    42,
	}
	got, err := camp.Run(context.Background(), cycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cycles {
		t.Fatalf("single-node ran %d cycles, want %d", len(got), cycles)
	}
	return got, log
}

// assertMatchesSingleNode audits the distributed run against the
// single-node baseline: per cycle the exact probe set must match with
// every address probed exactly once, each cycle's summary and selection
// must be the same, and the final responsive set must be identical.
// excess, when set, holds per cycle the probes of workers that died or
// lost their lease before an upload of them was acknowledged; a
// replacement may repeat those, and only those.
func assertMatchesSingleNode(t *testing.T, st *Status, dist *probeLog, excess *probeLog, single []scan.Cycle, singleLog *probeLog) {
	t.Helper()
	if !st.Done {
		t.Fatalf("distributed campaign not done: %+v", st)
	}
	if len(st.History) != len(single) {
		t.Fatalf("distributed ran %d cycles, single-node %d", len(st.History), len(single))
	}
	for i, cyc := range single {
		want := singleLog.set(i)
		got := dist.set(i)
		var spare map[netaddr.Addr]int
		if excess != nil {
			spare = excess.set(i)
		}
		if len(got) != len(want) {
			t.Errorf("cycle %d: distributed probed %d addresses, single-node %d", i, len(got), len(want))
		}
		for addr, n := range got {
			if n-spare[addr] > 1 {
				t.Errorf("cycle %d: %v probed %d times (%d unacknowledged before a crash), want exactly once", i, addr, n, spare[addr])
			}
			if want[addr] == 0 {
				t.Errorf("cycle %d: distributed probed %v, single-node did not", i, addr)
			}
		}
		for addr := range want {
			if got[addr] == 0 {
				t.Errorf("cycle %d: single-node probed %v, distributed did not", i, addr)
			}
		}
		if st.History[i].Probed != cyc.Report.Probed {
			t.Errorf("cycle %d: distributed probed count %d, single-node %d", i, st.History[i].Probed, cyc.Report.Probed)
		}
		if st.History[i].Responsive != len(cyc.Report.Responsive) {
			t.Errorf("cycle %d: distributed responsive %d, single-node %d", i, st.History[i].Responsive, len(cyc.Report.Responsive))
		}
		if h := st.History[i]; h.Plan != cyc.Plan.Len() || h.Selected != cyc.Selection.K || h.SpaceShare != cyc.Selection.SpaceShare {
			t.Errorf("cycle %d: distributed plan %d, selected %d (share %v); single-node %d, %d (%v)",
				i, h.Plan, h.Selected, h.SpaceShare, cyc.Plan.Len(), cyc.Selection.K, cyc.Selection.SpaceShare)
		}
	}
	final := single[len(single)-1].Report.Responsive
	if len(st.Responsive) != len(final) {
		t.Fatalf("final responsive: distributed %d, single-node %d", len(st.Responsive), len(final))
	}
	for i := range final {
		if st.Responsive[i] != final[i] {
			t.Fatalf("final responsive differs at %d: %v != %v", i, st.Responsive[i], final[i])
		}
	}
}

// ---------------------------------------------------------------------
// The fault-injection suite.
// ---------------------------------------------------------------------

// TestDistributedCampaignMatchesSingleNode is the no-fault baseline:
// two workers splitting every cycle over HTTP produce byte-identical
// results to scan.Campaign on one machine.
func TestDistributedCampaignMatchesSingleNode(t *testing.T) {
	const cycles = 3
	single, singleLog := runSingleNode(t, cycles)

	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	tr := &memTransport{handler: NewHandler(c)}
	if err := c.CreateCampaign(faultSpec(2, cycles)); err != nil {
		t.Fatal(err)
	}

	dist := newProbeLog()
	worker := func(id string) *Worker {
		return &Worker{
			Client:   newTestClient(tr),
			ID:       id,
			Campaign: "camp",
			ProberAt: func(cycle int) scan.Prober {
				return &countingProber{log: dist, cycle: cycle, inner: faultProberAt(cycle)}
			},
			Sleep: func(ctx context.Context, d time.Duration) error {
				runtime.Gosched()
				return ctx.Err()
			},
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- worker("a").Run(context.Background()) }()
	go func() { errs <- worker("b").Run(context.Background()) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleNode(t, st, dist, nil, single, singleLog)
	for i, h := range st.History {
		if h.Releases != 2 {
			t.Errorf("cycle %d: %d lease grants, want 2 (no failures injected)", i, h.Releases)
		}
	}
}

// TestCoordinatorRefusesTornStateFile is acceptance criterion (c) for
// the coordinator: a restart over a truncated state file must refuse to
// start, not silently begin with empty state and double-probe every
// in-flight shard.
func TestCoordinatorRefusesTornStateFile(t *testing.T) {
	path := t.TempDir() + "/state"
	c := mustCoordinator(t, NewFileStore(path), nil)
	if err := c.CreateCampaign(faultSpec(2, 2)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(NewFileStore(path), nil); err == nil {
		t.Fatal("coordinator started over a torn state file")
	} else if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("torn state error %q does not refuse loading", err)
	}
}

// TestDistributedExclusionsEnforced: the campaign's operator blocklist
// travels in every lease, and a worker's local list layers on top — a
// fleet scan may never probe an address a single-node `tass scan
// -exclude` would have skipped.
func TestDistributedExclusionsEnforced(t *testing.T) {
	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	tr := &memTransport{handler: NewHandler(c)}
	spec := faultSpec(1, 2)
	spec.Exclude = []string{"203.0.113.192/26"} // campaign-wide
	if err := c.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}

	dist := newProbeLog()
	w := &Worker{
		Client:   newTestClient(tr),
		ID:       "w",
		Campaign: "camp",
		ProberAt: func(cycle int) scan.Prober {
			return &countingProber{log: dist, cycle: cycle, inner: faultProberAt(cycle)}
		},
		Exclude: []netaddr.Prefix{netaddr.MustParsePrefix("203.0.113.128/26")}, // worker-local
		Sleep: func(ctx context.Context, d time.Duration) error {
			clk.Advance(2 * time.Second)
			return ctx.Err()
		},
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}

	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("campaign not done: %+v", st)
	}
	blocked := []netaddr.Prefix{
		netaddr.MustParsePrefix("203.0.113.192/26"),
		netaddr.MustParsePrefix("203.0.113.128/26"),
	}
	probedAny := false
	for cycle := 0; cycle < 2; cycle++ {
		for addr := range dist.set(cycle) {
			probedAny = true
			for _, p := range blocked {
				if p.Contains(addr) {
					t.Errorf("cycle %d probed excluded address %v (in %v)", cycle, addr, p)
				}
			}
		}
	}
	if !probedAny {
		t.Fatal("nothing was probed; the exclusion test proved nothing")
	}
}

// TestWireErrorCodes: the HTTP protocol's body-level error codes keep
// sentinels apart even where statuses collide — a worker with a stale
// or bogus lease must see ErrUnknownLease / ErrLeaseLost, never a
// misdiagnosed ErrUnknownCampaign for a campaign that exists.
func TestWireErrorCodes(t *testing.T) {
	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	tr := &memTransport{handler: NewHandler(c)}
	if err := c.CreateCampaign(faultSpec(1, 1)); err != nil {
		t.Fatal(err)
	}
	cl := newTestClient(tr)
	ctx := context.Background()

	if _, err := cl.Status(ctx, "nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("unknown campaign err = %v, want ErrUnknownCampaign", err)
	}
	if err := cl.Heartbeat(ctx, "camp", "L99999999", Upload{}); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("never-issued lease err = %v, want ErrUnknownLease (campaign exists)", err)
	}
	lease, _, err := cl.Acquire(ctx, "camp", "w")
	if err != nil || lease == nil {
		t.Fatalf("acquire = %+v, %v", lease, err)
	}
	clk.Advance(31 * time.Second)
	if err := cl.Heartbeat(ctx, "camp", lease.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("expired lease err = %v, want ErrLeaseLost", err)
	}
	if err := cl.CreateCampaign(ctx, faultSpec(1, 1)); !errors.Is(err, ErrCampaignExists) {
		t.Errorf("duplicate create err = %v, want ErrCampaignExists", err)
	}
}

// failingStore accepts loads but fails every save, as a full disk does.
type failingStore struct{ MemStore }

func (*failingStore) Save([]byte) error { return errors.New("coord test: disk full") }

// flakySaveStore fails its first save only, as a transient write error
// does.
type flakySaveStore struct {
	MemStore
	failed bool
}

func (s *flakySaveStore) Save(data []byte) error {
	if !s.failed {
		s.failed = true
		return errors.New("coord test: transient write error")
	}
	return s.MemStore.Save(data)
}

// TestCreateCampaignFailedSaveRegistersNothing: a create whose save
// fails leaves memory as the store has it, without the campaign, so the
// client's retry of the 500 creates it instead of answering 409
// campaign_exists for a campaign the store never saw.
func TestCreateCampaignFailedSaveRegistersNothing(t *testing.T) {
	spec := faultSpec(1, 1)
	store := &flakySaveStore{}
	c := mustCoordinator(t, store, nil)
	if err := c.CreateCampaign(spec); err == nil {
		t.Fatal("create over a failing save reported success")
	}
	if ids := c.Campaigns(); len(ids) != 0 {
		t.Fatalf("campaigns after the failed save = %v, want none", ids)
	}
	assertMemoryMatchesStore(t, c, store)
	if err := c.CreateCampaign(spec); err != nil {
		t.Fatalf("create after the failed save: %v", err)
	}
	assertMemoryMatchesStore(t, c, store)

	store = &flakySaveStore{}
	c = mustCoordinator(t, store, nil)
	tr := &memTransport{handler: NewHandler(c)}
	if err := newTestClient(tr).CreateCampaign(context.Background(), spec); err != nil {
		t.Fatalf("client create over one failed save: %v", err)
	}
	if tr.reqs != 2 {
		t.Errorf("%d attempts, want the failed one and its retry", tr.reqs)
	}
	if ids := c.Campaigns(); len(ids) != 1 || ids[0] != spec.ID {
		t.Errorf("campaigns = %v, want [%s]", ids, spec.ID)
	}
	assertMemoryMatchesStore(t, c, store)
}

// TestInvalidSpecNotRetried: a spec the coordinator rejects answers 422
// with its own code, so the client gives up after one attempt and
// reports ErrInvalidSpec; a failing save stays a 500 and is retried.
func TestInvalidSpecNotRetried(t *testing.T) {
	ctx := context.Background()
	bad := faultSpec(1, 1)
	bad.Phi = 2
	zeroCycles := faultSpec(1, 0)
	for _, spec := range []CampaignSpec{bad, zeroCycles} {
		tr := &memTransport{handler: NewHandler(mustCoordinator(t, NewMemStore(), nil))}
		err := newTestClient(tr).CreateCampaign(ctx, spec)
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("φ=%v cycles=%d: err = %v, want ErrInvalidSpec", spec.Phi, spec.Cycles, err)
		}
		if tr.reqs != 1 {
			t.Errorf("φ=%v cycles=%d: %d attempts, want 1", spec.Phi, spec.Cycles, tr.reqs)
		}
	}

	post := func(c *Coordinator, spec CampaignSpec) int {
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		NewHandler(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post(mustCoordinator(t, NewMemStore(), nil), bad); code != http.StatusUnprocessableEntity {
		t.Errorf("invalid spec answered %d, want 422", code)
	}
	if code := post(mustCoordinator(t, &failingStore{}, nil), faultSpec(1, 1)); code != http.StatusInternalServerError {
		t.Errorf("failing save answered %d, want 500", code)
	}
	tr := &memTransport{handler: NewHandler(mustCoordinator(t, &failingStore{}, nil))}
	if err := newTestClient(tr).CreateCampaign(ctx, faultSpec(1, 1)); errors.Is(err, ErrInvalidSpec) {
		t.Errorf("failing save: err = %v, want no ErrInvalidSpec", err)
	}
	if tr.reqs < 2 {
		t.Errorf("failing save: %d attempts, want a retry", tr.reqs)
	}
}
