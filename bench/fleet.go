package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

const (
	fleetCampaign = "bench"
	fleetCycles   = 2
	fleetShards   = 4
	fleetWorkers  = 2
	fleetChunk    = 16384
	// fleetPoll is the idle-acquire poll interval: short enough that idle
	// polling does not quantize the episode's wall time.
	fleetPoll = 5 * time.Millisecond
)

// fleetBench runs the campaign loop through the coordinator: every
// iteration is one episode — a fresh coordinator on a FileStore, served
// over loopback TCP, and two workers that scan its shards until both
// cycles are done.
type fleetBench struct {
	w        *scanWorld
	targets  []rib.Partition // targets[m]: the φ selection of census month m
	universe []string        // the spec's CIDR strings
	plans    [][]string
	exclude  []string
}

func setupFleet(seed int64, sz sizes, ph phases) (instance, error) {
	w, err := buildScanWorld(seed, sz, ph)
	if err != nil {
		return nil, err
	}
	done := ph.time("write")
	defer done()
	b := &fleetBench{w: w, universe: cidrs(w.universe)}
	for m := 0; m < scanMonths; m++ {
		sel, err := core.SelectCached(w.months[m], w.universe, selectOpts, benchWorkers, nil)
		if err != nil {
			return nil, err
		}
		b.targets = append(b.targets, sel.Partition())
		b.plans = append(b.plans, cidrs(sel.Partition()))
	}
	for _, p := range w.exclude {
		b.exclude = append(b.exclude, p.String())
	}
	return b, nil
}

func cidrs(p rib.Partition) []string {
	out := make([]string, p.Len())
	for i := range out {
		out[i] = p.Prefix(i).String()
	}
	return out
}

func (b *fleetBench) close() error { return nil }

func (b *fleetBench) spec(m int) coord.CampaignSpec {
	return coord.CampaignSpec{
		ID:          fleetCampaign,
		Universe:    b.universe,
		Targets:     b.plans[m],
		Phi:         phi,
		Cycles:      fleetCycles,
		Shards:      fleetShards,
		Workers:     1,
		Seed:        b.w.permSeed(m),
		Rate:        probeRate,
		ChunkProbes: fleetChunk,
		Exclude:     b.exclude,
	}
}

// episode tallies one iteration's coordinator traffic. Workers and the
// server record into it concurrently.
type episode struct {
	mu         sync.Mutex
	rpcs       int
	rpcFailed  int
	saves      int
	stateBytes int
	lat        map[string][]float64 // per operation, ms
}

func (e *episode) rpc(op string, d time.Duration, failed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rpcs++
	if failed {
		e.rpcFailed++
	}
	e.lat["coord.rpc"] = append(e.lat["coord.rpc"], float64(d)/1e6)
	e.lat[op] = append(e.lat[op], float64(d)/1e6)
}

func (e *episode) save(d time.Duration, size int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.saves++
	e.stateBytes = max(e.stateBytes, size)
	e.lat["coord.save"] = append(e.lat["coord.save"], float64(d)/1e6)
}

func (b *fleetBench) iterate(ctx context.Context, i int, tr *tracer, root int32) (result, error) {
	m := i % scanMonths
	ep := &episode{lat: map[string][]float64{}}
	dir, err := os.MkdirTemp("", "tassbench-fleet-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	store := &timedStore{inner: coord.NewFileStore(filepath.Join(dir, "state")), tr: tr, parent: root, ep: ep}
	c, err := coord.NewCoordinator(store, nil)
	if err != nil {
		return result{}, err
	}
	srv := httptest.NewServer(coord.NewHandler(c))
	defer srv.Close()
	client := func(parent int32) *coord.Client {
		rt := &timedTransport{base: srv.Client().Transport, tr: tr, parent: parent, ep: ep}
		return &coord.Client{Base: srv.URL, HTTP: &http.Client{Transport: rt}}
	}
	admin := client(root)
	if err := admin.CreateCampaign(ctx, b.spec(m)); err != nil {
		return result{}, err
	}

	var wg sync.WaitGroup
	errs := make([]error, fleetWorkers)
	for k := 0; k < fleetWorkers; k++ {
		wid := tr.begin(root, "coord.worker")
		w := &coord.Worker{
			Client:    client(wid),
			ID:        fmt.Sprintf("w%d", k),
			Campaign:  fleetCampaign,
			Prober:    b.w.probers[m],
			PollEvery: fleetPoll,
			Sleep: func(ctx context.Context, d time.Duration) error {
				defer tr.span(wid, "coord.idle")()
				return sleep(ctx, d)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.end(wid)
			errs[k] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return result{}, err
		}
	}
	st, err := admin.Status(ctx, fleetCampaign)
	if err != nil {
		return result{}, err
	}
	if !st.Done || len(st.History) != fleetCycles {
		return result{}, fmt.Errorf("episode ended at cycle %d of %d (done=%v): %s", st.Cycle, fleetCycles, st.Done, st.Note)
	}
	truth := b.w.months[m+1]
	return result{
		key:       m,
		failedOps: ep.rpcFailed,
		ops:       ep.lat,
		state:     []any{st, c},
		finish: func() (uint64, map[string]float64) {
			var probed uint64
			for _, cy := range st.History {
				probed += cy.Probed
			}
			return fleetDigest(st.Responsive, st.History), map[string]float64{
				"core.space_share":   st.History[0].SpaceShare,
				"scan.probes":        float64(probed),
				"scan.traffic_share": float64(probed) / fleetCycles / float64(b.w.universe.AddressCount()),
				"scan.hosts_missed":  1 - float64(census.IntersectCount(st.Responsive, truth.Addrs))/float64(truth.Hosts()),
				"coord.rpcs":         float64(ep.rpcs),
				"coord.rpc_failed":   float64(ep.rpcFailed),
				"coord.saves":        float64(ep.saves),
				"coord.state_kb":     float64(ep.stateBytes) / 1024,
			}
		},
	}, nil
}

// fleetDigest hashes what a distributed campaign must agree on with a
// single-node one: the final responsive set and, per cycle, the probes
// sent and hosts found.
func fleetDigest(final []netaddr.Addr, history []coord.CycleSummary) uint64 {
	h := newDigest()
	putAddrs(h, final)
	for _, cy := range history {
		putU64(h, cy.Probed, uint64(cy.Responsive))
	}
	return h.Sum64()
}

// check runs each month's campaign on one node — the same plan, seed,
// exclusions and prober — and requires the fleet to have found the same
// hosts with the same probe count per cycle, which with every cycle
// probing plan minus exclusions also proves exactly-once probing.
func (b *fleetBench) check(ctx context.Context, res []result) error {
	want := map[int]uint64{}
	for _, r := range res {
		if _, ok := want[r.key]; ok {
			continue
		}
		c := &scan.Campaign{
			Universe: b.w.universe,
			Targets:  b.targets[r.key],
			Prober:   b.w.probers[r.key],
			Opts:     selectOpts,
			Rate:     probeRate,
			Workers:  1,
			Seed:     b.w.permSeed(r.key),
			Exclude:  b.w.exclude,
		}
		cycles, err := c.Run(ctx, fleetCycles)
		if err != nil {
			return fmt.Errorf("month %d: single-node campaign: %w", r.key, err)
		}
		history := make([]coord.CycleSummary, len(cycles))
		for k, cy := range cycles {
			if got := cy.Report.Probed + cy.Report.Excluded; got != cy.Plan.AddressCount() {
				return fmt.Errorf("month %d cycle %d: probed+excluded %d, plan holds %d addresses", r.key, k, got, cy.Plan.AddressCount())
			}
			history[k] = coord.CycleSummary{Probed: cy.Report.Probed, Responsive: len(cy.Report.Responsive)}
		}
		want[r.key] = fleetDigest(cycles[len(cycles)-1].Report.Responsive, history)
	}
	return matchDigests(res, want)
}

// timedTransport times every coordinator HTTP attempt, from request to
// the client closing the response body, as one span under parent.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int32
	ep     *episode
}

// rpcOp names the coordinator operation a request path calls.
func rpcOp(path string) string {
	for _, op := range []string{"acquire", "heartbeat", "complete"} {
		if strings.HasSuffix(path, "/"+op) {
			return "coord." + op
		}
	}
	return "coord.admin" // campaign creation and status
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := rpcOp(req.URL.Path)
	id := t.tr.begin(t.parent, op)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		t.ep.rpc(op, time.Since(t0), true)
		return nil, err
	}
	failed := resp.StatusCode != http.StatusOK
	var once sync.Once
	resp.Body = &closeHook{ReadCloser: resp.Body, hook: func() {
		once.Do(func() {
			t.tr.end(id)
			t.ep.rpc(op, time.Since(t0), failed)
		})
	}}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	hook func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.hook()
	return err
}

// timedStore times every durable save of the coordinator state.
type timedStore struct {
	inner  coord.Store
	tr     *tracer
	parent int32
	ep     *episode
}

func (s *timedStore) Save(data []byte) error {
	end := s.tr.span(s.parent, "coord.save")
	t0 := time.Now()
	err := s.inner.Save(data)
	s.ep.save(time.Since(t0), len(data))
	end()
	return err
}

func (s *timedStore) Load() ([]byte, error) { return s.inner.Load() }

// sleep is coord.Worker's default idle wait, reimplemented so the
// benchmark can wrap it in a span.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
