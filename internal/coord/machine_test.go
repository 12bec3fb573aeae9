package coord

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/scan"
)

// TestEarlyFinishMatchesSingleNode: a campaign whose seed scan finds
// nothing finishes early after that cycle, with the same cycles, counts
// and note on one node (scan.Campaign) and through the coordinator —
// both drive the same cycle machine.
func TestEarlyFinishMatchesSingleNode(t *testing.T) {
	dead := func(int) scan.Prober {
		p, err := scan.NewSimProber(nil, 0, 1)
		if err != nil {
			panic(err)
		}
		return p
	}
	uni, err := parsePartition(faultUniverse())
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&scan.Campaign{Universe: uni, ProberAt: dead, Opts: core.Options{Phi: 0.9}, Workers: 2, Seed: 42}).
		Run(context.Background(), 3)
	if err != nil {
		t.Fatalf("single-node campaign: %v", err)
	}

	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	if err := c.CreateCampaign(faultSpec(2, 3)); err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Client:   newTestClient(&memTransport{handler: NewHandler(c)}),
		ID:       "w",
		Campaign: "camp",
		ProberAt: dead,
		Sleep:    func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	last := single[len(single)-1]
	if !st.Done || len(st.History) != len(single) || len(single) != 1 {
		t.Fatalf("distributed ran %d cycles (done %v), single-node %d; want 1 each", len(st.History), st.Done, len(single))
	}
	if st.Note == "" || st.Note != last.Note {
		t.Fatalf("notes differ: distributed %q, single-node %q", st.Note, last.Note)
	}
	if h := st.History[0]; h.Probed != last.Report.Probed || h.Responsive != 0 || h.Selected != 0 {
		t.Fatalf("summary %+v, single-node probed %d", h, last.Report.Probed)
	}
}

// TestMidCampaignStateFileCompletes loads a FileStore state file written
// by the coordinator as it was before the cycle machine, in the middle
// of a campaign: cycle 1 of 3, one shard leased to a worker that died
// after uploading a cursor, the other pending. The store format is
// unchanged, so it loads; once the dead lease lapses a new worker
// resumes from the cursor and the campaign completes with the
// single-node result.
func TestMidCampaignStateFileCompletes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "midcampaign.state"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	clk := newVClock()
	c := mustCoordinator(t, NewFileStore(path), clk.Now)
	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1 || st.Done || len(st.Shards) != 2 || st.Shards[0].State != shardLeased || !st.Shards[0].Resumable {
		t.Fatalf("loaded state is not the mid-cycle fixture: %+v", st)
	}

	single, _ := runSingleNode(t, 3)
	clk.Advance(31 * time.Second) // the dead holder's lease lapses
	events := &eventLog{}
	w := &Worker{
		Client:   newTestClient(&memTransport{handler: NewHandler(c)}),
		ID:       "w2",
		Campaign: "camp",
		ProberAt: faultProberAt,
		OnEvent:  events.f,
		Sleep:    func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if !events.contains("resume=true") {
		t.Error("the dead worker's cursor was not handed to the new worker")
	}
	// A coordinator restarted over the finished file reports the result.
	st, err = mustCoordinator(t, NewFileStore(path), clk.Now).Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || len(st.History) != len(single) {
		t.Fatalf("campaign ran %d cycles (done %v), single-node %d", len(st.History), st.Done, len(single))
	}
	for i, cy := range single {
		if h := st.History[i]; h.Probed != cy.Report.Probed || h.Responsive != len(cy.Report.Responsive) {
			t.Errorf("cycle %d: probed %d, responsive %d; single-node %d, %d",
				i, h.Probed, h.Responsive, cy.Report.Probed, len(cy.Report.Responsive))
		}
	}
	final := single[len(single)-1].Report.Responsive
	if len(st.Responsive) != len(final) {
		t.Fatalf("final responsive: %d, single-node %d", len(st.Responsive), len(final))
	}
	for i := range final {
		if st.Responsive[i] != final[i] {
			t.Fatalf("final responsive differs at %d: %v != %v", i, st.Responsive[i], final[i])
		}
	}
}
