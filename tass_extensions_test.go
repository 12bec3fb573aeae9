package tass_test

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tass-scan/tass"
	"github.com/tass-scan/tass/internal/mrt"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/pfx2as"
)

// worldFixture caches one small world for the extension tests.
var worldFixture *struct {
	u      *tass.Universe
	series map[string]*tass.Series
}

func fixture(t *testing.T) (*tass.Universe, map[string]*tass.Series) {
	t.Helper()
	if worldFixture == nil {
		u, err := tass.GenerateUniverse(tass.SmallUniverseConfig(77))
		if err != nil {
			t.Fatal(err)
		}
		worldFixture = &struct {
			u      *tass.Universe
			series map[string]*tass.Series
		}{u, tass.SimulateMonths(u, 78, 4)}
	}
	return worldFixture.u, worldFixture.series
}

func TestPublicCampaign(t *testing.T) {
	u, series := fixture(t)
	ev, err := tass.EvaluateCampaign(tass.Campaign{
		Universe:    u.More,
		Opts:        tass.Options{Phi: 0.95},
		ReseedEvery: 2,
	}, series["ftp"], u.Less.AddressCount())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Reseeds != 3 { // months 0, 2, 4
		t.Fatalf("reseeds %d", ev.Reseeds)
	}
	if ev.MeanHitrate < 0.9 || ev.MeanCostShare >= 1 {
		t.Errorf("campaign: %+v", ev)
	}
}

func TestPublicRefinePartition(t *testing.T) {
	u, series := fixture(t)
	seed := series["http"].At(0)
	refined, err := tass.RefinePartition(seed, u.Less, tass.ClusterOptions{Contrast: 2})
	if err != nil {
		t.Fatal(err)
	}
	if refined.AddressCount() != u.Less.AddressCount() {
		t.Error("refinement changed covered space")
	}
	if refined.Len() < u.Less.Len() {
		t.Error("refinement lost prefixes")
	}
}

func TestPublicRank(t *testing.T) {
	u, series := fixture(t)
	seed := series["ftp"].At(0)
	ranked := tass.Rank(seed, u.More)
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Density > ranked[i-1].Density {
			t.Fatal("not density-sorted")
		}
	}
}

func TestPublicScanner(t *testing.T) {
	u, series := fixture(t)
	seed := series["ftp"].At(0)
	sel, err := tass.Select(seed, u.More, tass.Options{Phi: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	prober, err := tass.NewSimProber(seed.Addrs, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tass.NewScanner(tass.ScanConfig{
		Targets: sel.Partition(),
		Prober:  prober,
		Workers: 4,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	report, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The simulated scan of the selection must find exactly the seed
	// hosts inside it.
	if got, want := len(report.Responsive), seed.CountIn(sel.Partition()); got != want {
		t.Errorf("scan found %d, ground truth %d", got, want)
	}
}

func TestPublicIPv6(t *testing.T) {
	a, err := tass.ParseAddr6("2001:db8::1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tass.ParsePrefix6("2001:db8::/32")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(a) {
		t.Error("containment")
	}
	u, err := tass.NewUniverse6([]tass.Prefix6{p})
	if err != nil {
		t.Fatal(err)
	}
	ranked := tass.Rank6([]tass.Addr6{a}, u)
	if len(ranked) != 1 || ranked[0].Hosts != 1 {
		t.Fatalf("Rank6: %+v", ranked)
	}
	sel, err := tass.Select6([]tass.Addr6{a}, u, 1)
	if err != nil || sel.K != 1 {
		t.Fatalf("Select6: %+v, %v", sel, err)
	}
}

func TestPublicExtractMRTHappyPath(t *testing.T) {
	peers := []mrt.Peer{{BGPID: 1, Addr: tass.MustParseAddr("198.51.100.1"), AS: 64500, AS4: true}}
	routes := []pfx2as.Record{
		{Prefix: tass.MustParsePrefix("100.0.0.0/8"), Origin: pfx2as.SingleOrigin(3356)},
	}
	var buf bytes.Buffer
	if err := mrt.SynthesizeRIB(&buf, 1, 1, peers, routes); err != nil {
		t.Fatal(err)
	}
	table, skipped, err := tass.ExtractMRT(&buf)
	if err != nil || skipped != 0 || table.Len() != 1 {
		t.Fatalf("ExtractMRT: %v, %d, %v", table, skipped, err)
	}
	if asn, _ := table.Entries()[0].Origin.Primary(); asn != 3356 {
		t.Errorf("origin %d", asn)
	}
}

func TestPublicNewTableAndVersion(t *testing.T) {
	tb := tass.NewTable([]tass.Prefix{
		tass.MustParsePrefix("10.0.0.0/8"),
		tass.MustParsePrefix("10.16.0.0/12"),
	})
	if tb.Len() != 2 || tb.LessSpecifics().Len() != 1 {
		t.Errorf("NewTable: %d, %d", tb.Len(), tb.LessSpecifics().Len())
	}
	if tass.Version == "" {
		t.Error("empty version")
	}
}

func TestPublicDiffSnapshots(t *testing.T) {
	_, series := fixture(t)
	s := series["cwmp"]
	d := tass.DiffSnapshots(s.At(0), s.At(1))
	if d.Kept+d.Lost != s.At(0).Hosts() {
		t.Errorf("diff does not partition the earlier snapshot: %+v", d)
	}
	// CWMP is the churniest protocol: a month must lose a visible share.
	if r := d.Retention(); r > 0.9 || r < 0.4 {
		t.Errorf("cwmp one-month retention %v implausible", r)
	}
}

// TestPublicDiffSnapshotsLazy: a lazily opened census file has no
// address slice, and DiffSnapshots must count it through its set view.
// An intact file against its eager copy keeps every host, in both
// directions, and a lazy side diffs against a churned snapshot as its
// eager copy does.
func TestPublicDiffSnapshotsLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	addrs := make([]tass.Addr, 0, 8000)
	v := uint32(rng.Intn(1 << 16))
	for len(addrs) < cap(addrs) {
		if rng.Intn(100) == 0 {
			v += uint32(rng.Intn(1 << 22))
		}
		v += 1 + uint32(rng.Intn(200))
		addrs = append(addrs, tass.Addr(v))
	}
	eager := tass.NewSnapshot("https", 4, addrs)
	path := filepath.Join(t.TempDir(), "census.snap")
	if err := tass.WriteSnapshotFile(path, eager); err != nil {
		t.Fatal(err)
	}
	lazy, err := tass.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if !lazy.Lazy() {
		t.Fatal("OpenSnapshotFile returned an eager snapshot")
	}
	same := tass.DiffResult{Kept: len(addrs)}
	if d := tass.DiffSnapshots(lazy, eager); d != same {
		t.Errorf("DiffSnapshots(lazy, its eager copy) = %+v, want %+v", d, same)
	}
	if d := tass.DiffSnapshots(eager, lazy); d != same {
		t.Errorf("DiffSnapshots(eager, its lazy copy) = %+v, want %+v", d, same)
	}
	churned := tass.NewSnapshot("https", 4, append(addrs[len(addrs)/3:len(addrs):len(addrs)], tass.Addr(v+1), tass.Addr(v+7)))
	for _, pair := range [][2]*tass.Snapshot{{lazy, churned}, {churned, lazy}} {
		ref := pair
		for i, s := range ref {
			if s == lazy {
				ref[i] = eager
			}
		}
		if got, want := tass.DiffSnapshots(pair[0], pair[1]), tass.DiffSnapshots(ref[0], ref[1]); got != want {
			t.Errorf("a lazy side diffs to %+v, its eager copy to %+v", got, want)
		}
	}
}

func TestPublicReadSeries(t *testing.T) {
	_, series := fixture(t)
	var buf bytes.Buffer
	if _, err := series["cwmp"].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := tass.ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Protocol != "cwmp" || back.Months() != series["cwmp"].Months() {
		t.Errorf("series round trip: %s %d", back.Protocol, back.Months())
	}
}

func p6(s string) tass.Prefix6 {
	p, err := tass.ParsePrefix6(s)
	if err != nil {
		panic(err)
	}
	return p
}

func a6(s string) tass.Addr6 { return netaddr.MustParseAddr6(s) }

func TestNewUniverse6(t *testing.T) {
	u, err := tass.NewUniverse6([]tass.Prefix6{
		p6("2001:db8::/32"), p6("2620:0:860::/46"), p6("2a00::/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
	// Sorted by address.
	if u.Prefix(0) != p6("2001:db8::/32") || u.Prefix(2) != p6("2a00::/24") {
		t.Errorf("order: %v %v %v", u.Prefix(0), u.Prefix(1), u.Prefix(2))
	}
	if _, err := tass.NewUniverse6([]tass.Prefix6{
		p6("2001:db8::/32"), p6("2001:db8:1::/48"),
	}); err == nil {
		t.Error("nested prefixes accepted")
	}
}

func TestUniverse6Find(t *testing.T) {
	u, err := tass.NewUniverse6([]tass.Prefix6{p6("2001:db8::/32"), p6("2a00::/16")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		idx  int
		ok   bool
	}{
		{"2001:db8::1", 0, true},
		{"2001:db8:ffff:ffff::1", 0, true},
		{"2001:db9::", 0, false},
		{"2a00:1450::1", 1, true},
		{"2a00:ffff:ffff::", 1, true},
		{"2a01::", 0, false},
		{"2b00::", 0, false},
		{"::1", 0, false},
	}
	for _, c := range cases {
		idx, ok := u.Find(a6(c.addr))
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("Find(%s) = %d, %v; want %d, %v", c.addr, idx, ok, c.idx, c.ok)
		}
	}
}

func TestRank6AndSelect6(t *testing.T) {
	u, err := tass.NewUniverse6([]tass.Prefix6{
		p6("2001:db8::/32"),   // 8 hosts in a /32: denser
		p6("2a00::/24"),       // 8 hosts in a /24: sparser
		p6("2620:0:860::/46"), // empty
	})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []tass.Addr6
	for i := 0; i < 8; i++ {
		seeds = append(seeds, tass.Addr6{Hi: 0x20010db8_00000000 + uint64(i)<<16, Lo: 1})
		seeds = append(seeds, tass.Addr6{Hi: 0x2a000000_00000000 + uint64(i)<<24, Lo: 2})
	}
	seeds = append(seeds, a6("9999::1")) // outside the universe

	ranked := tass.Rank6(seeds, u)
	if len(ranked) != 2 {
		t.Fatalf("ranked: %+v", ranked)
	}
	if ranked[0].Prefix != p6("2001:db8::/32") {
		t.Errorf("densest should be the /32, got %v", ranked[0].Prefix)
	}
	if ranked[0].Hosts != 8 || ranked[0].Coverage != 0.5 {
		t.Errorf("rank0: %+v", ranked[0])
	}
	if ranked[0].Density <= ranked[1].Density {
		t.Error("density order wrong")
	}

	sel, err := tass.Select6(seeds, u, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 || sel.HostCoverage != 0.5 {
		t.Fatalf("Select6(0.4): K=%d coverage=%v", sel.K, sel.HostCoverage)
	}
	if sel.SpaceBits != 96 { // one /32 = 2^96 addresses
		t.Errorf("SpaceBits = %v, want 96", sel.SpaceBits)
	}
	if got := sel.Prefixes(); len(got) != 1 || got[0] != p6("2001:db8::/32") {
		t.Errorf("Prefixes = %v", got)
	}

	sel, err = tass.Select6(seeds, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 || sel.HostCoverage != 1 {
		t.Fatalf("Select6(1): K=%d coverage=%v", sel.K, sel.HostCoverage)
	}
}

func TestSelect6Errors(t *testing.T) {
	u, _ := tass.NewUniverse6([]tass.Prefix6{p6("2001:db8::/32")})
	if _, err := tass.Select6(nil, u, 0.9); err == nil {
		t.Error("no seeds accepted")
	}
	_, err := tass.Select6([]tass.Addr6{a6("2001:db8::1")}, u, 0)
	if err == nil {
		t.Error("φ=0 accepted")
	} else if !strings.Contains(err.Error(), "φ must be in (0,1]") {
		// The engine's reason survives the facade's wrapping.
		t.Errorf("φ=0 error lost its cause: %v", err)
	}
	if _, err := tass.Select6([]tass.Addr6{a6("9999::")}, u, 0.9); err == nil {
		t.Error("all seeds outside universe accepted")
	} else if !strings.Contains(err.Error(), "no hosts inside the universe") {
		t.Errorf("outside-universe error lost its cause: %v", err)
	}
}

func TestSelect6CoverageInvariant(t *testing.T) {
	// Random universes: achieved coverage always exceeds φ.
	rng := rand.New(rand.NewSource(3))
	var ps []tass.Prefix6
	for i := 0; i < 64; i++ {
		a := tass.Addr6{Hi: 0x2000_0000_0000_0000 + uint64(i)<<40}
		p, err := netaddr.Prefix6From(a, 32)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	u, err := tass.NewUniverse6(ps)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []tass.Addr6
	for i := 0; i < 3000; i++ {
		base := ps[rng.Intn(len(ps))]
		seeds = append(seeds, tass.Addr6{
			Hi: base.Addr().Hi | uint64(rng.Intn(1<<30)),
			Lo: rng.Uint64(),
		})
	}
	for _, phi := range []float64{0.3, 0.5, 0.9, 0.99, 1} {
		sel, err := tass.Select6(seeds, u, phi)
		if err != nil {
			t.Fatal(err)
		}
		if sel.HostCoverage < phi && !(phi == 1 && sel.HostCoverage == 1) {
			t.Errorf("φ=%v: coverage %v", phi, sel.HostCoverage)
		}
		for i := 1; i < len(sel.Ranked); i++ {
			if sel.Ranked[i].Density > sel.Ranked[i-1].Density {
				t.Fatal("ranking not by descending density")
			}
		}
	}
}
