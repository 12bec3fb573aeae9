package census

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
)

// randomSnapshot draws n distinct addresses in [0, span).
func randomSnapshot(rng *rand.Rand, protocol string, month, n int, span uint32) *Snapshot {
	seen := make(map[netaddr.Addr]bool, n)
	addrs := make([]netaddr.Addr, 0, n)
	for len(addrs) < n {
		a := netaddr.Addr(rng.Uint32() % span)
		if seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	return NewSnapshot(protocol, month, addrs)
}

// churned evolves a snapshot: each address survives with probability
// 1-pDie, and fresh addresses are born to keep the population roughly
// stationary.
func churned(rng *rand.Rand, s *Snapshot, month int, pDie float64, span uint32) *Snapshot {
	present := make(map[netaddr.Addr]bool, len(s.Addrs))
	var addrs []netaddr.Addr
	for _, a := range s.Addrs {
		present[a] = true
		if rng.Float64() >= pDie {
			addrs = append(addrs, a)
		}
	}
	for births := int(pDie * float64(len(s.Addrs))); births > 0; {
		a := netaddr.Addr(rng.Uint32() % span)
		if present[a] {
			continue
		}
		present[a] = true
		addrs = append(addrs, a)
		births--
	}
	return NewSnapshot(s.Protocol, month, addrs)
}

// TestApplyDeltaDiffIdentity is the property test of the delta
// pipeline: ApplyDelta(a, a.Diff(b)) == b on random snapshot pairs,
// including the empty and full-churn extremes.
func TestApplyDeltaDiffIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pairs := []struct {
		name string
		a, b *Snapshot
	}{
		{"both empty", NewSnapshot("x", 0, nil), NewSnapshot("x", 1, nil)},
		{"empty to full", NewSnapshot("x", 0, nil), randomSnapshot(rng, "x", 1, 500, 1<<24)},
		{"full to empty", randomSnapshot(rng, "x", 0, 500, 1<<24), NewSnapshot("x", 1, nil)},
	}
	for i := 0; i < 20; i++ {
		a := randomSnapshot(rng, "x", 0, 100+rng.Intn(3000), 1<<24)
		pairs = append(pairs,
			struct {
				name string
				a, b *Snapshot
			}{"random churn", a, churned(rng, a, 1, 0.05+0.4*rng.Float64(), 1<<24)})
	}
	// Full churn: disjoint populations.
	a := randomSnapshot(rng, "x", 0, 1000, 1<<20)
	full := make([]netaddr.Addr, len(a.Addrs))
	for i, aa := range a.Addrs {
		full[i] = aa + 1<<20
	}
	pairs = append(pairs, struct {
		name string
		a, b *Snapshot
	}{"full churn", a, NewSnapshot("x", 1, full)})

	for _, pc := range pairs {
		d := pc.a.Diff(pc.b)
		if d.FromMonth != pc.a.Month || d.ToMonth != pc.b.Month || d.Protocol != "x" {
			t.Fatalf("%s: bad delta header %+v", pc.name, d)
		}
		got, err := ApplyDelta(pc.a, d)
		if err != nil {
			t.Fatalf("%s: ApplyDelta: %v", pc.name, err)
		}
		if got.Month != pc.b.Month || !slices.Equal(got.Addrs, pc.b.Addrs) {
			t.Fatalf("%s: ApplyDelta∘Diff is not the identity (%d addrs, want %d)",
				pc.name, len(got.Addrs), len(pc.b.Addrs))
		}
		// The carried-over set view (when present) must agree with the
		// rebuilt one.
		if got.Set().Len() != len(pc.b.Addrs) {
			t.Fatalf("%s: set view has %d addrs, want %d", pc.name, got.Set().Len(), len(pc.b.Addrs))
		}
		if !slices.Equal(got.Set().AppendTo(nil), pc.b.Addrs) {
			t.Fatalf("%s: set view contents diverge", pc.name)
		}
	}
}

func TestApplyDeltaRejectsMismatch(t *testing.T) {
	a := NewSnapshot("x", 0, []netaddr.Addr{1, 5, 9})
	cases := []struct {
		name string
		d    *Delta
	}{
		{"wrong protocol", &Delta{Protocol: "y", FromMonth: 0, ToMonth: 1}},
		{"wrong month", &Delta{Protocol: "x", FromMonth: 2, ToMonth: 3}},
		{"died missing", &Delta{Protocol: "x", ToMonth: 1, Died: []netaddr.Addr{4}}},
		{"born present", &Delta{Protocol: "x", ToMonth: 1, Born: []netaddr.Addr{5}}},
		// More died than the snapshot holds: must error, not panic on a
		// negative capacity hint (regression).
		{"died outnumbers snapshot", &Delta{Protocol: "x", ToMonth: 1, Died: []netaddr.Addr{1, 2, 5, 9, 11}}},
		// Out-of-order runs must error, not merge into an unsorted
		// snapshot (regression).
		{"born unsorted", &Delta{Protocol: "x", ToMonth: 1, Born: []netaddr.Addr{50, 10}}},
		{"died unsorted", &Delta{Protocol: "x", ToMonth: 1, Died: []netaddr.Addr{9, 5}}},
	}
	for _, tc := range cases {
		if _, err := ApplyDelta(a, tc.d); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func encodeDelta(t testing.TB, d *Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSnapshot(rng, "ftp", 2, 4000, 1<<26)
	b := churned(rng, a, 3, 0.2, 1<<26)
	d := a.Diff(b)
	got, err := ReadDelta(bytes.NewReader(encodeDelta(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != d.Protocol || got.FromMonth != d.FromMonth || got.ToMonth != d.ToMonth ||
		!slices.Equal(got.Born, d.Born) || !slices.Equal(got.Died, d.Died) {
		t.Fatal("delta round trip diverged")
	}
	// An empty delta survives too.
	empty := &Delta{Protocol: "x", FromMonth: 0, ToMonth: 1}
	got, err = ReadDelta(bytes.NewReader(encodeDelta(t, empty)))
	if err != nil || len(got.Born) != 0 || len(got.Died) != 0 {
		t.Fatalf("empty delta round trip: %+v, %v", got, err)
	}
}

// FuzzDeltaCodec feeds arbitrary bytes to the delta reader. Any stream
// it accepts must satisfy the Delta invariants (strictly ascending,
// disjoint runs) and survive a write/read round trip unchanged; any
// stream it rejects must fail with an error, never a panic or a
// pathological allocation. Differentially, the batched reader must
// accept and reject exactly what the per-byte reference does, with the
// same error and the same delta, for both families (the IPv6 case reads
// the same bytes behind the IPv6 magic) and under every stream shape.
func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TASSDLT\x01"))
	f.Add(encodeDelta(f, &Delta{Protocol: "x", FromMonth: 0, ToMonth: 1}))
	f.Add(encodeDelta(f, &Delta{
		Protocol: "ftp", FromMonth: 3, ToMonth: 4,
		Born: []netaddr.Addr{1, 2, 0xFFFFFFFF},
		Died: []netaddr.Addr{5, 500},
	}))
	// Declared count far beyond the bytes that follow.
	f.Add(append([]byte("TASSDLT\x01"), 0x01, 'x', 0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x01))
	// Address both born and died.
	f.Add(append([]byte("TASSDLT\x01"), 0x01, 'x', 0x00, 0x01, 0x01, 0x07, 0x01, 0x07))
	// Varints the batch kernel rejects but the scalar reader takes: an
	// overlong 11-byte zero delta, and a 10-byte value past 64 bits.
	f.Add(append([]byte("TASSDLT\x01"), 0x01, 'x', 0x00, 0x01, 0x02, 0x05,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00))
	f.Add(append([]byte("TASSDLT\x01"), 0x01, 'x', 0x00, 0x01, 0x01,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00))
	// A delta past the 32-bit width, and a zero delta, mid-run.
	f.Add(append([]byte("TASSDLT\x01"), 0x01, 'x', 0x00, 0x01, 0x03, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x01, 0x00))
	f.Add(append([]byte("TASSDLT\x01"), 0x01, 'x', 0x00, 0x01, 0x03, 0x01, 0x01, 0x00, 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		diffDeltaReaders[netaddr.Addr](t, data)
		if len(data) >= len(deltaMagic6) {
			diffDeltaReaders[netaddr.Addr6](t, append(deltaMagic6[:], data[len(deltaMagic6):]...))
		}
		d, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		check := func(side string, run []netaddr.Addr) {
			for i := 1; i < len(run); i++ {
				if run[i] <= run[i-1] {
					t.Fatalf("accepted non-ascending %s at %d", side, i)
				}
			}
		}
		check("born", d.Born)
		check("died", d.Died)
		i, j := 0, 0
		for i < len(d.Born) && j < len(d.Died) {
			switch {
			case d.Born[i] < d.Died[j]:
				i++
			case d.Born[i] > d.Died[j]:
				j++
			default:
				t.Fatalf("accepted overlapping runs at %v", d.Born[i])
			}
		}
		again, err := ReadDelta(bytes.NewReader(encodeDelta(t, d)))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again.Protocol != d.Protocol || again.FromMonth != d.FromMonth || again.ToMonth != d.ToMonth ||
			!slices.Equal(again.Born, d.Born) || !slices.Equal(again.Died, d.Died) {
			t.Fatal("round trip changed the delta")
		}
	})
}
