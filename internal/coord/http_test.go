package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// FuzzHandler sends arbitrary bodies to every route of NewHandler on a
// fresh coordinator holding one campaign and one live lease. No body may
// panic the handler, a body that does not decode must get a 4xx, and a
// rejected request must leave the stored state — and memory — as it
// was.
func FuzzHandler(f *testing.F) {
	spec, _ := json.Marshal(testSpec("new"))
	up, _ := json.Marshal(Upload{
		Checkpoint: &scan.Checkpoint{N: 64, Seed: 7, Shards: 1, Workers: 2, Consumed: []uint64{3, 4}},
		Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.2")},
		Probed:     7,
	})
	for route := range 5 {
		f.Add(uint8(route), []byte{})
		f.Add(uint8(route), []byte(`{}`))
		f.Add(uint8(route), spec)
		f.Add(uint8(route), up)
	}
	f.Add(uint8(0), []byte(`{"id":"x","universe":["10.0.0.0/8"],"phi":0.5,"cycles":1,"shards":99999999999}`))
	f.Add(uint8(2), []byte(`{"worker":"w2"}`))
	f.Add(uint8(4), []byte(`{"responsive":["203.0.113.9"],"probed":1}`))
	f.Add(uint8(3), []byte(`{"responsive":["not an address"]}`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		store := NewMemStore()
		c := mustCoordinator(t, store, newVClock().Now)
		spec := testSpec("x")
		spec.Shards = 1
		if err := c.CreateCampaign(spec); err != nil {
			t.Fatal(err)
		}
		lease, _, err := c.Acquire("x", "w")
		if err != nil || lease == nil {
			t.Fatalf("acquire: %+v, %v", lease, err)
		}
		routes := []struct {
			method, path string
			in           any // the body's type; nil when the route reads none
		}{
			{http.MethodPost, "/v1/campaigns", &CampaignSpec{}},
			{http.MethodGet, "/v1/campaigns/x", nil},
			{http.MethodPost, "/v1/campaigns/x/acquire", &acquireRequest{}},
			{http.MethodPost, "/v1/campaigns/x/leases/" + lease.LeaseID + "/heartbeat", &Upload{}},
			{http.MethodPost, "/v1/campaigns/x/leases/" + lease.LeaseID + "/complete", &Upload{}},
		}
		rt := routes[int(route)%len(routes)]
		before, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewHandler(c).ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
		if rt.in != nil && json.Unmarshal(body, rt.in) != nil && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("%s %s: undecodable body answered %d, want 4xx", rt.method, rt.path, rec.Code)
		}
		if rec.Code == http.StatusOK {
			return
		}
		after, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s %s answered %d but changed the stored state", rt.method, rt.path, rec.Code)
		}
		assertMemoryMatchesStore(t, c, store)
	})
}
