package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The wire protocol is plain HTTP+JSON:
//
//	POST /v1/campaigns                                  CampaignSpec → {}
//	GET  /v1/campaigns/{id}                             → Status
//	POST /v1/campaigns/{id}/acquire                     acquireRequest → acquireResponse
//	POST /v1/campaigns/{id}/leases/{lease}/heartbeat    Upload → heartbeatResponse
//	POST /v1/campaigns/{id}/leases/{lease}/complete     Upload → {}
//
// Semantic failures map to statuses plus a machine-readable `code`
// field in the JSON body that the client turns back into sentinel
// errors: 404 unknown campaign/lease (disambiguated by code), 410 lease
// lost, 409 duplicate campaign, 400 bad request. Anything
// transport-shaped (5xx, network) is retryable; 4xx is not.

type acquireRequest struct {
	Worker string `json:"worker"`
}

type acquireResponse struct {
	// Done means the campaign is finished: no more work, ever.
	Done bool `json:"done,omitempty"`
	// Lease is nil when no shard is free right now (and Done is false):
	// the worker should poll again shortly.
	Lease *Lease `json:"lease,omitempty"`
}

type heartbeatResponse struct {
	Deadline time.Time `json:"deadline"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code names the sentinel error machine-readably; HTTP statuses
	// alone are ambiguous (unknown campaign and unknown lease are both
	// 404, and a worker diagnosing the wrong one would re-acquire
	// against a campaign it believes is gone).
	Code string `json:"code,omitempty"`
}

// wireErrors maps the sentinels onto HTTP statuses and body codes, for
// writeError and back for the client. Unknown campaign comes first: it
// is what a bare 404 from a coordinator without codes decodes to.
var wireErrors = []struct {
	err    error
	status int
	code   string
}{
	{ErrUnknownCampaign, http.StatusNotFound, "unknown_campaign"},
	{ErrUnknownLease, http.StatusNotFound, "unknown_lease"},
	{ErrLeaseLost, http.StatusGone, "lease_lost"},
	{ErrCampaignExists, http.StatusConflict, "campaign_exists"},
	{ErrInvalidSpec, http.StatusUnprocessableEntity, "invalid_spec"},
}

// maxBodyBytes bounds request bodies: uploads carry address lists, not
// bulk data, and a malicious or confused client must not OOM the
// coordinator.
const maxBodyBytes = 64 << 20

// NewHandler exposes the coordinator over HTTP.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	handle(mux, "POST /v1/campaigns", func(_ *http.Request, spec *CampaignSpec) (any, error) {
		return struct{}{}, c.CreateCampaign(*spec)
	})
	handle(mux, "GET /v1/campaigns/{id}", func(r *http.Request, _ *struct{}) (any, error) {
		return c.Status(r.PathValue("id"))
	})
	handle(mux, "POST /v1/campaigns/{id}/acquire", func(r *http.Request, req *acquireRequest) (any, error) {
		lease, done, err := c.Acquire(r.PathValue("id"), req.Worker)
		return acquireResponse{Done: done, Lease: lease}, err
	})
	handle(mux, "POST /v1/campaigns/{id}/leases/{lease}/heartbeat", func(r *http.Request, up *Upload) (any, error) {
		deadline, err := c.Heartbeat(r.PathValue("id"), r.PathValue("lease"), *up)
		return heartbeatResponse{Deadline: deadline}, err
	})
	handle(mux, "POST /v1/campaigns/{id}/leases/{lease}/complete", func(r *http.Request, up *Upload) (any, error) {
		return struct{}{}, c.Complete(r.PathValue("id"), r.PathValue("lease"), *up)
	})
	return mux
}

// handle registers one route: decode the request body into In (POST
// routes), call serve, and reply with its result or its error.
func handle[In any](mux *http.ServeMux, pattern string, serve func(r *http.Request, in *In) (any, error)) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		var in In
		if r.Method == http.MethodPost && !decodeBody(w, r, &in) {
			return
		}
		out, err := serve(r, &in)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("coord: bad request body: %v", err)})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	resp := errorResponse{Error: err.Error()}
	status := http.StatusInternalServerError
	for _, we := range wireErrors {
		if errors.Is(err, we.err) {
			status, resp.Code = we.status, we.code
			break
		}
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
