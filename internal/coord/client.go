package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Client is the worker side of the coordinator protocol: context-aware
// per-request timeouts and jittered exponential-backoff retries on
// everything transport-shaped (connection failures, 5xx). Semantic
// refusals — lease lost, unknown campaign — come back immediately as
// the package's sentinel errors; retrying those would never help.
type Client struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:7070".
	Base string
	// HTTP is the underlying client; tests inject fault-injecting
	// transports here. Defaults to http.DefaultClient.
	HTTP *http.Client
	// Seed makes the jitter deterministic for tests (0 seeds from the
	// clock).
	Seed int64
	// Sleep is the backoff waiter, injectable for virtual-clock tests.
	// It must honor ctx. Defaults to a timer sleep.
	Sleep func(ctx context.Context, d time.Duration) error

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Each request attempt times out after attemptTimeout. A call makes at
// most maxRetries attempts beyond the first; retry attempt k sleeps a
// uniformly jittered duration in (0, min(backoffCap, backoffBase·2^k)]:
// full jitter keeps a worker fleet from thundering back in lockstep
// after a coordinator restart. With this schedule a call has roughly 6s
// of patience — transient blips heal, real outages surface.
const (
	attemptTimeout = 5 * time.Second
	maxRetries     = 6
	backoffBase    = 50 * time.Millisecond
	backoffCap     = 2 * time.Second
)

// NewClient builds a client with default retry policy.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// CreateCampaign registers a campaign with the coordinator.
func (cl *Client) CreateCampaign(ctx context.Context, spec CampaignSpec) error {
	return cl.call(ctx, http.MethodPost, "/v1/campaigns", spec, &struct{}{})
}

// Status fetches a campaign's current state.
func (cl *Client) Status(ctx context.Context, campaign string) (*Status, error) {
	var st Status
	if err := cl.call(ctx, http.MethodGet, "/v1/campaigns/"+campaign, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Acquire asks for a shard lease. done means the campaign is finished;
// a nil lease with done == false means nothing is free right now.
func (cl *Client) Acquire(ctx context.Context, campaign, worker string) (lease *Lease, done bool, err error) {
	var resp acquireResponse
	if err := cl.call(ctx, http.MethodPost, "/v1/campaigns/"+campaign+"/acquire",
		acquireRequest{Worker: worker}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Lease, resp.Done, nil
}

// Heartbeat renews a lease with the worker's latest cumulative upload.
// ErrLeaseLost means the shard is no longer the worker's.
func (cl *Client) Heartbeat(ctx context.Context, campaign, leaseID string, up Upload) error {
	return cl.call(ctx, http.MethodPost,
		"/v1/campaigns/"+campaign+"/leases/"+leaseID+"/heartbeat", up, &heartbeatResponse{})
}

// Complete reports a shard finished with its final upload.
func (cl *Client) Complete(ctx context.Context, campaign, leaseID string, up Upload) error {
	return cl.call(ctx, http.MethodPost,
		"/v1/campaigns/"+campaign+"/leases/"+leaseID+"/complete", up, &struct{}{})
}

// call runs one request with retries. Transport errors and 5xx retry
// with backoff until the budget or ctx runs out; 4xx returns
// immediately, mapped back to sentinel errors where the status encodes
// one.
func (cl *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("coord: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return err
		}
		err := cl.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if _, transient := err.(*transientError); !transient || attempt >= maxRetries {
			return err
		}
		lastErr = err
		if err := cl.backoff(ctx, attempt); err != nil {
			return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
		}
	}
}

// transientError marks a failure worth retrying.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// attempt performs one HTTP exchange.
func (cl *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	rctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, cl.Base+path, reader)
	if err != nil {
		return fmt.Errorf("coord: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	httpc := cl.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		// The parent context dying is a caller decision, not a blip.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transientError{fmt.Errorf("coord: %s %s: %w", method, path, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return &transientError{fmt.Errorf("coord: reading response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		// The body's error code pins the sentinel exactly; the status is
		// the fallback for coordinators that predate codes (404 alone
		// cannot tell an unknown lease from an unknown campaign).
		for _, we := range wireErrors {
			if er.Code == we.code {
				return fmt.Errorf("%w: %s", we.err, msg)
			}
		}
		for _, we := range wireErrors {
			if resp.StatusCode == we.status {
				return fmt.Errorf("%w: %s", we.err, msg)
			}
		}
		err := fmt.Errorf("coord: %s %s: %s (%s)", method, path, msg, resp.Status)
		if resp.StatusCode >= 500 {
			return &transientError{err}
		}
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return &transientError{fmt.Errorf("coord: decoding response: %w", err)}
	}
	return nil
}

// backoff sleeps the jittered exponential delay for the given attempt.
func (cl *Client) backoff(ctx context.Context, attempt int) error {
	d := backoffBase << uint(min(attempt, 20))
	if d <= 0 || d > backoffCap {
		d = backoffCap
	}
	cl.rngMu.Lock()
	if cl.rng == nil {
		seed := cl.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		cl.rng = rand.New(rand.NewSource(seed))
	}
	jittered := time.Duration(cl.rng.Int63n(int64(d))) + 1
	cl.rngMu.Unlock()
	if cl.Sleep != nil {
		return cl.Sleep(ctx, jittered)
	}
	return sleepCtx(ctx, jittered)
}

// sleepCtx waits d on a timer, or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
