package scan

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
)

// Result is the outcome of probing one address.
type Result struct {
	Addr netaddr.Addr
	// Open reports a successful protocol handshake.
	Open bool
	// RTT is the observed (or simulated) round-trip time.
	RTT time.Duration
	// Banner holds the first bytes the service sent, when banner
	// grabbing is enabled.
	Banner []byte
}

// Prober performs one probe. Implementations must be safe for concurrent
// use by multiple scanner workers.
type Prober interface {
	Probe(ctx context.Context, addr netaddr.Addr) (Result, error)
}

// SimProber answers probes from an in-memory responsive-address set: the
// offline stand-in for 2.8 billion real SYN packets. Loss and latency are
// drawn deterministically per address so repeated scans are reproducible.
type SimProber struct {
	addrs []netaddr.Addr // sorted
	// LossRate is the probability that a probe to a live host is dropped.
	LossRate float64
	// BaseRTT and JitterRTT shape the simulated latency.
	BaseRTT, JitterRTT time.Duration
	seed               int64
}

// NewSimProber builds a simulation prober for the given responsive set.
func NewSimProber(responsive []netaddr.Addr, lossRate float64, seed int64) (*SimProber, error) {
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("scan: loss rate %v outside [0,1)", lossRate)
	}
	cp := make([]netaddr.Addr, len(responsive))
	copy(cp, responsive)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return &SimProber{
		addrs:     cp,
		LossRate:  lossRate,
		BaseRTT:   20 * time.Millisecond,
		JitterRTT: 30 * time.Millisecond,
		seed:      seed,
	}, nil
}

// Probe implements Prober.
func (s *SimProber) Probe(_ context.Context, addr netaddr.Addr) (Result, error) {
	res := Result{Addr: addr}
	// A hand-rolled lower bound, like addrAt's: this runs once per probe.
	lo, hi := 0, len(s.addrs) // first i with addrs[i] >= addr
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.addrs[mid] < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	live := lo < len(s.addrs) && s.addrs[lo] == addr
	// Deterministic per-address randomness: hash the address with the
	// seed (splitmix64 finalizer).
	h := uint64(addr) + uint64(s.seed)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if live {
		if s.LossRate > 0 && float64(h%1000000)/1000000 < s.LossRate {
			return res, nil // dropped
		}
		res.Open = true
		res.RTT = s.BaseRTT + time.Duration(h%uint64(s.JitterRTT+1))
	}
	return res, nil
}

// TCPProber performs real TCP connect scans with optional banner
// grabbing — the live-network backend for the scan engine. It is used by
// the examples against local listeners; pointing it at networks you do
// not own is exactly the footprint this library exists to reduce.
type TCPProber struct {
	// Port is the destination TCP port.
	Port int
	// Timeout bounds the connect (and banner read) per probe.
	Timeout time.Duration
	// BannerBytes, when positive, reads up to this many bytes after
	// connecting.
	BannerBytes int
	// Dialer overrides the default dialer (tests use it to stub DNS-free
	// local dialing).
	Dialer *net.Dialer
}

// Probe implements Prober.
func (t *TCPProber) Probe(ctx context.Context, addr netaddr.Addr) (Result, error) {
	res := Result{Addr: addr}
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	dialer := t.Dialer
	if dialer == nil {
		dialer = &net.Dialer{}
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	conn, err := dialer.DialContext(dctx, "tcp", net.JoinHostPort(addr.String(), strconv.Itoa(t.Port)))
	if err != nil {
		// A dial that failed because the parent context died is not a
		// scan outcome at all: surface ctx.Err() so Report.Errors and the
		// engine's abort paths stay honest under cancellation and
		// deadline storms. The per-probe timeout (dctx expiring on its
		// own) stays a normal closed/filtered result.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, ctxErr
		}
		// Closed/filtered ports are a normal scan outcome, not an error.
		return res, nil
	}
	defer conn.Close()
	res.Open = true
	res.RTT = time.Since(start)
	if t.BannerBytes > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		buf := make([]byte, t.BannerBytes)
		n, _ := conn.Read(buf)
		res.Banner = buf[:n]
	}
	return res, nil
}

// FlakyProber wraps a Prober and injects failures: every failEvery-th
// probe returns an error. It exists for failure-injection tests of the
// engine's error accounting.
type FlakyProber struct {
	Inner     Prober
	FailEvery int

	mu sync.Mutex
	n  int
}

// Probe implements Prober.
func (f *FlakyProber) Probe(ctx context.Context, addr netaddr.Addr) (Result, error) {
	f.mu.Lock()
	f.n++
	fail := f.FailEvery > 0 && f.n%f.FailEvery == 0
	f.mu.Unlock()
	if fail {
		return Result{Addr: addr}, fmt.Errorf("scan: injected failure for %v", addr)
	}
	return f.Inner.Probe(ctx, addr)
}
