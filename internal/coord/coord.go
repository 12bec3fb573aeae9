// Package coord makes the scan-campaign feedback loop fault-tolerant
// across a fleet: an HTTP+JSON coordinator owns the campaign state
// machine, workers own nothing but a lease.
//
// The unit of work is one shard of one scan cycle — the same ZMap-style
// cycle slice that scan.Config.Shard/Shards gives a single machine. A
// worker acquires a time-bounded lease on a shard, scans it in
// checkpointable chunks, renews the lease by uploading its cursor
// (scan.Checkpoint) plus the responsive addresses found so far, and
// finally marks the shard complete. A lease that is not renewed before
// its deadline — worker crash, network partition — is revoked, and the
// shard is re-leased to the next worker that asks, *with the dead
// worker's last uploaded checkpoint*: the replacement resumes exactly
// where the uploads stopped, so the cycle still probes each address
// exactly once. This is the local Scanner.Resume guarantee lifted to the
// fleet; lease fencing (upload tokens die with the lease) keeps a
// partitioned-but-alive worker from double-counting results it can no
// longer own.
//
// When every shard of a cycle is complete the coordinator merges the
// per-shard responsive sets into a census snapshot, runs the paper's
// re-selection over the campaign universe, and the next cycle's leases
// carry the tightened plan — scan.Campaign's loop, with the coordinator
// as the only stateful party.
//
// All coordinator state — campaigns, outstanding leases, uploaded
// cursors, partial cycles — persists through a pluggable Store after
// every mutation, so a coordinator crash loses nothing: the restarted
// process reloads the store and honors the leases its predecessor
// issued.
package coord

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// Sentinel errors, mapped onto HTTP statuses by the handler and back
// into errors by the client.
var (
	// ErrUnknownCampaign means the campaign ID is not registered.
	ErrUnknownCampaign = errors.New("coord: unknown campaign")
	// ErrUnknownLease means the lease ID was never issued.
	ErrUnknownLease = errors.New("coord: unknown lease")
	// ErrLeaseLost means the lease expired or was superseded: the worker
	// no longer owns the shard and must discard its buffered results.
	ErrLeaseLost = errors.New("coord: lease lost")
	// ErrCampaignExists rejects a duplicate campaign ID.
	ErrCampaignExists = errors.New("coord: campaign already exists")
	// ErrInvalidSpec rejects a CampaignSpec that fails validation:
	// resending the same spec cannot succeed, so clients do not retry.
	ErrInvalidSpec = errors.New("coord: invalid campaign spec")
)

// invalidSpecError marks a validation failure as ErrInvalidSpec while
// keeping its own message, which names the failing check.
type invalidSpecError struct{ err error }

func (e invalidSpecError) Error() string   { return e.err.Error() }
func (e invalidSpecError) Unwrap() []error { return []error{ErrInvalidSpec, e.err} }

// CampaignSpec is the immutable configuration of a distributed campaign.
// Prefixes travel as CIDR strings so the spec is one self-describing
// JSON document on the wire and in the store.
type CampaignSpec struct {
	// ID names the campaign; all worker requests carry it.
	ID string `json:"id"`
	// Universe is the prefix partition selections are drawn from.
	Universe []string `json:"universe"`
	// Targets, when non-empty, is the cycle-0 scan plan; it defaults to
	// Universe (a full seed scan).
	Targets []string `json:"targets,omitempty"`
	// Phi is the host-coverage target φ for each re-selection.
	Phi float64 `json:"phi"`
	// MinDensity, when positive, stops each selection below the density
	// threshold.
	MinDensity float64 `json:"min_density,omitempty"`
	// Cycles is how many scan-and-reselect iterations to run.
	Cycles int `json:"cycles"`
	// Shards is how many leases each cycle is split into — the fleet's
	// parallelism. Every shard must complete before the cycle reseeds.
	Shards int `json:"shards"`
	// Workers is the scanner worker count used *inside* each leased
	// shard. It is fixed per campaign because the checkpoint cursor
	// layout depends on it: a shard checkpointed under W workers can
	// only be resumed under W workers, on any machine.
	Workers int `json:"workers"`
	// Seed is the cycle-0 permutation seed; cycle i uses Seed+i, exactly
	// like the single-node scan.Campaign.
	Seed int64 `json:"seed"`
	// Rate, when positive, caps each worker's probes per second.
	Rate float64 `json:"rate,omitempty"`
	// Exclude lists prefixes no worker may probe (the operator
	// blocklist), as CIDR strings. It travels in every lease, so a
	// fleet scan enforces the same exclusions as a single-node
	// `tass scan -exclude` — workers may layer their own local list on
	// top, but can never see less than the campaign's.
	Exclude []string `json:"exclude,omitempty"`
	// PrefixRate and PrefixBurst, when set, cap each worker's probes
	// per second into any single target prefix (the politeness layer's
	// per-prefix pacing). The per-AS knobs are not distributed: they
	// need a pfx2as origin mapping on every worker.
	PrefixRate  float64 `json:"prefix_rate,omitempty"`
	PrefixBurst int     `json:"prefix_burst,omitempty"`
	// LeaseTTL bounds how stale a silent worker can be before its shard
	// is re-leased (default 30s).
	LeaseTTL time.Duration `json:"lease_ttl"`
	// ChunkProbes is the checkpoint granularity: a worker uploads its
	// cursor after at most this many probes (default 256). It bounds
	// the work a replacement worker repeats after a hard crash.
	ChunkProbes uint64 `json:"chunk_probes"`
	// Protocol names the census snapshots built from scan results
	// (default "scan").
	Protocol string `json:"protocol,omitempty"`
}

// withDefaults fills the optional knobs.
func (s CampaignSpec) withDefaults() CampaignSpec {
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.LeaseTTL <= 0 {
		s.LeaseTTL = 30 * time.Second
	}
	if s.ChunkProbes == 0 {
		s.ChunkProbes = 256
	}
	if s.Protocol == "" {
		s.Protocol = "scan"
	}
	return s
}

// maxShards bounds a campaign's shard count: the coordinator allocates
// every shard's state up front, so a spec must not be able to ask for
// billions of them.
const maxShards = 1 << 16

// validate checks the spec and returns the parsed universe and targets
// partitions; every failure is an ErrInvalidSpec. The cycle count and
// an empty universe are the campaign machine's to refuse.
func (s CampaignSpec) validate() (universe, targets rib.Partition, err error) {
	defer func() {
		if err != nil {
			err = invalidSpecError{err}
		}
	}()
	switch {
	case s.ID == "":
		return universe, targets, fmt.Errorf("coord: campaign needs an ID")
	case s.Shards <= 0 || s.Shards > maxShards:
		return universe, targets, fmt.Errorf("coord: campaign needs 1 to %d shards, got %d", maxShards, s.Shards)
	case s.Phi <= 0 || s.Phi > 1:
		return universe, targets, fmt.Errorf("coord: φ must be in (0,1], got %v", s.Phi)
	case math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || s.Rate < 0:
		return universe, targets, fmt.Errorf("coord: rate must be finite and non-negative, got %v", s.Rate)
	case math.IsNaN(s.PrefixRate) || math.IsInf(s.PrefixRate, 0) || s.PrefixRate < 0:
		return universe, targets, fmt.Errorf("coord: prefix rate must be finite and non-negative, got %v", s.PrefixRate)
	}
	if universe, err = parsePartition(s.Universe); err != nil {
		return universe, targets, fmt.Errorf("coord: universe: %w", err)
	}
	if targets, err = parsePartition(s.Targets); err != nil {
		return universe, targets, fmt.Errorf("coord: targets: %w", err)
	}
	// Exclusions may overlap each other and the universe freely (they
	// form a trie, not a partition), but every entry must parse: a typo
	// discovered at lease time would stall the whole fleet.
	for _, x := range s.Exclude {
		if _, err := netaddr.ParsePrefix(x); err != nil {
			return universe, targets, fmt.Errorf("coord: exclusion %q: %w", x, err)
		}
	}
	return universe, targets, nil
}

// parsePartition parses CIDR strings into a disjoint partition.
func parsePartition(cidrs []string) (rib.Partition, error) {
	ps := make([]netaddr.Prefix, 0, len(cidrs))
	for _, s := range cidrs {
		p, err := netaddr.ParsePrefix(s)
		if err != nil {
			return rib.Partition{}, err
		}
		ps = append(ps, p)
	}
	return rib.NewPartition(ps)
}

// formatPartition renders a partition back to CIDR strings.
func formatPartition(p rib.Partition) []string {
	out := make([]string, p.Len())
	for i := 0; i < p.Len(); i++ {
		out[i] = p.Prefix(i).String()
	}
	return out
}

// Lease is one granted shard of one cycle: everything a worker needs to
// run its slice of the scan, plus the fencing token (LeaseID) that
// scopes its uploads.
type Lease struct {
	// LeaseID fences uploads: it dies when the lease expires or the
	// shard completes, so a late upload from a dead lease is rejected.
	LeaseID string `json:"lease_id"`
	// Campaign and Cycle locate the shard in the state machine.
	Campaign string `json:"campaign"`
	Cycle    int    `json:"cycle"`
	// Shard of Shards is the cycle slice, in scan.Config terms.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Workers is the scanner worker count the shard must run (and
	// resume) under.
	Workers int `json:"workers"`
	// Seed is this cycle's permutation seed (spec seed + cycle).
	Seed int64 `json:"seed"`
	// Rate caps the worker's probes per second (0 = unlimited).
	Rate float64 `json:"rate,omitempty"`
	// Exclude is the campaign's operator blocklist as CIDR strings; the
	// worker must never probe these, exactly like a single-node scan
	// with -exclude.
	Exclude []string `json:"exclude,omitempty"`
	// PrefixRate and PrefixBurst cap the worker's probes per second
	// into any single target prefix (0 = off).
	PrefixRate  float64 `json:"prefix_rate,omitempty"`
	PrefixBurst int     `json:"prefix_burst,omitempty"`
	// ChunkProbes is the checkpoint cadence the worker should scan at.
	ChunkProbes uint64 `json:"chunk_probes"`
	// TTL is the lease duration; the worker must renew (heartbeat)
	// before it elapses or the shard will be re-leased.
	TTL time.Duration `json:"ttl"`
	// Plan is the cycle's scan plan as CIDR strings.
	Plan []string `json:"plan"`
	// Checkpoint, when non-nil, is the cursor a previous (dead) holder
	// of this shard uploaded: the worker must Resume from it so the
	// cycle probes each address exactly once.
	Checkpoint *scan.Checkpoint `json:"checkpoint,omitempty"`
}

// Upload is the worker→coordinator payload of a heartbeat (partial) or
// completion (final): the cursor and everything found under this lease
// so far. Heartbeat uploads are cumulative per lease and replace the
// previous upload; the checkpoint and responsive set always describe
// the same consistent instant (a chunk boundary).
type Upload struct {
	// Checkpoint is the cursor at the chunk boundary (nil on Complete:
	// a finished shard has no cursor).
	Checkpoint *scan.Checkpoint `json:"checkpoint,omitempty"`
	// Responsive lists the open addresses this lease has found, sorted.
	Responsive []netaddr.Addr `json:"responsive"`
	// Probed and Errors count this lease's probes.
	Probed uint64 `json:"probed"`
	Errors uint64 `json:"errors"`
}

// CycleSummary records one completed distributed cycle.
type CycleSummary struct {
	Cycle      int     `json:"cycle"`
	Plan       int     `json:"plan_prefixes"`
	Probed     uint64  `json:"probed"`
	Errors     uint64  `json:"errors"`
	Responsive int     `json:"responsive"`
	Selected   int     `json:"selected"`
	SpaceShare float64 `json:"space_share"`
	// Releases counts lease grants for the cycle; more grants than
	// shards means at least one shard was re-leased after a failure.
	Releases int `json:"releases"`
}

// ShardStatus is the externally visible state of one shard.
type ShardStatus struct {
	Index    int       `json:"index"`
	State    string    `json:"state"` // "pending" | "leased" | "done"
	Worker   string    `json:"worker,omitempty"`
	LeaseID  string    `json:"lease_id,omitempty"`
	Deadline time.Time `json:"deadline,omitzero"`
	// Resumable reports whether a checkpoint is waiting for the next
	// holder.
	Resumable bool `json:"resumable,omitempty"`
}

// Status is the coordinator's answer to a campaign status query.
type Status struct {
	ID      string         `json:"id"`
	Cycle   int            `json:"cycle"`
	Cycles  int            `json:"cycles"`
	Done    bool           `json:"done"`
	Note    string         `json:"note,omitempty"`
	Plan    []string       `json:"plan"`
	Shards  []ShardStatus  `json:"shards"`
	History []CycleSummary `json:"history,omitempty"`
	// Responsive is the final cycle's responsive set, populated once the
	// campaign is done.
	Responsive []netaddr.Addr `json:"responsive,omitempty"`
}
