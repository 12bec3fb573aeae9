package coord

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// Shard lifecycle states. pending → leased → (expired → pending)* →
// done. A cycle completes when every shard is done; the campaign
// completes when its cycle machine finishes (after the last cycle, or
// early when a cycle finds or selects nothing).
const (
	shardPending = "pending"
	shardLeased  = "leased"
	shardDone    = "done"
)

// shardState is one shard of the current cycle.
type shardState struct {
	State    string    `json:"state"`
	LeaseID  string    `json:"lease_id,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	Deadline time.Time `json:"deadline,omitzero"`
	// Checkpoint is the cursor the shard's current or last holder most
	// recently uploaded; a re-lease hands it to the replacement.
	Checkpoint *scan.Checkpoint `json:"checkpoint,omitempty"`
	// Base accumulates results inherited from expired leases of this
	// shard; Current is the live lease's latest (cumulative) upload.
	// Both halves of an upload — cursor and results — commit together,
	// so Base∪Current is always consistent with Checkpoint.
	Base       []netaddr.Addr `json:"base,omitempty"`
	Current    []netaddr.Addr `json:"current,omitempty"`
	BaseProbed uint64         `json:"base_probed,omitempty"`
	BaseErrors uint64         `json:"base_errors,omitempty"`
	CurProbed  uint64         `json:"cur_probed,omitempty"`
	CurErrors  uint64         `json:"cur_errors,omitempty"`
}

// campaignState is the full durable state of one campaign. Exported
// fields persist; the partition caches rebuild on load.
type campaignState struct {
	Spec    CampaignSpec   `json:"spec"`
	Cycle   int            `json:"cycle"`
	Plan    []string       `json:"plan"`
	Done    bool           `json:"done"`
	Note    string         `json:"note,omitempty"`
	Shards  []*shardState  `json:"shards"`
	History []CycleSummary `json:"history,omitempty"`
	// Releases counts lease grants in the current cycle.
	Releases int `json:"releases,omitempty"`
	// Final is the last completed cycle's responsive set, kept so a
	// finished campaign's result outlives its shards.
	Final []netaddr.Addr `json:"final,omitempty"`

	universe rib.Partition // cached parse of Spec.Universe
	plan     rib.Partition // cached parse of Plan
}

// persistentState is the blob handed to the Store.
type persistentState struct {
	Version   int                       `json:"v"`
	NextLease uint64                    `json:"next_lease"`
	Campaigns map[string]*campaignState `json:"campaigns"`
}

// Coordinator owns the campaigns' durable state. Every public method is
// one atomic transition: lock, apply the transition to the campaign
// state at the current time, save if it changed anything, reply. The
// clock is injectable so lease expiry is deterministic under test.
type Coordinator struct {
	mu        sync.Mutex
	store     Store
	now       func() time.Time
	nextLease uint64
	campaigns map[string]*campaignState
}

// NewCoordinator builds a coordinator over store, reloading any state a
// previous process saved there. A torn or corrupt store is a refusal,
// not a fresh start: silently dropping leases would double-probe every
// in-flight shard. now is the lease clock (nil = time.Now).
func NewCoordinator(store Store, now func() time.Time) (*Coordinator, error) {
	if now == nil {
		now = time.Now
	}
	c := &Coordinator{
		store:     store,
		now:       now,
		campaigns: map[string]*campaignState{},
	}
	data, err := store.Load()
	switch {
	case err == ErrNoState:
		return c, nil
	case err != nil:
		return nil, err
	}
	var st persistentState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("coord: decoding saved state: %w", err)
	}
	if st.Version > 1 {
		return nil, fmt.Errorf("coord: saved state version %d is newer than this binary", st.Version)
	}
	c.nextLease = st.NextLease
	for id, cs := range st.Campaigns {
		if cs.universe, err = parsePartition(cs.Spec.Universe); err != nil {
			return nil, fmt.Errorf("coord: campaign %s universe: %w", id, err)
		}
		if cs.plan, err = parsePartition(cs.Plan); err != nil {
			return nil, fmt.Errorf("coord: campaign %s plan: %w", id, err)
		}
		// A spec saved before creation checked rates may hold a negative
		// Rate, which meant no global pacing and which scanners now refuse.
		cs.Spec.Rate = max(cs.Spec.Rate, 0)
		c.campaigns[id] = cs
	}
	return c, nil
}

// Campaigns lists the registered campaign IDs, sorted.
func (c *Coordinator) Campaigns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(maps.Keys(c.campaigns))
}

// CreateCampaign validates and registers a campaign, persisting it
// before the call returns. A failed save registers nothing.
func (c *Coordinator) CreateCampaign(spec CampaignSpec) error {
	spec = spec.withDefaults()
	universe, targets, err := spec.validate()
	if err != nil {
		return err
	}
	cs := &campaignState{Spec: spec, Shards: freshShards(spec.Shards), universe: universe}
	camp := cs.campaign()
	camp.Targets = targets
	m, err := camp.Machine(spec.Cycles) // checks the cycle count and a non-empty universe
	if err != nil {
		return invalidSpecError{fmt.Errorf("coord: %w", err)}
	}
	cs.plan, cs.Plan = m.Plan(), formatPartition(m.Plan())
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.campaigns[spec.ID]; ok {
		return fmt.Errorf("%w: %s", ErrCampaignExists, spec.ID)
	}
	c.campaigns[spec.ID] = cs
	if err := c.saveLocked(); err != nil {
		// The store never saw the campaign, so neither may memory: a
		// retry of the failed call must create it, not find it.
		delete(c.campaigns, spec.ID)
		return err
	}
	return nil
}

func freshShards(n int) []*shardState {
	out := make([]*shardState, n)
	for i := range out {
		out[i] = &shardState{State: shardPending}
	}
	return out
}

// Acquire leases a shard of campaign to worker. It returns (nil, true)
// when the campaign is finished, (nil, false) when every shard is
// currently leased or done — come back later — and a lease otherwise.
// Expired leases are reclaimed first, so a crashed worker's shard is
// handed out here, checkpoint attached.
func (c *Coordinator) Acquire(campaign, worker string) (lease *Lease, done bool, err error) {
	err = c.transition(campaign, func(cs *campaignState, now time.Time) (bool, error) {
		expired := cs.expire(now)
		if done = cs.Done; !done {
			lease = cs.grant(worker, now, &c.nextLease)
		}
		return expired || lease != nil, nil
	})
	if err != nil {
		return nil, false, err
	}
	return lease, done, nil
}

// Heartbeat renews a lease and commits the holder's latest cumulative
// upload. It returns the new deadline; ErrLeaseLost means the worker no
// longer owns the shard (expired and possibly re-leased) and must stop.
func (c *Coordinator) Heartbeat(campaign, leaseID string, up Upload) (time.Time, error) {
	var deadline time.Time
	err := c.transition(campaign, func(cs *campaignState, now time.Time) (bool, error) {
		sh, expired, err := cs.fence(leaseID, now, c.nextLease)
		if err != nil {
			return expired, err
		}
		cs.renew(sh, up, now)
		deadline = sh.Deadline
		return true, nil
	})
	if err != nil {
		return time.Time{}, err
	}
	return deadline, nil
}

// Complete marks a leased shard finished with its final results. When it
// was the cycle's last shard the campaign's cycle machine closes the
// cycle: merge all shards' responsive sets, reseed over the universe,
// and open the next cycle — or finish the campaign.
func (c *Coordinator) Complete(campaign, leaseID string, up Upload) error {
	return c.transition(campaign, func(cs *campaignState, now time.Time) (bool, error) {
		sh, expired, err := cs.fence(leaseID, now, c.nextLease)
		if err == nil {
			err = cs.complete(sh, up)
		}
		return expired || err == nil, err
	})
}

// Status reports a campaign's externally visible state.
func (c *Coordinator) Status(campaign string) (*Status, error) {
	var st *Status
	err := c.transition(campaign, func(cs *campaignState, now time.Time) (bool, error) {
		expired := cs.expire(now)
		st = cs.status()
		return expired, nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// transition runs step on campaign id under the lock at the current
// time and saves if step changed anything, even when it refuses the
// request: memory never runs ahead of the durable store.
func (c *Coordinator) transition(id string, step func(cs *campaignState, now time.Time) (changed bool, err error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	changed, err := step(cs, c.now())
	if changed {
		if serr := c.saveLocked(); serr != nil {
			return serr
		}
	}
	return err
}

// campaign is the scan.Campaign whose cycle machine the coordinator
// drives. Its reseed recounts (GOMAXPROCS workers, no count cache), so
// the machine holds nothing between transitions.
func (cs *campaignState) campaign() *scan.Campaign {
	return &scan.Campaign{
		Universe: cs.universe,
		Opts:     core.Options{Phi: cs.Spec.Phi, MinDensity: cs.Spec.MinDensity},
		Seed:     cs.Spec.Seed,
		Protocol: cs.Spec.Protocol,
	}
}

// machine rebuilds the campaign's cycle machine at its persisted position.
func (cs *campaignState) machine() *scan.CycleMachine {
	return cs.campaign().MachineAt(cs.Spec.Cycles, cs.Cycle, cs.plan)
}

// grant leases the first pending shard to worker under the next lease
// number, or returns nil when every shard is leased or done.
func (cs *campaignState) grant(worker string, now time.Time, issued *uint64) *Lease {
	for i, sh := range cs.Shards {
		if sh.State != shardPending {
			continue
		}
		*issued++
		sh.State, sh.LeaseID, sh.Worker = shardLeased, fmt.Sprintf("L%08d", *issued), worker
		sh.Deadline = now.Add(cs.Spec.LeaseTTL)
		cs.Releases++
		m := cs.machine()
		return &Lease{
			LeaseID:     sh.LeaseID,
			Campaign:    cs.Spec.ID,
			Cycle:       m.Cycle(),
			Shard:       i,
			Shards:      cs.Spec.Shards,
			Workers:     cs.Spec.Workers,
			Seed:        m.Seed(),
			Rate:        cs.Spec.Rate,
			Exclude:     append([]string(nil), cs.Spec.Exclude...),
			PrefixRate:  cs.Spec.PrefixRate,
			PrefixBurst: cs.Spec.PrefixBurst,
			ChunkProbes: cs.Spec.ChunkProbes,
			TTL:         cs.Spec.LeaseTTL,
			Plan:        cs.Plan,
			Checkpoint:  cloneCheckpoint(sh.Checkpoint),
		}
	}
	return nil
}

// fence reclaims expired leases (reporting whether any expired), then
// resolves leaseID to its shard. A lease that expired, even if its shard
// is not re-leased yet, is lost, not resurrected.
func (cs *campaignState) fence(leaseID string, now time.Time, issued uint64) (sh *shardState, expired bool, err error) {
	expired = cs.expire(now)
	for _, sh := range cs.Shards {
		if sh.State == shardLeased && sh.LeaseID == leaseID {
			return sh, expired, nil
		}
	}
	// An ID that does not parse as "L%08d", or above the last one issued,
	// was never granted.
	var n uint64
	if _, err := fmt.Sscanf(leaseID, "L%d", &n); err != nil || issued < n {
		return nil, expired, fmt.Errorf("%w: %s", ErrUnknownLease, leaseID)
	}
	return nil, expired, fmt.Errorf("%w: %s", ErrLeaseLost, leaseID)
}

// renew extends sh's lease and commits the holder's latest upload.
func (cs *campaignState) renew(sh *shardState, up Upload, now time.Time) {
	sh.Deadline = now.Add(cs.Spec.LeaseTTL)
	sh.Checkpoint = cloneCheckpoint(up.Checkpoint)
	sh.Current = append([]netaddr.Addr(nil), up.Responsive...)
	sh.CurProbed, sh.CurErrors = up.Probed, up.Errors
}

// complete marks sh done with its final upload and, when it was the
// cycle's last shard, closes the cycle. If the close fails the shard is
// restored, so a retried Complete under the same lease re-runs it all.
func (cs *campaignState) complete(sh *shardState, up Upload) error {
	prev := *sh
	sh.State, sh.LeaseID, sh.Deadline, sh.Checkpoint = shardDone, "", time.Time{}, nil
	sh.Current = append([]netaddr.Addr(nil), up.Responsive...)
	sh.CurProbed, sh.CurErrors = up.Probed, up.Errors
	for _, other := range cs.Shards {
		if other.State != shardDone {
			return nil
		}
	}
	if err := cs.closeCycle(); err != nil {
		*sh = prev
		return err
	}
	return nil
}

// expire reclaims expired leases: the shard goes back to pending with
// the last uploaded checkpoint attached and the lease's uploaded results
// folded into the shard's base set, so the next holder resumes exactly
// past everything already probed and no found address is lost. Reports
// whether state changed.
func (cs *campaignState) expire(now time.Time) bool {
	changed := false
	for _, sh := range cs.Shards {
		if sh.State != shardLeased || now.Before(sh.Deadline) {
			continue
		}
		*sh = shardState{
			State:      shardPending,
			Checkpoint: sh.Checkpoint,
			Base:       mergeAddrs(sh.Base, sh.Current),
			BaseProbed: sh.BaseProbed + sh.CurProbed,
			BaseErrors: sh.BaseErrors + sh.CurErrors,
		}
		changed = true
	}
	return changed
}

// closeCycle merges the shards' results, closes the cycle on the
// campaign's machine (the census→rank→select step, run centrally) and
// records the summary and the machine's new position. It mutates
// nothing when the machine refuses.
func (cs *campaignState) closeCycle() error {
	var responsive []netaddr.Addr
	var probed, errors uint64
	for _, sh := range cs.Shards {
		responsive = mergeAddrs(responsive, mergeAddrs(sh.Base, sh.Current))
		probed += sh.BaseProbed + sh.CurProbed
		errors += sh.BaseErrors + sh.CurErrors
	}
	m := cs.machine()
	snap, sel, err := m.Close(responsive)
	if err != nil {
		return fmt.Errorf("coord: campaign %s cycle %d selection: %w", cs.Spec.ID, cs.Cycle, err)
	}
	summary := CycleSummary{
		Cycle:      cs.Cycle,
		Plan:       len(cs.Plan),
		Probed:     probed,
		Errors:     errors,
		Responsive: snap.Hosts(),
		Releases:   cs.Releases,
	}
	if sel != nil {
		summary.Selected, summary.SpaceShare = sel.K, sel.SpaceShare
	}
	cs.Final = snap.Addrs
	cs.History = append(cs.History, summary)
	cs.Done, cs.Note = m.Done(), m.Note()
	if !cs.Done {
		cs.Cycle, cs.plan, cs.Plan = m.Cycle(), m.Plan(), formatPartition(m.Plan())
		cs.Shards = freshShards(cs.Spec.Shards)
		cs.Releases = 0
	}
	return nil
}

// status is the campaign's externally visible state.
func (cs *campaignState) status() *Status {
	st := &Status{
		ID:      cs.Spec.ID,
		Cycle:   cs.Cycle,
		Cycles:  cs.Spec.Cycles,
		Done:    cs.Done,
		Note:    cs.Note,
		Plan:    append([]string(nil), cs.Plan...),
		History: append([]CycleSummary(nil), cs.History...),
	}
	for i, sh := range cs.Shards {
		st.Shards = append(st.Shards, ShardStatus{
			Index:     i,
			State:     sh.State,
			Worker:    sh.Worker,
			LeaseID:   sh.LeaseID,
			Deadline:  sh.Deadline,
			Resumable: sh.Checkpoint != nil,
		})
	}
	if cs.Done {
		st.Responsive = append([]netaddr.Addr(nil), cs.Final...)
	}
	return st
}

// saveLocked serializes everything to the store; called under the lock
// after every mutation so the durable state never trails the replies
// workers have seen.
func (c *Coordinator) saveLocked() error {
	st := persistentState{
		Version:   1,
		NextLease: c.nextLease,
		Campaigns: c.campaigns,
	}
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("coord: encoding state: %w", err)
	}
	if err := c.store.Save(data); err != nil {
		return fmt.Errorf("coord: persisting state: %w", err)
	}
	return nil
}

// mergeAddrs unions two sorted address sets. Shards are disjoint and a
// lease's uploads are cumulative, so duplicates only arise when an
// expired-but-alive worker overlapped its replacement; the union keeps
// the accounting exactly-once regardless.
func mergeAddrs(a, b []netaddr.Addr) []netaddr.Addr {
	if len(a) == 0 {
		return append([]netaddr.Addr(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]netaddr.Addr, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func cloneCheckpoint(cp *scan.Checkpoint) *scan.Checkpoint {
	if cp == nil {
		return nil
	}
	out := *cp
	out.Consumed = append([]uint64(nil), cp.Consumed...)
	out.ASProbed = maps.Clone(cp.ASProbed)
	return &out
}
