package coord

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// This file keeps the coordinator's transitions as they were written
// before the campaign cycle machine (scan.CycleMachine) took over the
// reseed: every public method locks, reclaims expired leases, mutates
// and saves with its own "if dirty" branches, and the cycle's last
// Complete reseeds through a one-shot core.SelectCached with the
// coordinator's own early-finish rules. The bodies are verbatim apart
// from the ref prefix on their names; the state types, the spec
// validation and the address-set helpers are the package's own. The
// seeded schedule explorer (explorer_test.go) pins the live coordinator
// to it. Two differences are known and documented: the reference
// changes memory without saving when Status or a fenced upload reclaims
// an expired lease, and its final CycleSummary carries no
// Selected/SpaceShare.

// refCoordinator owns the campaign state machines. Every public method is
// one atomic transition: validate, mutate, persist, reply. The clock is
// injectable so lease expiry is deterministic under test.
type refCoordinator struct {
	mu        sync.Mutex
	store     Store
	now       func() time.Time
	nextLease uint64
	campaigns map[string]*campaignState
}

// newRefCoordinator builds a coordinator over store, reloading any state a
// previous process saved there. A torn or corrupt store is a refusal,
// not a fresh start: silently dropping leases would double-probe every
// in-flight shard. now is the lease clock (nil = time.Now).
func newRefCoordinator(store Store, now func() time.Time) (*refCoordinator, error) {
	if now == nil {
		now = time.Now
	}
	c := &refCoordinator{
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
		if len(cs.Plan) > 0 {
			if cs.plan, err = parsePartition(cs.Plan); err != nil {
				return nil, fmt.Errorf("coord: campaign %s plan: %w", id, err)
			}
		}
		c.campaigns[id] = cs
	}
	return c, nil
}

// Campaigns lists the registered campaign IDs, sorted.
func (c *refCoordinator) Campaigns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.campaigns))
	for id := range c.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CreateCampaign validates and registers a campaign, persisting it
// before the call returns.
func (c *refCoordinator) CreateCampaign(spec CampaignSpec) error {
	spec = spec.withDefaults()
	universe, targets, err := spec.validate()
	if err != nil {
		return err
	}
	plan := targets
	if plan.Len() == 0 {
		plan = universe
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.campaigns[spec.ID]; ok {
		return fmt.Errorf("%w: %s", ErrCampaignExists, spec.ID)
	}
	cs := &campaignState{
		Spec:     spec,
		Plan:     formatPartition(plan),
		Shards:   freshShards(spec.Shards),
		universe: universe,
		plan:     plan,
	}
	c.campaigns[spec.ID] = cs
	return c.saveLocked()
}

// Acquire leases a shard of campaign to worker. It returns (nil, true)
// when the campaign is finished, (nil, false) when every shard is
// currently leased or done — come back later — and a lease otherwise.
// Expired leases are reclaimed first, so a crashed worker's shard is
// handed out here, checkpoint attached.
func (c *refCoordinator) Acquire(campaign, worker string) (*Lease, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[campaign]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaign)
	}
	dirty := c.expireLocked(cs)
	if cs.Done {
		if dirty {
			if err := c.saveLocked(); err != nil {
				return nil, false, err
			}
		}
		return nil, true, nil
	}
	idx := -1
	for i, sh := range cs.Shards {
		if sh.State == shardPending {
			idx = i
			break
		}
	}
	if idx < 0 {
		if dirty {
			if err := c.saveLocked(); err != nil {
				return nil, false, err
			}
		}
		return nil, false, nil
	}
	sh := cs.Shards[idx]
	c.nextLease++
	sh.State = shardLeased
	sh.LeaseID = fmt.Sprintf("L%08d", c.nextLease)
	sh.Worker = worker
	sh.Deadline = c.now().Add(cs.Spec.LeaseTTL)
	cs.Releases++
	lease := &Lease{
		LeaseID:     sh.LeaseID,
		Campaign:    campaign,
		Cycle:       cs.Cycle,
		Shard:       idx,
		Shards:      cs.Spec.Shards,
		Workers:     cs.Spec.Workers,
		Seed:        cs.Spec.Seed + int64(cs.Cycle),
		Rate:        cs.Spec.Rate,
		Exclude:     append([]string(nil), cs.Spec.Exclude...),
		PrefixRate:  cs.Spec.PrefixRate,
		PrefixBurst: cs.Spec.PrefixBurst,
		ChunkProbes: cs.Spec.ChunkProbes,
		TTL:         cs.Spec.LeaseTTL,
		Plan:        cs.Plan,
		Checkpoint:  refCloneCheckpoint(sh.Checkpoint),
	}
	if err := c.saveLocked(); err != nil {
		return nil, false, err
	}
	return lease, false, nil
}

// Heartbeat renews a lease and commits the holder's latest cumulative
// upload. It returns the new deadline; ErrLeaseLost means the worker no
// longer owns the shard (expired and possibly re-leased) and must stop.
func (c *refCoordinator) Heartbeat(campaign, leaseID string, up Upload) (time.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, sh, err := c.leaseShardLocked(campaign, leaseID)
	if err != nil {
		return time.Time{}, err
	}
	sh.Deadline = c.now().Add(cs.Spec.LeaseTTL)
	sh.Checkpoint = refCloneCheckpoint(up.Checkpoint)
	sh.Current = append([]netaddr.Addr(nil), up.Responsive...)
	sh.CurProbed, sh.CurErrors = up.Probed, up.Errors
	if err := c.saveLocked(); err != nil {
		return time.Time{}, err
	}
	return sh.Deadline, nil
}

// Complete marks a leased shard finished with its final results. When it
// was the cycle's last shard the coordinator reseeds: merge all shards'
// responsive sets, select over the universe, and open the next cycle —
// or finish the campaign.
func (c *refCoordinator) Complete(campaign, leaseID string, up Upload) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, sh, err := c.leaseShardLocked(campaign, leaseID)
	if err != nil {
		return err
	}
	prev := *sh
	sh.State = shardDone
	sh.LeaseID = ""
	sh.Deadline = time.Time{}
	sh.Checkpoint = nil
	sh.Current = append([]netaddr.Addr(nil), up.Responsive...)
	sh.CurProbed, sh.CurErrors = up.Probed, up.Errors
	for _, other := range cs.Shards {
		if other.State != shardDone {
			return c.saveLocked()
		}
	}
	if err := c.finishCycleLocked(cs); err != nil {
		// Roll the shard transition back: finishCycleLocked mutates
		// nothing on failure, so restoring the shard keeps the in-memory
		// state identical to the durable store, the lease stays owned by
		// this worker, and its retried Complete re-runs the whole
		// transition instead of being fenced off a wedged campaign.
		*sh = prev
		return err
	}
	return c.saveLocked()
}

// Status reports a campaign's externally visible state.
func (c *refCoordinator) Status(campaign string) (*Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[campaign]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaign)
	}
	c.expireLocked(cs)
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
	return st, nil
}

// leaseShardLocked resolves a lease ID to its shard after reclaiming
// expired leases, enforcing fencing: a lease that expired (even if the
// shard has not been re-leased yet) is lost, not resurrected.
func (c *refCoordinator) leaseShardLocked(campaign, leaseID string) (*campaignState, *shardState, error) {
	cs, ok := c.campaigns[campaign]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaign)
	}
	c.expireLocked(cs)
	for _, sh := range cs.Shards {
		if sh.State == shardLeased && sh.LeaseID == leaseID {
			return cs, sh, nil
		}
	}
	if leaseID == "" || c.nextLease < refLeaseNumber(leaseID) {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownLease, leaseID)
	}
	return nil, nil, fmt.Errorf("%w: %s", ErrLeaseLost, leaseID)
}

// refLeaseNumber extracts the counter from a lease ID ("L%08d"); malformed
// IDs map to a number larger than any issued.
func refLeaseNumber(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "L%d", &n); err != nil {
		return ^uint64(0)
	}
	return n
}

// expireLocked reclaims expired leases of one campaign: the shard goes
// back to pending with the last uploaded checkpoint attached and the
// lease's uploaded results folded into the shard's base set, so the
// next holder resumes exactly past everything already probed and no
// found address is lost. Reports whether state changed.
func (c *refCoordinator) expireLocked(cs *campaignState) bool {
	now := c.now()
	dirty := false
	for _, sh := range cs.Shards {
		if sh.State != shardLeased || now.Before(sh.Deadline) {
			continue
		}
		sh.State = shardPending
		sh.LeaseID = ""
		sh.Worker = ""
		sh.Deadline = time.Time{}
		sh.Base = mergeAddrs(sh.Base, sh.Current)
		sh.Current = nil
		sh.BaseProbed += sh.CurProbed
		sh.BaseErrors += sh.CurErrors
		sh.CurProbed, sh.CurErrors = 0, 0
		dirty = true
	}
	return dirty
}

// finishCycleLocked merges the completed cycle's shard results, records
// the summary, and either reseeds the next cycle's plan (the paper's
// census→rank→select step, run centrally) or finishes the campaign.
// All-or-nothing: every fallible step runs before the first mutation,
// so a failed reseed leaves the campaign state exactly as it was and
// the caller can safely retry (or roll back its own transition).
func (c *refCoordinator) finishCycleLocked(cs *campaignState) error {
	var responsive []netaddr.Addr
	var probed, errors uint64
	for _, sh := range cs.Shards {
		responsive = mergeAddrs(responsive, mergeAddrs(sh.Base, sh.Current))
		probed += sh.BaseProbed + sh.CurProbed
		errors += sh.BaseErrors + sh.CurErrors
	}
	snap := census.NewSnapshot(cs.Spec.Protocol, cs.Cycle, responsive)
	summary := CycleSummary{
		Cycle:      cs.Cycle,
		Plan:       len(cs.Plan),
		Probed:     probed,
		Errors:     errors,
		Responsive: snap.Hosts(),
		Releases:   cs.Releases,
	}
	last := cs.Cycle+1 >= cs.Spec.Cycles
	done, note := last, ""
	var nextPlan rib.Partition
	switch {
	case !last && len(responsive) == 0:
		// Nothing answered: there is no snapshot to select from, and the
		// next cycle would scan an empty plan forever. Finish early.
		done = true
		note = fmt.Sprintf("cycle %d found no responsive hosts; campaign finished early", cs.Cycle)
	case !last:
		sel, err := core.SelectCached(snap, cs.universe,
			core.Options{Phi: cs.Spec.Phi, MinDensity: cs.Spec.MinDensity}, 0, nil)
		if err != nil {
			return fmt.Errorf("coord: campaign %s cycle %d selection: %w", cs.Spec.ID, cs.Cycle, err)
		}
		summary.Selected = sel.K
		summary.SpaceShare = sel.SpaceShare
		nextPlan = sel.Partition()
		if nextPlan.Len() == 0 {
			done = true
			note = fmt.Sprintf("cycle %d selected no prefixes (no responsive hosts); campaign finished early", cs.Cycle)
		}
	}

	cs.Final = snap.Addrs
	cs.History = append(cs.History, summary)
	if done {
		cs.Done = true
		cs.Note = note
		return nil
	}
	cs.plan = nextPlan
	cs.Plan = formatPartition(nextPlan)
	cs.Cycle++
	cs.Shards = freshShards(cs.Spec.Shards)
	cs.Releases = 0
	return nil
}

// saveLocked serializes everything to the store; called under the lock
// after every mutation so the durable state never trails the replies
// workers have seen.
func (c *refCoordinator) saveLocked() error {
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

func refCloneCheckpoint(cp *scan.Checkpoint) *scan.Checkpoint {
	if cp == nil {
		return nil
	}
	out := *cp
	out.Consumed = append([]uint64(nil), cp.Consumed...)
	if cp.ASProbed != nil {
		out.ASProbed = make(map[uint32]uint64, len(cp.ASProbed))
		for k, v := range cp.ASProbed {
			out.ASProbed[k] = v
		}
	}
	return &out
}
