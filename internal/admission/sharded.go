package admission

import (
	"gmfnet/internal/core"
	"gmfnet/internal/network"
)

// ShardedController is the closure-sharded admission controller: it
// routes every request to the interference closure it belongs to and
// decides it inside that closure's private shard engine, so requests
// into disjoint closures (different fat-tree pods, separate ring
// segments) never share analysis state and a batch spanning several
// closures is decided closure by closure. It is the production
// controller: gmfnet-admitd, gmfnet-load, gmfnet-admit and the gmfnet
// facade run it.
//
// Decisions are identical to a whole-network analysis's: a flow's
// bounds depend only on the flows its pipeline transitively shares
// resources with, so analysing its closure in isolation computes the
// exact same fixpoint one engine over the whole network would. A
// newcomer whose pipeline bridges two closures fuses their shards (a
// warm arena splice — see core.ShardedEngine) before admission; a
// batch whose specs bridge closures is decided group-by-group on the
// fused shard. The equality with the cold referee (ColdController) is
// pinned by differential tests on ring, fat-tree and the shipped
// industrial-ring topologies, and by the golden replay traces.
//
// Resident registry and deferred departures. The shard engine owns the
// resident registry (core.Residents, read through Residents), in
// admission order; its link index routes every request to its shard.
// Release claims the first resident with the name — in global
// admission order, even when names repeat — from the registry in
// O(route length), reading the shard that holds it, fires
// FoldReleased, queues the removal and returns. Queued removals are
// applied, in claim order, before any later call that reads or changes
// shard state, and by Flush; each costs one scan of the departing
// flow's shard (core.ShardedEngine.Remove). A caller that is idle between
// operations calls Flush so the next one does not pay for them.
// Removal errors — unreachable for flows this controller admitted —
// surface at the next Flush or Close.
//
// Re-splitting is off the hot path: neither a departure nor a fusion
// for a rejected request re-splits, so a shard may hold several
// disjoint closures for a while. It decides exactly as the split
// shards would — residents are schedulable, so a verdict reduces to
// the request's own closure — so only the partition's grain, never a
// decision, depends on when Resplit runs. NumShards and Close re-split;
// long-running callers re-split periodically through Sharded().Resplit.
//
// Error contract. A malformed Request returns its error and admits
// nothing. RequestBatch pre-validates the whole batch, so a malformed
// spec fails the batch with no decisions. An analysis error mid-batch
// — unreachable for validated specs on a validated topology — rolls
// the failing group back in full, while the groups that finished keep
// their admissions, recorded like any other (visible via Decisions,
// releasable via Release); RequestBatch then returns the error and no
// decisions. A decision's record covers the request's interference
// closure, not the whole network; see Decision.
//
// A ShardedController is not safe for concurrent use, and it starts no
// goroutine: every call decides on the caller's goroutine.
type ShardedController struct {
	se *core.ShardedEngine

	// departing holds the residents Release claimed whose removal from
	// their shard has not run yet, in claim order.
	departing []core.Departure
	err       error // first removal or re-split error since the last Flush

	retention Retention
	notify    func(FoldEvent)
	decisions []Decision

	admitted, rejected, released int
}

// FoldKind classifies a FoldEvent.
type FoldKind int

const (
	// FoldAdmitted: the flow was admitted and is now resident.
	FoldAdmitted FoldKind = iota
	// FoldRejected: the request was rejected; the flow never entered
	// the network.
	FoldRejected
	// FoldReleased: a resident flow was claimed by Release and is
	// departing.
	FoldReleased
)

// FoldEvent describes one flow-set change at the moment it folds into
// the controller's bookkeeping: an admission or rejection entering the
// decision log (in request order, batch members included), or a
// departure claimed by Release. Spec is the exact *network.FlowSpec
// pointer the caller submitted, so consumers can key shadow state on
// identity.
type FoldEvent struct {
	Spec *network.FlowSpec
	Kind FoldKind
}

// Retention selects how much per-decision state the controller keeps.
type Retention int

const (
	// RetainCounters folds every decision into the admitted/rejected
	// counters and logs nothing; a returned decision's record carries
	// the verdict and its stats but no flow set. Memory per request is
	// constant — the default, so serving or replaying millions of
	// requests keeps no log that would otherwise dominate memory.
	RetainCounters Retention = iota
	// RetainAll keeps the full decision log, each decision's record
	// retaining the flow set its verdict was computed over, so
	// Decision.Analysis can explain it: what the differential and
	// golden tests compare.
	RetainAll
)

// NewShardedController returns a sharded controller over the network;
// flows already present are treated as admitted and partitioned into
// shards by interference closure. The network is validated once; it is
// only read (shards re-register its flows over the shared topology).
func NewShardedController(nw *network.Network, cfg core.Config) (*ShardedController, error) {
	se, err := core.NewShardedEngine(nw, cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedController{se: se}, nil
}

// SetNotify installs a change-notification hook: fn is invoked once per
// decided request, in request order, and once per departure claimed by
// Release — the serialization point a push-based service
// (internal/admitd) needs to publish verdict deltas without polling.
// fn runs synchronously inside Request, RequestBatch and Release, before
// they return, with an admitted flow already registered (the newest by
// its name) and a departing one still registered (the first by its
// name). fn may read Residents but must not otherwise call back into
// the controller. nil disables.
func (c *ShardedController) SetNotify(fn func(FoldEvent)) { c.notify = fn }

// SetRetention switches the retention mode for the decisions that
// follow; set it before the first request for a uniform log. Decisions
// already logged are kept either way.
func (c *ShardedController) SetRetention(r Retention) { c.retention = r }

// Residents returns the resident registry, read-only. A departure
// leaves it when Release claims it, before its shard removal runs.
func (c *ShardedController) Residents() *core.Residents { return c.se.Residents() }

// Sharded exposes the underlying sharded engine, e.g. to inspect the
// shard partition or read per-shard bounds without issuing a request.
// Queued departures are applied first.
func (c *ShardedController) Sharded() *core.ShardedEngine {
	c.settle()
	return c.se
}

// settle applies the queued departures in claim order, recording the
// first error for Flush.
func (c *ShardedController) settle() {
	for i, d := range c.departing {
		if err := c.se.Remove(d); err != nil && c.err == nil {
			c.err = err
		}
		c.departing[i] = core.Departure{} // a drained queue must not keep shards alive
	}
	c.departing = c.departing[:0]
}

// Request routes the flow to its closure's shard — fusing shards first
// when the flow bridges closures, opening a fresh one when it touches
// none — and decides it there with the standard snapshot / delta
// analysis / rollback protocol, scoped to that one shard.
func (c *ShardedController) Request(fs *network.FlowSpec) (Decision, error) {
	c.settle()
	p, err := c.se.Place(fs)
	if err != nil {
		return Decision{}, err
	}
	d, err := decide(p.Engine(), fs, c.retention == RetainAll)
	if err == nil && d.Admitted {
		p.Admit(0)
	}
	p.Done()
	if err != nil {
		return Decision{}, err
	}
	c.fold(fs, &d)
	return d, nil
}

// fold enters one decision, already in the registry when admitted, into
// the counters, the notify hook and — under RetainAll — the decision
// log.
func (c *ShardedController) fold(fs *network.FlowSpec, d *Decision) {
	k := FoldRejected
	if d.Admitted {
		c.admitted++
		k = FoldAdmitted
	} else {
		c.rejected++
	}
	if c.notify != nil {
		c.notify(FoldEvent{Spec: fs, Kind: k})
	}
	if c.retention == RetainAll {
		c.decisions = append(c.decisions, *d)
	}
}

// RequestAll processes the requests in order, stopping at the first
// malformed request; the decisions made before it are returned with
// the error.
func (c *ShardedController) RequestAll(specs []*network.FlowSpec) ([]Decision, error) {
	out := make([]Decision, 0, len(specs))
	for _, fs := range specs {
		d, err := c.Request(fs)
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// RequestBatch decides a batch shard-by-shard: the specs are
// partitioned into interference groups (specs sharing a link with
// each other or with a common shard), every group is placed — fusing
// the shards it bridges, so one engine holds the whole group — and then
// the groups are decided in order, each with one converged worklist and
// violators evicted in request order (decideBatch). Groups are
// independent by construction, so the combined decisions equal
// deciding the batch one request at a time. See the type's error
// contract for what an error leaves behind.
func (c *ShardedController) RequestBatch(specs []*network.FlowSpec) ([]Decision, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	c.settle()
	groups, err := c.se.PlaceBatch(specs)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, len(specs))
	decidedIn := make([]*core.Placement, len(specs))
	var firstErr error
	for _, g := range groups {
		gspecs := make([]*network.FlowSpec, len(g.Indices))
		for at, i := range g.Indices {
			gspecs[at] = specs[i]
		}
		ds, err := decideBatch(g.Engine(), gspecs, c.retention == RetainAll)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		// On error ds is nil: the group was rolled back in full.
		for at, d := range ds {
			out[g.Indices[at]] = d
			decidedIn[g.Indices[at]] = g
		}
		g.Done()
	}
	// Groups that finished keep their admissions even when another
	// failed, so their decisions enter the registry and are folded
	// either way, in request order: Release, Decisions and the counters
	// stay consistent with the shard engines.
	for i, g := range decidedIn {
		if g == nil {
			continue
		}
		if out[i].Admitted {
			g.Admit(i)
		}
		c.fold(specs[i], &out[i])
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Release claims the first resident with the given name — in global
// admission order, even when several residents share a name — fires
// FoldReleased while the flow is still registered, takes it out of the
// registry and queues its removal from the shard that held it (see
// "Deferred departures" above). It reports whether a resident was claimed; the
// error is always nil and stays for the signature ColdController
// shares — removal errors surface at Flush.
func (c *ShardedController) Release(name string) (bool, error) {
	q := c.se.Residents().Named(name)
	if len(q) == 0 {
		return false, nil
	}
	r := q[0]
	c.released++
	if c.notify != nil {
		c.notify(FoldEvent{Spec: r.Spec(), Kind: FoldReleased})
	}
	c.departing = append(c.departing, c.se.Claim(r))
	return true, nil
}

// Flush applies the queued departures and returns (and clears) the
// first removal or re-split error since the last Flush.
func (c *ShardedController) Flush() error {
	c.settle()
	err := c.err
	c.err = nil
	return err
}

// Close flushes and re-splits every shard whose flows no longer form
// one closure, returning the first error. The controller stays usable.
func (c *ShardedController) Close() error {
	c.resplit()
	return c.Flush()
}

// resplit applies the queued departures and re-splits the partition.
// Resplit is atomic per shard, so on error the partition merely stays
// coarser — decisions are unaffected.
func (c *ShardedController) resplit() {
	c.settle()
	if _, err := c.se.Resplit(); err != nil && c.err == nil {
		c.err = err
	}
}

// Decisions returns the logged decisions in request order. Decisions
// made under RetainCounters are counted but not logged.
func (c *ShardedController) Decisions() []Decision { return c.decisions }

// Admitted returns the number of admitted requests, in every retention
// mode.
func (c *ShardedController) Admitted() int { return c.admitted }

// Rejected returns the number of rejected requests, in every retention
// mode.
func (c *ShardedController) Rejected() int { return c.rejected }

// Released returns the number of departures claimed by Release.
func (c *ShardedController) Released() int { return c.released }

// NumResidents returns the number of resident flows — admissions, plus
// flows present at construction, not yet claimed by Release — without
// touching the shards: the registry's length.
func (c *ShardedController) NumResidents() int { return c.se.Residents().Len() }

// NumFlows applies the queued departures and returns the number of
// flows across all shards; it equals NumResidents.
func (c *ShardedController) NumFlows() int {
	c.settle()
	return c.se.NumFlows()
}

// NumShards re-splits the partition and returns the number of live
// shards: one per interference closure.
func (c *ShardedController) NumShards() int {
	c.resplit()
	return c.se.NumShards()
}
