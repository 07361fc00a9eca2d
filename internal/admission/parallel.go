package admission

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gmfnet/internal/core"
	"gmfnet/internal/network"
)

// ParallelController is the multi-core admission controller: the
// closure-sharded test of ShardedController, scheduled across a worker
// pool by core.Scheduler. Every interference closure's shard is owned
// by a serial mailbox goroutine, so decisions within one closure stay
// strictly ordered while requests and batch groups into distinct
// closures are decided concurrently — including across submissions:
// SubmitBatch pipelines batches, so batch k+1's independent closures
// start while batch k's eviction bisection is still running.
//
// Decisions are byte-identical to ShardedController's (and therefore to
// the monolithic and cold controllers') for any serial or pipelined
// submission order; with concurrent submitters from several goroutines
// the interleaving is whatever the dispatch order was, but every
// decision still equals what the serial controller would have decided
// at that point. The equality is pinned by the batch differential
// tests, the golden replay trace, and the fusion stress test.
//
// Bookkeeping (decision log, residents, counters) is folded in
// submission order: a later batch's decisions are recorded only after
// every earlier submission has completed, so Decisions and Release see
// exactly the serial controller's global admission order. The fold is
// structured so the controller lock is off the verdict hot path: each
// group accumulates its decisions lock-free into its ticket's
// pre-sliced output (the per-worker shard — groups partition the
// batch, so writes never overlap), takes the lock exactly once to
// retire itself, and the last group of the head ticket merges the
// whole ticket in one fold step. The counters fold through atomics, so
// Admitted/Rejected/NumResidents never contend with a fold in
// progress.
//
// Error contract: Request and RequestBatch surface their groups' errors
// exactly like ShardedController (decided groups stay recorded).
// Release dispatches the departure asynchronously and returns
// immediately; removal and re-split errors surface at the next Flush
// (or Close). Call Flush at stream boundaries; call Close when done —
// it shuts the mailbox goroutines down.
//
// A ParallelController is safe for concurrent use.
type ParallelController struct {
	se    *core.ShardedEngine
	sched *core.Scheduler

	mu   sync.Mutex
	cond *sync.Cond
	// tickets holds unfolded submissions in submission order; the head
	// folds into decisions/residents as soon as all its groups decided.
	tickets []*PendingBatch
	// residents maps a flow name to its admitted, unreleased specs in
	// global admission order, so Release pops the first admission of
	// that name in O(1) instead of scanning every resident — the
	// difference between O(1) and O(population) per departure when the
	// load harness replays millions of them.
	residents map[string][]*network.FlowSpec
	retention Retention
	notify    func(FoldEvent)
	decisions []Decision

	// The verdict counters are atomics, written at fold time (so they
	// still count folded decisions, in every retention mode) but
	// readable without the controller lock: the monitoring surface of
	// the 1M-request replay never blocks behind a fold or a submission.
	nresident atomic.Int64
	admitted  atomic.Int64
	rejected  atomic.Int64
	released  atomic.Int64
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
// decision log (in global fold order, i.e. submission order), or a
// departure claimed by Release. Spec is the exact *network.FlowSpec
// pointer the caller submitted, so consumers can key shadow state on
// identity.
type FoldEvent struct {
	Spec *network.FlowSpec
	Kind FoldKind
}

// SetNotify installs a post-fold change-notification hook: fn is
// invoked once per folded decision, in fold order, and once per
// departure claimed by Release — the serialization point a push-based
// service (internal/admitd) needs to publish verdict deltas without
// polling. fn runs under the controller's internal lock, possibly on a
// shard mailbox goroutine: it must be fast and must not call back into
// the controller. Set it before the first request; nil disables.
func (c *ParallelController) SetNotify(fn func(FoldEvent)) {
	c.mu.Lock()
	c.notify = fn
	c.mu.Unlock()
}

// Retention selects how much per-decision state the controller keeps.
type Retention int

const (
	// RetainAll keeps the full decision log, each decision carrying its
	// materialized analysis Result: the default, and what the
	// differential and golden tests compare byte for byte.
	RetainAll Retention = iota
	// RetainCounters folds every decision into the admitted/rejected
	// counters and drops the analysis views unmaterialized. Memory per
	// request is constant and the O(closure) bound copy per decision
	// disappears — the retention mode for replaying millions of
	// requests, where the decision log would otherwise dominate memory.
	RetainCounters
)

// SetRetention switches the retention mode. It applies to submissions
// made after the call; set it before the first request for a uniform
// log. Decisions already folded are kept either way.
func (c *ParallelController) SetRetention(r Retention) {
	c.mu.Lock()
	c.retention = r
	c.mu.Unlock()
}

// PendingBatch is one in-flight submission: a ticket whose groups are
// being decided on their shards' mailboxes. Wait blocks for the
// decisions; results are recorded in the controller's log in submission
// order regardless of when Wait is called.
type PendingBatch struct {
	c     *ParallelController
	specs []*network.FlowSpec
	// out and decided are written lock-free by the groups: the groups
	// partition the batch, so each decision index has exactly one
	// writer, and the fold (ordered after every group's completion by
	// the controller lock) reads them settled.
	out     []Decision
	decided []bool
	// remaining counts undecided groups; -1 until the scheduler's
	// prepare callback has counted them (before any group is
	// dispatched, hence before any group can complete).
	remaining int
	err       error
	folded    bool
	single    bool // decide via Controller.Request, not RequestBatch
	lean      bool // retention snapshot at submission: RetainCounters
}

// NewParallelController returns a scheduler-backed controller over the
// network; flows already present are treated as admitted and
// partitioned into shards by interference closure. cfg.Workers sizes
// the worker pool (zero selects GOMAXPROCS — see
// core.Config.PoolWorkers).
func NewParallelController(nw *network.Network, cfg core.Config) (*ParallelController, error) {
	se, err := core.NewShardedEngine(nw, cfg)
	if err != nil {
		return nil, err
	}
	c := &ParallelController{se: se, sched: core.NewScheduler(se)}
	c.cond = sync.NewCond(&c.mu)
	c.residents = make(map[string][]*network.FlowSpec)
	for _, fs := range nw.Flows() {
		c.residents[fs.Flow.Name] = append(c.residents[fs.Flow.Name], fs)
		c.nresident.Add(1)
	}
	return c, nil
}

// Sharded exposes the underlying sharded engine. Reads beyond the
// topology are only safe after Flush or Close (quiescence).
func (c *ParallelController) Sharded() *core.ShardedEngine { return c.se }

// Request decides one flow synchronously: it is submitted, decided on
// its closure's mailbox, and waited for. Identical decisions and error
// returns to ShardedController.Request.
func (c *ParallelController) Request(fs *network.FlowSpec) (Decision, error) {
	t := c.submit([]*network.FlowSpec{fs}, true)
	ds, err := t.Wait()
	if err != nil {
		return Decision{}, err
	}
	return ds[0], nil
}

// RequestAll processes the requests in order, stopping at the first
// malformed request, exactly like ShardedController.RequestAll.
func (c *ParallelController) RequestAll(specs []*network.FlowSpec) ([]Decision, error) {
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

// RequestBatch decides a batch and waits for it: SubmitBatch + Wait.
// Decisions equal ShardedController.RequestBatch's.
func (c *ParallelController) RequestBatch(specs []*network.FlowSpec) ([]Decision, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	t, err := c.SubmitBatch(specs)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// SubmitBatch validates the batch (a malformed spec fails it with no
// decisions, like every batch entry point) and dispatches its
// interference groups to their shards without waiting: the pipelining
// entry point. Groups of this batch that land on idle shards start
// immediately, even while earlier batches' groups — e.g. an eviction
// bisection in a contended closure — are still running; groups sharing
// a shard with earlier work queue behind it in submission order. The
// slice and the specs it holds must stay unmodified until Wait
// returns; the backing array may be reused afterwards.
func (c *ParallelController) SubmitBatch(specs []*network.FlowSpec) (*PendingBatch, error) {
	if len(specs) == 0 {
		return &PendingBatch{folded: true}, nil
	}
	if err := c.se.ValidateSpecs(specs); err != nil {
		return nil, err
	}
	return c.submit(specs, false), nil
}

// submit creates the ticket and hands the specs to the scheduler. The
// ticket enters the fold queue before dispatch, so completions —
// however fast — find it; prepare runs before any group is dispatched,
// so remaining is set before one can complete. It takes the controller
// lock because an earlier ticket's fold may already be reading this
// ticket's count.
func (c *ParallelController) submit(specs []*network.FlowSpec, single bool) *PendingBatch {
	t := &PendingBatch{
		c:         c,
		specs:     specs,
		out:       make([]Decision, len(specs)),
		decided:   make([]bool, len(specs)),
		remaining: -1,
		single:    single,
	}
	c.mu.Lock()
	t.lean = c.retention == RetainCounters
	c.tickets = append(c.tickets, t)
	c.mu.Unlock()
	c.sched.Submit(specs,
		func(groups [][]int) {
			c.mu.Lock()
			t.remaining = len(groups)
			c.mu.Unlock()
		},
		func(members []int, eng *core.Engine, derr error) []bool {
			return c.runGroup(t, members, eng, derr)
		})
	return t
}

// runGroup decides one interference group on its shard's mailbox
// goroutine: the standard serial protocol (Controller.Request or
// .RequestBatch scoped to the shard engine), with the decisions'
// analysis views materialized here — views are engine state and must
// not escape the goroutine that owns the engine. The decisions land in
// the ticket's output lock-free (each group owns its member indices);
// the controller lock is taken exactly once, to retire the group and —
// when it was the last open group of the head ticket — run the fold.
func (c *ParallelController) runGroup(t *PendingBatch, members []int, eng *core.Engine, derr error) []bool {
	var ds []Decision
	err := derr
	if err == nil {
		tmp := &Controller{eng: eng}
		if t.single {
			d, rerr := tmp.Request(t.specs[members[0]])
			if rerr != nil {
				err = rerr
			} else {
				ds = []Decision{d}
			}
		} else {
			gspecs := make([]*network.FlowSpec, len(members))
			for at, i := range members {
				gspecs[at] = t.specs[i]
			}
			ds, err = tmp.RequestBatch(gspecs)
		}
	}
	// Detach the analyses: one materialization per distinct view (an
	// admitted group shares one), closed right after so nothing stays
	// pinned on the shard engine. Under RetainCounters (t.lean, the
	// retention snapshotted at submission) the views are closed without
	// copying — the analysis is never read back.
	mats := make(map[*core.ResultView]*core.Result)
	for i := range ds {
		v := ds[i].View
		if v == nil {
			continue
		}
		r, ok := mats[v]
		if !ok {
			if !t.lean {
				r = v.Materialize()
			}
			mats[v] = r
			v.Close()
		}
		ds[i].Result = r
		ds[i].View = nil
	}
	flags := make([]bool, len(members))
	for at := range members {
		if at < len(ds) {
			t.out[members[at]] = ds[at]
			t.decided[members[at]] = true
			flags[at] = ds[at].Admitted
		}
	}
	c.mu.Lock()
	if err != nil && t.err == nil {
		t.err = err
	}
	t.remaining--
	if t.remaining == 0 {
		c.foldLocked()
	}
	c.mu.Unlock()
	return flags
}

// foldLocked folds completed head tickets into the decision log and
// residents list, preserving submission order: a completed ticket
// behind an unfinished one waits its turn.
func (c *ParallelController) foldLocked() {
	for len(c.tickets) > 0 {
		t := c.tickets[0]
		if t.remaining != 0 {
			break
		}
		for i := range t.out {
			if !t.decided[i] {
				continue // a group that errored decided nothing
			}
			if c.notify != nil {
				k := FoldRejected
				if t.out[i].Admitted {
					k = FoldAdmitted
				}
				c.notify(FoldEvent{Spec: t.specs[i], Kind: k})
			}
			if c.retention == RetainAll {
				c.decisions = append(c.decisions, t.out[i])
			}
			if t.out[i].Admitted {
				c.admitted.Add(1)
				name := t.specs[i].Flow.Name
				c.residents[name] = append(c.residents[name], t.specs[i])
				c.nresident.Add(1)
			} else {
				c.rejected.Add(1)
			}
		}
		t.folded = true
		c.tickets = c.tickets[1:]
	}
	c.cond.Broadcast()
}

// Wait blocks until the submission (and every submission before it) has
// folded, then returns its decisions in request order — or the first
// group error, with decided groups recorded in the controller exactly
// like ShardedController.RequestBatch's error contract.
func (t *PendingBatch) Wait() ([]Decision, error) {
	if t.c == nil { // empty submission
		return nil, nil
	}
	c := t.c
	c.mu.Lock()
	for !t.folded {
		c.cond.Wait()
	}
	err := t.err
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return t.out, nil
}

// Release removes the first admitted flow with the given name in global
// admission order, exactly like the serial controllers. It waits for
// in-flight submissions to fold (so the admission order is complete),
// then dispatches the departure asynchronously to the flow's shard —
// departures on distinct shards overlap with each other and with later
// admissions. It reports whether a resident flow was claimed; removal
// errors surface at the next Flush.
func (c *ParallelController) Release(name string) (bool, error) {
	c.mu.Lock()
	for len(c.tickets) > 0 {
		c.cond.Wait()
	}
	q := c.residents[name]
	if len(q) == 0 {
		c.mu.Unlock()
		return false, nil
	}
	fs := q[0]
	if len(q) == 1 {
		delete(c.residents, name)
	} else {
		c.residents[name] = q[1:]
	}
	c.nresident.Add(-1)
	c.released.Add(1)
	if c.notify != nil {
		c.notify(FoldEvent{Spec: fs, Kind: FoldReleased})
	}
	c.mu.Unlock()
	if !c.sched.Remove(fs) {
		return false, fmt.Errorf("admission: resident flow %q missing from every shard", name)
	}
	return true, nil
}

// Flush waits for every pending decision and departure to complete,
// re-splits shards whose flows no longer form one closure, and returns
// the first asynchronous error since the last Flush.
func (c *ParallelController) Flush() error { return c.sched.Flush() }

// Close flushes and shuts down the shard mailboxes; the controller must
// not be used afterwards (the final counters remain readable).
func (c *ParallelController) Close() error { return c.sched.Close() }

// Decisions returns the folded decisions in submission order. Decisions
// of submissions still in flight are not yet included; Flush first for
// a complete log. Decisions folded under RetainCounters are counted but
// not logged, so they do not appear here.
func (c *ParallelController) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions
}

// Admitted returns the number of admitted flows among the folded
// decisions, in every retention mode. It reads an atomic — monitoring
// never contends with a fold in progress.
func (c *ParallelController) Admitted() int { return int(c.admitted.Load()) }

// Rejected returns the number of rejected requests among the folded
// decisions, in every retention mode.
func (c *ParallelController) Rejected() int { return int(c.rejected.Load()) }

// NumResidents returns the number of resident flows: admissions (plus
// flows present at construction) not yet claimed by Release. Unlike
// NumFlows it reads the fold-order bookkeeping without waiting for
// in-flight shard work.
func (c *ParallelController) NumResidents() int { return int(c.nresident.Load()) }

// Released returns the number of departures dispatched by Release.
func (c *ParallelController) Released() int { return int(c.released.Load()) }

// NumFlows waits for in-flight work and returns the number of admitted
// flows across all shards.
func (c *ParallelController) NumFlows() int { return c.sched.NumFlows() }

// NumShards waits for in-flight work and returns the number of live
// shards. Until a Flush re-splits, the partition can be coarser than
// the serial controller's (fusions performed for later-rejected
// bridging requests are undone lazily).
func (c *ParallelController) NumShards() int { return c.sched.NumShards() }
