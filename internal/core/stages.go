package core

import (
	"gmfnet/internal/ether"
	"gmfnet/internal/gmf"
	"gmfnet/internal/network"
	"gmfnet/internal/units"
)

// hoistInterference fills the analyzer's scratch buffers with the
// loop-invariant inputs of a stage's fixpoints: each listed flow's demand
// at the link rate and its entry jitter at the stage's resource. Both are
// constant while the busy-period and response-time windows iterate, so
// hoisting them out of the fixpoint closures removes every demand-cache
// lookup and pipeline scan from the innermost loops.
func (a *Analyzer) hoistInterference(flows []int, rate units.BitRate, rid network.ResourceID, js *jitterState) ([]*gmf.Demand, []units.Time) {
	dems := a.demScratch[:0]
	exts := a.extScratch[:0]
	for _, j := range flows {
		dems = append(dems, a.demand(js, j, rate))
		exts = append(exts, js.extraOf(j, rid))
	}
	a.demScratch, a.extScratch = dems, exts
	return dems, exts
}

// firstHop implements Section 3.2 (eqs. 14-20): the response time of frame
// k of flow i on the link out of the source node, where the source's
// queuing discipline is any work-conserving one and therefore every flow
// on the link interferes regardless of priority.
//
// It returns the bound including the link's propagation delay (eq. 19).
func (a *Analyzer) firstHop(i, k int, js *jitterState) (units.Time, error) {
	fs := a.nw.Flow(i)
	from, to := fs.Route[0], fs.Route[1]
	link := a.nw.Topo.Link(from, to)
	res := Resource{Kind: KindLink, Node: from, To: to}
	rid := a.nw.FlowResources(i)[0]
	flows := a.nw.FlowsOn(from, to)
	dems, exts := a.hoistInterference(flows, link.Rate, rid, js)

	// Convergence condition (20): total utilisation strictly below 1.
	var util float64
	for _, d := range dems {
		util += d.Utilization()
	}
	if util >= 1 {
		return 0, &OverloadError{Resource: res, Utilization: util}
	}

	di := a.demand(js, i, link.Rate)
	ci := di.Cost(k)

	// Busy-period length (14)-(15). The paper seeds t⁰ = 0, a trivial
	// fixpoint; we seed with the frame's own cost (DESIGN.md F2).
	busy, err := a.fixpoint(res, fs.Flow.Name, k, ci, func(t units.Time) units.Time {
		var next units.Time
		for idx := range dems {
			next += dems[idx].MX(t + exts[idx])
		}
		return next
	})
	if err != nil {
		return 0, err
	}

	// Eqs. (16)-(19): per-instance backlog and response time.
	q1 := units.CeilDivTime(busy, di.TSUM())
	var r, w units.Time
	for q := int64(0); q < q1; q++ {
		self := units.Time(q) * di.CSUM()
		// Seed one picosecond above the self demand so that MX counts the
		// critical-instant releases of interfering flows; a zero-length
		// window would be a degenerate fixpoint (DESIGN.md F2). The
		// previous instance's window is an exact warm seed on top of
		// that: the self term grows with q, so f_q(w) - w = self_q -
		// self_{q-1} >= 0 at w = w(q-1), and no fixpoint of f_q can hide
		// below w(q-1) (on [seed, w(q-1)) the previous map already
		// satisfied f(x) > x, and f_q >= f_{q-1} pointwise). The q loop
		// therefore telescopes — total staircase work proportional to
		// the final window, not q1 full climbs — and returns bit-for-bit
		// the same windows the cold seed would.
		seed := self + 1
		if w > seed {
			seed = w
		}
		var err error
		w, err = a.fixpoint(res, fs.Flow.Name, k, seed, func(w units.Time) units.Time {
			next := self
			for idx, j := range flows {
				if j == i {
					continue
				}
				next += dems[idx].MX(w + exts[idx])
			}
			return next
		})
		if err != nil {
			return 0, err
		}
		if rq := w - units.Time(q)*di.TSUM() + ci; rq > r {
			r = rq
		}
	}
	return r + link.Prop, nil
}

// ingress implements Section 3.3 (eqs. 21-27): the in(N) stage of switch
// N = route[h]. Ethernet frames arriving on the input interface from
// prec(τi,N) wait for their per-interface route task, which is serviced
// once every CIRC(N); every fragment costs one service slot.
func (a *Analyzer) ingress(i, k, h int, js *jitterState) (units.Time, error) {
	fs := a.nw.Flow(i)
	node, pred := fs.Route[h], fs.Route[h-1]
	res := Resource{Kind: KindIngress, Node: node, To: pred}
	rid := a.nw.FlowResources(i)[2*h-1]
	link := a.nw.Topo.Link(pred, node)
	circ, err := a.nw.Topo.CIRC(node)
	if err != nil {
		return 0, err
	}
	flows := a.nw.FlowsOn(pred, node)
	dems, exts := a.hoistInterference(flows, link.Rate, rid, js)

	// Long-run processing demand on the input task must stay below 1.
	var util float64
	for _, d := range dems {
		util += d.CountUtilization(circ)
	}
	if util >= 1 {
		return 0, &OverloadError{Resource: res, Utilization: util}
	}

	di := a.demand(js, i, link.Rate)
	nf := di.Count(k) // Ethernet fragments of frame k

	// Busy-period length (21)-(22), seeded with one service slot
	// (DESIGN.md F2).
	busy, err := a.fixpoint(res, fs.Flow.Name, k, circ, func(t units.Time) units.Time {
		var frames int64
		for idx := range dems {
			frames += dems[idx].NX(t + exts[idx])
		}
		return units.Time(frames) * circ
	})
	if err != nil {
		return 0, err
	}

	// Eqs. (23)-(26). ModePaper finishes the frame with a single CIRC
	// (eq. 25 as printed); ModeSound charges one slot per fragment
	// (DESIGN.md F4).
	completion := circ
	if a.cfg.Mode == ModeSound {
		completion = units.Time(nf) * circ
	}
	q1 := units.CeilDivTime(busy, di.TSUM())
	var r, w units.Time
	for q := int64(0); q < q1; q++ {
		self := units.Time(q*di.NSUM()) * circ
		// Seed above the self demand for the same critical-instant reason
		// as in firstHop, warm-started from the previous instance's
		// window (exact: see firstHop).
		seed := self + 1
		if w > seed {
			seed = w
		}
		var err error
		w, err = a.fixpoint(res, fs.Flow.Name, k, seed, func(w units.Time) units.Time {
			next := self
			for idx, j := range flows {
				if j == i {
					continue
				}
				next += units.Time(dems[idx].NX(w+exts[idx])) * circ
			}
			return next
		})
		if err != nil {
			return 0, err
		}
		if rq := w - units.Time(q)*di.TSUM() + completion; rq > r {
			r = rq
		}
	}
	return r, nil
}

// egress implements Section 3.4 (eqs. 28-35): from the moment all
// fragments of the frame sit in switch N's prioritised output queue toward
// succ(τi,N) until they are received there. Interference comes from
// higher-or-equal-priority flows (transmission plus their stride slots), a
// blocking term of one maximum-size frame already on the wire, and — in
// ModeSound — the analysed flow's own stride slots (DESIGN.md F5).
func (a *Analyzer) egress(i, k, h int, js *jitterState) (units.Time, error) {
	fs := a.nw.Flow(i)
	node, to := fs.Route[h], fs.Route[h+1]
	link := a.nw.Topo.Link(node, to)
	res := Resource{Kind: KindLink, Node: node, To: to}
	rid := a.nw.FlowResources(i)[2*h]
	circ, err := a.nw.Topo.CIRC(node)
	if err != nil {
		return 0, err
	}
	hep := a.nw.AppendHEP(a.hepScratch[:0], i, node, to)
	a.hepScratch = hep
	mft := ether.MFT(link.Rate)
	dems, exts := a.hoistInterference(hep, link.Rate, rid, js)
	di := a.demand(js, i, link.Rate)
	selfExt := js.extraOf(i, rid)

	// Convergence condition (35) over hep ∪ {τi} (DESIGN.md F3), widened
	// with the stride service demand that also enters the busy period.
	util := di.Utilization() + di.CountUtilization(circ)
	for _, d := range dems {
		util += d.Utilization() + d.CountUtilization(circ)
	}
	if util >= 1 {
		return 0, &OverloadError{Resource: res, Utilization: util}
	}

	ci := di.Cost(k)
	nf := di.Count(k)

	interference := func(t units.Time, includeSelf bool) units.Time {
		var sum units.Time
		for idx := range dems {
			win := t + exts[idx]
			sum += dems[idx].MX(win) + units.Time(dems[idx].NX(win))*circ
		}
		if includeSelf {
			win := t + selfExt
			sum += di.MX(win) + units.Time(di.NX(win))*circ
		}
		return sum
	}

	// Level-i busy-period length (28)-(29), including the analysed flow's
	// own demand so that the busy period covers all its instances
	// (DESIGN.md F3).
	busy, err := a.fixpoint(res, fs.Flow.Name, k, mft, func(t units.Time) units.Time {
		return mft + interference(t, true)
	})
	if err != nil {
		return 0, err
	}

	// Eqs. (30)-(33).
	q1 := units.CeilDivTime(busy, di.TSUM())
	var r, w units.Time
	for q := int64(0); q < q1; q++ {
		self := units.Time(q) * di.CSUM()
		completion := ci
		if a.cfg.Mode == ModeSound {
			self += units.Time(q*di.NSUM()) * circ
			completion += units.Time(nf) * circ
		}
		// Warm seed from the previous instance's window (exact: see
		// firstHop).
		seed := mft + self
		if w > seed {
			seed = w
		}
		var err error
		w, err = a.fixpoint(res, fs.Flow.Name, k, seed, func(w units.Time) units.Time {
			return mft + self + interference(w, false)
		})
		if err != nil {
			return 0, err
		}
		if rq := w - units.Time(q)*di.TSUM() + completion; rq > r {
			r = rq
		}
	}
	return r + link.Prop, nil
}

// fixpoint iterates x ← f(x) from the given seed until convergence,
// diverging when the iterate exceeds Config.MaxBusy or the iteration count
// exceeds Config.MaxFixpointIter. f must be monotone and satisfy
// f(seed) >= seed for the least-fixpoint argument to hold.
func (a *Analyzer) fixpoint(res Resource, flow string, frame int, seed units.Time, f func(units.Time) units.Time) (units.Time, error) {
	x := seed
	for iter := 0; iter < a.cfg.MaxFixpointIter; iter++ {
		next := f(x)
		if next == x {
			return x, nil
		}
		x = next
		if x > a.cfg.MaxBusy {
			return 0, &DivergenceError{Resource: res, Flow: flow, Frame: frame}
		}
	}
	return 0, &DivergenceError{Resource: res, Flow: flow, Frame: frame}
}
