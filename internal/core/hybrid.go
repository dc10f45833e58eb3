package core

import "emissary/internal/policy"

// EmissaryGHRP is the hybrid the paper's §7.2 proposes as future work:
// EMISSARY's P(N) protection for starvation-marked lines, with GHRP's
// dead-block prediction choosing the victim among the low-priority
// lines ("identify the low-priority dead blocks for eviction").
//
// High-priority lines keep their own tree-PLRU recency (as in plain
// EMISSARY); low-priority victims are predicted-dead lines first.
type EmissaryGHRP struct {
	name string
	n    int

	ghrp  *policy.GHRP
	highT *policy.TPLRU
}

// NewEmissaryGHRP builds the hybrid.
func NewEmissaryGHRP(name string, sets, ways, n int) *EmissaryGHRP {
	return &EmissaryGHRP{
		name:  name,
		n:     n,
		ghrp:  policy.NewGHRP(sets, ways),
		highT: policy.NewTPLRU(sets, ways),
	}
}

// Name implements policy.Policy.
func (e *EmissaryGHRP) Name() string { return e.name }

// OnHit implements policy.Policy. GHRP tracks every line (its history
// and signatures are global); the high tree additionally tracks
// protected-line recency.
//
//vet:hot
func (e *EmissaryGHRP) OnHit(set, way int, view policy.SetView) {
	e.ghrp.OnHit(set, way, view)
	if view.High&(1<<uint(way)) != 0 {
		e.highT.Touch(set, way)
	}
}

// OnFill implements policy.Policy.
//
//vet:hot
func (e *EmissaryGHRP) OnFill(set, way int, view policy.SetView) {
	e.ghrp.OnFill(set, way, view)
	if view.High&(1<<uint(way)) != 0 {
		e.highT.Touch(set, way)
	}
}

// Victim implements policy.Policy: Algorithm 1 with GHRP victim
// selection inside the low-priority class.
//
//vet:hot
func (e *EmissaryGHRP) Victim(set int, view policy.SetView, incoming policy.LineView) int {
	highMask, lowMask := view.High, view.Low()
	if view.HighCount() <= e.n {
		if v := e.ghrp.VictimAmong(set, lowMask); v >= 0 {
			return v
		}
	}
	if v := e.highT.VictimAmong(set, highMask); v >= 0 {
		return v
	}
	return 0
}

// OnInvalidate implements policy.Policy.
//
//vet:hot
func (e *EmissaryGHRP) OnInvalidate(set, way int) {
	e.ghrp.OnInvalidate(set, way)
}

// ResetState implements policy.Resetter: both the GHRP predictor state
// and the high-class recency tree return to their post-construction
// state.
//
//vet:hot
func (e *EmissaryGHRP) ResetState(seed uint64) {
	e.ghrp.ResetState(seed)
	e.highT.ResetState(seed)
}

// OnPriorityUpdate implements policy.Policy: a promoted line joins the
// high class's recency order.
//
//vet:hot
func (e *EmissaryGHRP) OnPriorityUpdate(set, way int, view policy.SetView) {
	if view.High&(1<<uint(way)) != 0 {
		e.highT.Touch(set, way)
	}
}
