// Package core implements EMISSARY, the paper's contribution: the
// persistently-bimodal P(N) cache replacement treatment (Algorithm 1),
// the mode-selection equations of Table 1, the policy-notation parser
// for strings such as "P(8):S&E&R(1/32)", and the factory that builds
// any policy in the paper's design space (Table 3).
package core

import (
	"emissary/internal/policy"
)

// Emissary is the P(N) mode-treatment policy of §4.2, Algorithm 1.
// Up to N MRU high-priority lines per set are protected from eviction
// by low-priority insertions. Priority is carried in each line's P bit
// (the cache's policy.SetView.High mask), set once by mode selection
// and never changed while the line is resident (persistence). All
// misses insert — bypass was evaluated by the authors and rejected.
//
// The recency substrate is either a single true-LRU stamp array (used
// for the Figure 1 study) or dual tree-PLRUs, one per priority class,
// as the evaluations use: a hit updates only the matching tree, and
// eviction walks the matching tree skipping non-matching lines.
type Emissary struct {
	name string
	n    int

	// Exactly one of the two bases is non-nil.
	trueLRU *policy.TrueLRU
	lowT    *policy.TPLRU
	highT   *policy.TPLRU
}

// NewEmissaryTrueLRU builds P(N) over an exact-LRU base.
func NewEmissaryTrueLRU(name string, sets, ways, n int) *Emissary {
	return &Emissary{
		name:    name,
		n:       n,
		trueLRU: policy.NewTrueLRU(sets, ways),
	}
}

// NewEmissaryTPLRU builds P(N) over dual tree-PLRU bases (the
// hardware-realistic configuration used for all main results).
func NewEmissaryTPLRU(name string, sets, ways, n int) *Emissary {
	return &Emissary{
		name:  name,
		n:     n,
		lowT:  policy.NewTPLRU(sets, ways),
		highT: policy.NewTPLRU(sets, ways),
	}
}

// N returns the protected-way limit.
func (e *Emissary) N() int { return e.n }

// Name implements policy.Policy.
func (e *Emissary) Name() string { return e.name }

// touch updates recency for an access to a line of known priority.
// With dual TPLRU trees only the matching tree is updated (§4.2).
func (e *Emissary) touch(set, way int, high bool) {
	if e.trueLRU != nil {
		e.trueLRU.Touch(set, way)
		return
	}
	if high {
		e.highT.Touch(set, way)
	} else {
		e.lowT.Touch(set, way)
	}
}

// OnHit implements policy.Policy.
//
//vet:hot
func (e *Emissary) OnHit(set, way int, view policy.SetView) {
	e.touch(set, way, view.High&(1<<uint(way)) != 0)
}

// OnFill implements policy.Policy. P(N) does not act on priority at
// insertion — every inserted line becomes the MRU of its class.
//
//vet:hot
func (e *Emissary) OnFill(set, way int, view policy.SetView) {
	e.touch(set, way, view.High&(1<<uint(way)) != 0)
}

// victimAmong finds the LRU line within mask for the given class.
func (e *Emissary) victimAmong(set int, mask uint32, high bool) int {
	if mask == 0 {
		return -1
	}
	if e.trueLRU != nil {
		return e.trueLRU.VictimAmong(set, mask)
	}
	if high {
		return e.highT.VictimAmong(set, mask)
	}
	return e.lowT.VictimAmong(set, mask)
}

// Victim implements policy.Policy; this is Algorithm 1 verbatim.
// The incoming line's own priority does not influence the choice. The
// class masks are indexed straight off the cache-maintained view
// rather than re-derived with a way scan.
//
//vet:hot
func (e *Emissary) Victim(set int, view policy.SetView, incoming policy.LineView) int {
	highMask, lowMask := view.High, view.Low()
	if view.HighCount() <= e.n {
		if v := e.victimAmong(set, lowMask, false); v >= 0 {
			return v
		}
		// No low-priority line exists (possible when N >= ways or
		// after priority updates); fall through to the high class.
	}
	if v := e.victimAmong(set, highMask, true); v >= 0 {
		return v
	}
	// All ways invalid would contradict the Victim contract; evict 0.
	return 0
}

// OnInvalidate implements policy.Policy.
//
//vet:hot
func (e *Emissary) OnInvalidate(set, way int) {}

// ResetState implements policy.Resetter: whichever recency bases exist
// return to their post-construction state (the seed is ignored; P(N)
// itself is deterministic — randomness lives in the Selector).
//
//vet:hot
func (e *Emissary) ResetState(seed uint64) {
	if e.trueLRU != nil {
		e.trueLRU.ResetState(seed)
		return
	}
	e.lowT.ResetState(seed)
	e.highT.ResetState(seed)
}

// OnPriorityUpdate implements policy.Policy. The P bit is read from
// view.High at Victim time, and the dual trees are class-indexed by
// that same bit, so a promotion (L1I eviction writing P=1 into the L2
// copy) moves the line's future recency updates to the high tree; we
// seed its position there now so it is not immediately the high-class
// pseudo-LRU victim.
//
//vet:hot
func (e *Emissary) OnPriorityUpdate(set, way int, view policy.SetView) {
	e.touch(set, way, view.High&(1<<uint(way)) != 0)
}
