package policy

// Recency is the trivial always-MRU-insert policy over a recency base:
// classic LRU (true or tree pseudo variant). It is the policy used for
// the L1 caches and the notation "M:1" baseline.
type Recency struct {
	name string
	base RecencyBase
}

// NewRecency wraps a recency base as a plain LRU-style policy.
func NewRecency(name string, base RecencyBase) *Recency {
	return &Recency{name: name, base: base}
}

// Name implements Policy.
func (p *Recency) Name() string { return p.name }

// OnHit implements Policy.
//
//vet:hot
func (p *Recency) OnHit(set, way int, view SetView) { p.base.Touch(set, way) }

// OnFill implements Policy.
//
//vet:hot
func (p *Recency) OnFill(set, way int, view SetView) { p.base.Touch(set, way) }

// Victim implements Policy.
//
//vet:hot
func (p *Recency) Victim(set int, view SetView, incoming LineView) int {
	return p.base.Victim(set)
}

// OnInvalidate implements Policy.
//
//vet:hot
func (p *Recency) OnInvalidate(set, way int) {}

// OnPriorityUpdate implements Policy.
//
//vet:hot
func (p *Recency) OnPriorityUpdate(set, way int, view SetView) {}

// ResetState implements Resetter by resetting the recency base. Every
// base constructed in this module implements Resetter; a foreign base
// that doesn't cannot be warm-pooled and fails loudly here.
func (p *Recency) ResetState(seed uint64) {
	p.base.(Resetter).ResetState(seed)
}

// MInsert is the M-treatment family from Table 2 of the paper:
// bimodality expressed purely at insertion. High-priority instruction
// lines are inserted in the MRU position; low-priority instruction
// lines in the LRU position. Covers M:1 (LRU), M:0 (LIP), M:R(r) (BIP)
// and the starvation-gated M:S, M:S&E, M:S&E&R(r) policies — the
// mode-selection outcome arrives as the filled line's Priority bit.
//
// Data lines are outside the bimodal treatment ("all policies apply
// only to L2 instruction lines", §2) and insert at MRU as in the LRU
// baseline.
type MInsert struct {
	name string
	base RecencyBase
}

// NewMInsert builds an M-treatment policy over a recency base.
func NewMInsert(name string, base RecencyBase) *MInsert {
	return &MInsert{name: name, base: base}
}

// Name implements Policy.
func (p *MInsert) Name() string { return p.name }

// OnHit implements Policy.
//
//vet:hot
func (p *MInsert) OnHit(set, way int, view SetView) { p.base.Touch(set, way) }

// OnFill implements Policy.
//
//vet:hot
func (p *MInsert) OnFill(set, way int, view SetView) {
	// A low-priority instruction line inserts at LRU.
	if (view.Instr&^view.High)&(1<<uint(way)) != 0 {
		p.base.MakeLRU(set, way)
		return
	}
	p.base.Touch(set, way)
}

// Victim implements Policy.
//
//vet:hot
func (p *MInsert) Victim(set int, view SetView, incoming LineView) int {
	return p.base.Victim(set)
}

// OnInvalidate implements Policy.
//
//vet:hot
func (p *MInsert) OnInvalidate(set, way int) {}

// OnPriorityUpdate implements Policy. Insertion-only bimodality: a
// priority bit arriving after insertion (L1I eviction) has no effect.
//
//vet:hot
func (p *MInsert) OnPriorityUpdate(set, way int, view SetView) {}

// ResetState implements Resetter by resetting the recency base (see
// Recency.ResetState for the base contract).
func (p *MInsert) ResetState(seed uint64) {
	p.base.(Resetter).ResetState(seed)
}
