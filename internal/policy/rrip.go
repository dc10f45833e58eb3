package policy

import (
	"emissary/internal/rng"
)

// RRIP mode constants.
type rripMode int

const (
	modeSRRIP rripMode = iota
	modeBRRIP
	modeDRRIP
)

const (
	maxRRPV  = 3 // 2-bit re-reference prediction values
	longRRPV = maxRRPV - 1
	// brripProb is the probability BRRIP inserts with a long (rather
	// than distant) re-reference prediction; the paper uses 1/32.
	brripProb = 1.0 / 32.0
	// pselMax is the saturation cap of DRRIP's policy-selection counter.
	pselMax = 1023
	// duelingPeriod spaces leader sets; 32 leader sets per policy in a
	// 1024-set cache, matching the paper's description (§5.5).
	duelingPeriod = 32
)

// RRIP implements SRRIP, BRRIP and DRRIP (Jaleel et al., ISCA 2010)
// with 2-bit RRPVs, hit-priority promotion, and for DRRIP 32+32
// set-dueling leader sets with a 10-bit PSEL counter.
type RRIP struct {
	name       string
	sets, ways int
	rrpv       []uint8
	mode       rripMode
	r          *rng.Xoshiro256
	psel       int
	// seeded records whether the constructor received a caller seed
	// (SRRIP never draws randomness and is built without one), so
	// ResetState can re-derive the exact construction-time RNG state.
	seeded bool
}

// NewSRRIP returns a static RRIP policy.
func NewSRRIP(sets, ways int) *RRIP { return newRRIP("SRRIP", sets, ways, modeSRRIP, 0, false) }

// NewBRRIP returns a bimodal RRIP policy seeded for its 1/32 choice.
func NewBRRIP(sets, ways int, seed uint64) *RRIP {
	return newRRIP("BRRIP", sets, ways, modeBRRIP, seed, true)
}

// NewDRRIP returns a dynamic set-dueling RRIP policy.
func NewDRRIP(sets, ways int, seed uint64) *RRIP {
	return newRRIP("DRRIP", sets, ways, modeDRRIP, seed, true)
}

func newRRIP(name string, sets, ways int, mode rripMode, seed uint64, seeded bool) *RRIP {
	checkGeometry(sets, ways)
	p := &RRIP{
		name:   name,
		sets:   sets,
		ways:   ways,
		rrpv:   make([]uint8, sets*ways),
		mode:   mode,
		r:      rng.NewXoshiro256(rng.Mix2(seed, 0xbadc0de)),
		psel:   pselMax / 2,
		seeded: seeded,
	}
	// Start every slot distant so cold fills behave like insertions.
	for i := range p.rrpv {
		p.rrpv[i] = maxRRPV
	}
	return p
}

func (p *RRIP) idx(set, way int) int { return set*p.ways + way }

// leaderKind classifies a set for DRRIP dueling: 0 = follower,
// 1 = SRRIP leader, 2 = BRRIP leader.
func (p *RRIP) leaderKind(set int) int {
	switch set % duelingPeriod {
	case 0:
		return 1
	case duelingPeriod / 2:
		return 2
	default:
		return 0
	}
}

// useBRRIP reports whether fills into this set should use BRRIP.
func (p *RRIP) useBRRIP(set int) bool {
	switch p.mode {
	case modeSRRIP:
		return false
	case modeBRRIP:
		return true
	default:
		switch p.leaderKind(set) {
		case 1:
			return false
		case 2:
			return true
		default:
			// PSEL counts SRRIP-leader misses up; a high counter means
			// SRRIP is missing more, so followers use BRRIP.
			return p.psel > pselMax/2
		}
	}
}

// Name implements Policy.
func (p *RRIP) Name() string { return p.name }

// OnHit implements Policy. Hit promotion to near-immediate
// re-reference (HP policy from the RRIP paper).
//
//vet:hot
func (p *RRIP) OnHit(set, way int, view SetView) {
	p.rrpv[p.idx(set, way)] = 0
}

// OnFill implements Policy. A fill is evidence of a miss, so DRRIP
// leader sets update PSEL here.
//
//vet:hot
func (p *RRIP) OnFill(set, way int, view SetView) {
	if p.mode == modeDRRIP {
		switch p.leaderKind(set) {
		case 1: // SRRIP leader missed
			if p.psel < pselMax {
				p.psel++
			}
		case 2: // BRRIP leader missed
			if p.psel > 0 {
				p.psel--
			}
		}
	}
	ins := uint8(longRRPV)
	if p.useBRRIP(set) && !p.r.Bool(brripProb) {
		ins = maxRRPV
	}
	p.rrpv[p.idx(set, way)] = ins
}

// Victim implements Policy: find a distant line, aging the set until
// one appears.
//
//vet:hot
func (p *RRIP) Victim(set int, view SetView, incoming LineView) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == maxRRPV {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// OnInvalidate implements Policy.
//
//vet:hot
func (p *RRIP) OnInvalidate(set, way int) {
	p.rrpv[p.idx(set, way)] = maxRRPV
}

// OnPriorityUpdate implements Policy.
//
//vet:hot
func (p *RRIP) OnPriorityUpdate(set, way int, view SetView) {}

// ResetState implements Resetter: every RRPV returns to distant, PSEL
// to its midpoint, and the BRRIP/DRRIP insertion RNG to the state a
// fresh construction with this seed would hold. An unseeded policy
// (SRRIP, whose constructor takes no seed) re-derives from seed 0 so
// warm and cold runs stay byte-identical.
//
//vet:hot
func (p *RRIP) ResetState(seed uint64) {
	if !p.seeded {
		seed = 0
	}
	p.r.Seed(rng.Mix2(seed, 0xbadc0de))
	p.psel = pselMax / 2
	for i := range p.rrpv {
		p.rrpv[i] = maxRRPV
	}
}

// PSEL exposes the dueling counter for tests.
func (p *RRIP) PSEL() int { return p.psel }
