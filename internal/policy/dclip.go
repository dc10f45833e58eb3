package policy

// DCLIP implements Dynamic Code Line Preservation (the CLIP policy of
// Jaleel et al., HPCA 2015, as cited by the paper). CLIP prioritizes
// *all* instruction lines over data lines in the shared L2 when code
// contends for cache space: instruction fills and hits are promoted to
// near-immediate re-reference, data fills are predicted distant. The
// dynamic variant turns the code preference on only when it helps,
// decided by set-dueling on instruction misses.
//
// Contrast with EMISSARY (§7.2 of the paper): CLIP prioritizes
// instruction lines blindly, without confirming that a future miss
// would cause front-end stalls, and without the P(N) way limit that
// protects data lines from instruction pressure.
type DCLIP struct {
	name       string
	sets, ways int
	rrpv       []uint8
	psel       int
}

// NewDCLIP builds the dynamic code-line-preservation policy.
func NewDCLIP(sets, ways int) *DCLIP {
	checkGeometry(sets, ways)
	p := &DCLIP{
		name: "DCLIP",
		sets: sets,
		ways: ways,
		rrpv: make([]uint8, sets*ways),
		psel: pselMax / 2,
	}
	for i := range p.rrpv {
		p.rrpv[i] = maxRRPV
	}
	return p
}

func (p *DCLIP) idx(set, way int) int { return set*p.ways + way }

// leaderKind: 1 = CLIP-on leader, 2 = CLIP-off (plain SRRIP) leader.
func (p *DCLIP) leaderKind(set int) int {
	switch set % duelingPeriod {
	case 0:
		return 1
	case duelingPeriod / 2:
		return 2
	default:
		return 0
	}
}

// clipActive reports whether code preference applies to this set.
func (p *DCLIP) clipActive(set int) bool {
	switch p.leaderKind(set) {
	case 1:
		return true
	case 2:
		return false
	default:
		// PSEL counts CLIP-leader instruction misses up; low counter
		// means CLIP is avoiding instruction misses, so followers use
		// CLIP.
		return p.psel <= pselMax/2
	}
}

// Name implements Policy.
func (p *DCLIP) Name() string { return p.name }

// OnHit implements Policy.
//
//vet:hot
func (p *DCLIP) OnHit(set, way int, view SetView) {
	p.rrpv[p.idx(set, way)] = 0
}

// OnFill implements Policy.
//
//vet:hot
func (p *DCLIP) OnFill(set, way int, view SetView) {
	instr := view.Instr&(1<<uint(way)) != 0
	if instr {
		switch p.leaderKind(set) {
		case 1:
			if p.psel < pselMax {
				p.psel++
			}
		case 2:
			if p.psel > 0 {
				p.psel--
			}
		}
	}
	ins := uint8(longRRPV)
	if p.clipActive(set) {
		if instr {
			ins = 0 // preserve code lines
		} else {
			ins = maxRRPV // data predicted distant
		}
	}
	p.rrpv[p.idx(set, way)] = ins
}

// Victim implements Policy.
//
//vet:hot
func (p *DCLIP) Victim(set int, view SetView, incoming LineView) int {
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
func (p *DCLIP) OnInvalidate(set, way int) {
	p.rrpv[p.idx(set, way)] = maxRRPV
}

// OnPriorityUpdate implements Policy.
//
//vet:hot
func (p *DCLIP) OnPriorityUpdate(set, way int, view SetView) {}

// ResetState implements Resetter: every RRPV returns to distant and
// PSEL to its midpoint. The seed is ignored (DCLIP is deterministic).
//
//vet:hot
func (p *DCLIP) ResetState(seed uint64) {
	p.psel = pselMax / 2
	for i := range p.rrpv {
		p.rrpv[i] = maxRRPV
	}
}

// PSEL exposes the dueling counter for tests.
func (p *DCLIP) PSEL() int { return p.psel }
