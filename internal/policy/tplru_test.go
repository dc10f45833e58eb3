package policy

import (
	"testing"

	"emissary/internal/rng"
)

// refTree is the per-level tree walk TPLRU used before its path and
// leaf-mask tables: every operation visits the tree one level at a
// time, re-deriving each node's direction and subtree span. It is the
// reference the table-driven TPLRU is checked against. Node i's bit is
// 1<<i (i from 1), as in TPLRU.
type refTree struct {
	ways  int
	depth uint
}

func newRefTree(ways int) refTree {
	d := uint(0)
	for 1<<d < ways {
		d++
	}
	return refTree{ways: ways, depth: d}
}

func (r refTree) bit(bits uint16, node int) int { return int(bits>>uint(node)) & 1 }

// pathSet walks from the root toward way, pointing each node's bit
// toward the way when toward is true, away from it otherwise.
func (r refTree) pathSet(bits uint16, way int, toward bool) uint16 {
	node := 1
	for level := int(r.depth) - 1; level >= 0; level-- {
		dir := (way >> uint(level)) & 1
		v := dir
		if !toward {
			v = 1 - dir
		}
		if v != 0 {
			bits |= 1 << uint(node)
		} else {
			bits &^= 1 << uint(node)
		}
		node = node*2 + dir
	}
	return bits
}

// subtreeMask returns the mask of leaf ways underneath heap node.
func (r refTree) subtreeMask(node int) uint32 {
	level := 0
	for 1<<uint(level+1) <= node {
		level++
	}
	span := r.ways >> uint(level)
	start := (node - 1<<uint(level)) * span
	return ((1 << uint(span)) - 1) << uint(start)
}

func (r refTree) victim(bits uint16) int {
	node := 1
	for node < r.ways {
		node = node*2 + r.bit(bits, node)
	}
	return node - r.ways
}

func (r refTree) victimAmong(bits uint16, mask uint32) int {
	mask &= maskAll(r.ways)
	if mask == 0 {
		return -1
	}
	node := 1
	for node < r.ways {
		b := r.bit(bits, node)
		preferred := node*2 + b
		if r.subtreeMask(preferred)&mask != 0 {
			node = preferred
		} else {
			node = node*2 + (1 - b)
		}
	}
	return node - r.ways
}

// checkTPLRUState compares one tree state against the reference: Touch
// and MakeLRU of every way, Victim, and VictimAmong for each mask.
func checkTPLRUState(t *testing.T, p *TPLRU, ref refTree, state uint16, masks func(yield func(uint32))) {
	t.Helper()
	for way := 0; way < ref.ways; way++ {
		p.bits[0] = state
		p.Touch(0, way)
		if got, want := p.Bits(0), ref.pathSet(state, way, false); got != want {
			t.Fatalf("%d ways, state %#x: Touch(%d) -> %#x, reference %#x", ref.ways, state, way, got, want)
		}
		p.bits[0] = state
		p.MakeLRU(0, way)
		if got, want := p.Bits(0), ref.pathSet(state, way, true); got != want {
			t.Fatalf("%d ways, state %#x: MakeLRU(%d) -> %#x, reference %#x", ref.ways, state, way, got, want)
		}
	}
	p.bits[0] = state
	if got, want := p.Victim(0), ref.victim(state); got != want {
		t.Fatalf("%d ways, state %#x: Victim = %d, reference %d", ref.ways, state, got, want)
	}
	masks(func(mask uint32) {
		if got, want := p.VictimAmong(0, mask), ref.victimAmong(state, mask); got != want {
			t.Fatalf("%d ways, state %#x: VictimAmong(%#x) = %d, reference %d", ref.ways, state, mask, got, want)
		}
	})
}

// TestTPLRUMatchesReferenceWalk checks the table-driven TPLRU against
// the per-level walk in every tree state: every way's Touch and
// MakeLRU, Victim, and VictimAmong under every mask at 2, 4 and 8 ways,
// and under a fixed-seed sample of 64 masks per state at 16 ways
// (plus the empty and full masks and a bit above the way count).
func TestTPLRUMatchesReferenceWalk(t *testing.T) {
	for _, ways := range []int{2, 4, 8} {
		p, ref := NewTPLRU(1, ways), newRefTree(ways)
		for s := 0; s < 1<<uint(ways-1); s++ {
			checkTPLRUState(t, p, ref, uint16(s<<1), func(yield func(uint32)) {
				for m := uint32(0); m < 1<<uint(ways); m++ {
					yield(m)
				}
			})
		}
	}
	p, ref := NewTPLRU(1, 16), newRefTree(16)
	r := rng.NewXoshiro256(0x7a1e)
	for s := 0; s < 1<<15; s++ {
		checkTPLRUState(t, p, ref, uint16(s<<1), func(yield func(uint32)) {
			yield(0)
			yield(0xffff)
			yield(1 << 16)
			for i := 0; i < 64; i++ {
				yield(uint32(r.Uint64()))
			}
		})
	}
}
