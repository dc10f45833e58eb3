package workload

import (
	"sort"
	"testing"

	"emissary/internal/branch"
)

// refIndex is an independent model of the program's block lookups, the
// way they were answered before the dense tables: a hash from start
// address to block index, and a binary search over the address-sorted
// block list for the blocks in a line. It reads only each block's Addr,
// never the line table or the build-time links under test.
type refIndex struct {
	addrs []uint64
	index map[uint64]int32
}

func newRefIndex(p *Program) *refIndex {
	r := &refIndex{
		addrs: make([]uint64, len(p.blocks)),
		index: make(map[uint64]int32, len(p.blocks)),
	}
	for i := range p.blocks {
		r.addrs[i] = p.blocks[i].Addr
		r.index[p.blocks[i].Addr] = int32(i)
	}
	return r
}

// blocksInLine returns the indices of the blocks starting in line.
func (r *refIndex) blocksInLine(line uint64) []int32 {
	lo, hi := line<<6, (line+1)<<6
	i := sort.Search(len(r.addrs), func(i int) bool { return r.addrs[i] >= lo })
	var out []int32
	for ; i < len(r.addrs) && r.addrs[i] < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

// builtinPrograms builds every stock and SPEC-like profile.
func builtinPrograms(t *testing.T) []*Program {
	t.Helper()
	var progs []*Program
	for _, prof := range append(Profiles(), SPECLikeProfiles()...) {
		p, err := NewProgram(prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestBlockAtMatchesReference checks BlockAt and BlockInfo at every
// instruction address of every built-in program, plus the addresses
// just outside the code span and an unaligned one.
func TestBlockAtMatchesReference(t *testing.T) {
	for _, p := range builtinPrograms(t) {
		ref := newRefIndex(p)
		end := codeBase + instrBytes*uint64(p.TotalInstrs())
		check := func(addr uint64) {
			want, wantOK := ref.index[addr]
			b, ok := p.BlockAt(addr)
			if ok != wantOK {
				t.Fatalf("%s: BlockAt(%#x) found=%v, reference found=%v", p.profile.Name, addr, ok, wantOK)
			}
			if ok && b != &p.blocks[want] {
				t.Fatalf("%s: BlockAt(%#x) = block %#x, reference block %d", p.profile.Name, addr, b.Addr, want)
			}
			e, ok := p.BlockInfo(addr)
			if ok != wantOK || (ok && (e.Start != addr || e.NumInstrs != int(p.blocks[want].NInstr))) {
				t.Fatalf("%s: BlockInfo(%#x) = %+v, %v", p.profile.Name, addr, e, ok)
			}
		}
		for addr := codeBase; addr < end; addr += instrBytes {
			check(addr)
		}
		for _, addr := range []uint64{0, codeBase - instrBytes, codeBase - 1, codeBase + 1, end, end + instrBytes, end + 64, ^uint64(0)} {
			check(addr)
		}
	}
}

// TestBlocksInLineMatchesReference checks BlocksInLine for every code
// line of every built-in program and the lines on either side of the
// span, appending onto a non-empty prefix to pin the append contract.
func TestBlocksInLineMatchesReference(t *testing.T) {
	sentinel := branch.BTBEntry{Start: 1}
	for _, p := range builtinPrograms(t) {
		ref := newRefIndex(p)
		first := codeBase >> 6
		last := (codeBase + instrBytes*uint64(p.TotalInstrs()) - 1) >> 6
		var got []branch.BTBEntry
		for line := first - 2; line <= last+2; line++ {
			got = p.BlocksInLine(line, append(got[:0], sentinel))
			want := ref.blocksInLine(line)
			if len(got) != len(want)+1 || got[0] != sentinel {
				t.Fatalf("%s: line %#x: %d blocks, reference %d", p.profile.Name, line, len(got)-1, len(want))
			}
			for j, i := range want {
				b := &p.blocks[i]
				e := got[j+1]
				if e.Start != b.Addr || e.NumInstrs != int(b.NInstr) || e.EndKind != b.End || e.Target != b.Target {
					t.Fatalf("%s: line %#x entry %d = %+v, reference block %+v", p.profile.Name, line, j, e, *b)
				}
			}
		}
		if got := p.BlocksInLine(0, nil); len(got) != 0 {
			t.Fatalf("%s: line 0 returned %d blocks", p.profile.Name, len(got))
		}
	}
}

// TestEngineWalkMatchesReference walks 500K blocks of every built-in
// program and checks each step against the static CFG through the
// reference index: the engine's successor index is the block at
// NextAddr, NextAddr follows the terminator's semantics (fall-through,
// target, a reference return stack of addresses, or a member of the
// indirect target set), and the next event starts at NextAddr.
func TestEngineWalkMatchesReference(t *testing.T) {
	const steps = 500_000
	for _, p := range builtinPrograms(t) {
		ref := newRefIndex(p)
		dispatcher := p.blocks[p.dispatcher].Addr
		e := NewEngine(p)
		var stack []uint64
		var prevNext uint64
		for n := 0; n < steps; n++ {
			ev, ok := e.NextBlock()
			if !ok {
				t.Fatalf("%s: stream ended at block %d", p.profile.Name, n)
			}
			if n > 0 && ev.Addr != prevNext {
				t.Fatalf("%s: block %d at %#x, previous NextAddr %#x", p.profile.Name, n, ev.Addr, prevNext)
			}
			i, ok := ref.index[ev.Addr]
			if !ok {
				t.Fatalf("%s: block %d at %#x is not a block start", p.profile.Name, n, ev.Addr)
			}
			b := &p.blocks[i]
			var want uint64
			switch b.End {
			case branch.KindFallthrough:
				want = b.FallThrough()
			case branch.KindJump:
				want = b.Target
			case branch.KindCond:
				want = b.FallThrough()
				if ev.Taken {
					want = b.Target
				}
			case branch.KindCall:
				stack = append(stack, b.FallThrough())
				want = b.Target
			case branch.KindIndirectCall, branch.KindIndirect:
				if b.End == branch.KindIndirectCall {
					stack = append(stack, b.FallThrough())
				}
				want = ev.NextAddr
				found := false
				for _, tgt := range p.itargets[b.aux : b.aux+b.nAux] {
					found = found || p.blocks[tgt].Addr == ev.NextAddr
				}
				if !found {
					t.Fatalf("%s: block %d: indirect successor %#x outside the target set", p.profile.Name, n, ev.NextAddr)
				}
			case branch.KindReturn:
				want = dispatcher
				if len(stack) > 0 {
					want = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
				}
			}
			if ev.NextAddr != want {
				t.Fatalf("%s: block %d (%#x, kind %d): NextAddr %#x, want %#x", p.profile.Name, n, ev.Addr, b.End, ev.NextAddr, want)
			}
			if next, ok := ref.index[ev.NextAddr]; !ok || next != e.cur {
				t.Fatalf("%s: block %d: successor index %d, reference %d (found %v)", p.profile.Name, n, e.cur, next, ok)
			}
			prevNext = ev.NextAddr
		}
	}
}
