package workload

import (
	"testing"

	"emissary/internal/rng"
	"emissary/internal/trace"
)

// benchProgram builds one stock program for the class benchmarks.
func benchProgram(b *testing.B) *Program {
	b.Helper()
	profs := Profiles()
	p, err := NewProgram(profs[0])
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchPCs draws a pseudo-random sample of in-span instruction PCs,
// mimicking the front-end's access pattern (classification follows
// fetch, which hops across the footprint rather than streaming).
func benchPCs(p *Program, n int) []uint64 {
	r := rng.NewXoshiro256(1)
	pcs := make([]uint64, n)
	span := uint64(p.TotalInstrs())
	for i := range pcs {
		pcs[i] = codeBase + instrBytes*(r.Uint64()%span)
	}
	return pcs
}

// TestInstrClassTableMatchesHash pins the table's contract: for every
// instruction PC in the code span the cached class equals the hash,
// and out-of-span or unaligned PCs take the fallback (which IS the
// hash), so building the table can never change a classification.
func TestInstrClassTableMatchesHash(t *testing.T) {
	for _, prof := range Profiles()[:3] {
		p, err := NewProgram(prof)
		if err != nil {
			t.Fatal(err)
		}
		span := uint64(p.TotalInstrs())
		for i := uint64(0); i < span; i++ {
			pc := codeBase + instrBytes*i
			if got, want := p.InstrClass(pc), p.classOf(pc); got != want {
				t.Fatalf("%s: pc %#x: table %v != hash %v", prof.Name, pc, got, want)
			}
		}
		for _, pc := range []uint64{
			codeBase - instrBytes,          // below the span
			codeBase + instrBytes*span,     // one past the span
			codeBase + 1,                   // unaligned
			codeBase + instrBytes*span + 2, // unaligned and out of span
			0, ^uint64(0),
		} {
			if got, want := p.InstrClass(pc), p.classOf(pc); got != want {
				t.Fatalf("%s: fallback pc %#x: %v != %v", prof.Name, pc, got, want)
			}
		}
	}
}

// BenchmarkInstrClassTable measures the production path: the
// precomputed per-PC table with its bounds/alignment guard.
func BenchmarkInstrClassTable(b *testing.B) {
	p := benchProgram(b)
	pcs := benchPCs(p, 1<<16)
	b.ResetTimer()
	var sink trace.Class
	for i := 0; i < b.N; i++ {
		sink += p.InstrClass(pcs[i&(len(pcs)-1)])
	}
	_ = sink
}

// BenchmarkInstrClassHash measures the pre-table path the table
// replaced (and still serves as the out-of-span fallback): the Mix2
// hash thresholded through the profile's instruction-mix fractions.
func BenchmarkInstrClassHash(b *testing.B) {
	p := benchProgram(b)
	pcs := benchPCs(p, 1<<16)
	b.ResetTimer()
	var sink trace.Class
	for i := 0; i < b.N; i++ {
		sink += p.classOf(pcs[i&(len(pcs)-1)])
	}
	_ = sink
}
