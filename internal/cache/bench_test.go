package cache_test

import (
	"testing"

	"emissary/internal/cache"
	"emissary/internal/core"
	"emissary/internal/rng"
)

// benchSets and benchWays are the paper's L2 geometry (1 MB, 64 B
// lines, 16-way), the cache the hot path spends its time in.
const (
	benchSets = 1024
	benchWays = 16
)

// benchPolicies spans every treatment family so a regression in one
// policy's callbacks is visible in its own benchmark row.
var benchPolicies = []string{
	"TPLRU",
	"LRU",
	"BIP",
	"M:S&E&R(1/32)",
	"P(8):S&E&R(1/32)",
	"SRRIP",
	"DRRIP",
	"PDP",
	"DCLIP",
	"GHRP",
}

// benchAddrs returns a fixed-seed line-address stream covering 4x the
// cache capacity, so steady state sees both hits and misses. n must be
// a power of two (callers index with i & (n-1)).
func benchAddrs(n int) []uint64 {
	r := rng.NewXoshiro256(0xbe7c4)
	addrs := make([]uint64, n)
	span := uint64(benchSets * benchWays * 4)
	for i := range addrs {
		addrs[i] = r.Uint64() % span
	}
	return addrs
}

// benchFill is the fill every benchmark and the allocation guard use:
// half the lines are instruction lines, one in eight high priority.
func benchFill(c *cache.Cache, a uint64) {
	c.Fill(a, cache.FillSpec{Instr: a%2 == 0, Priority: a%8 == 0})
}

// newBenchCache builds the benchmark cache for one policy and fills it
// with addrs, so timed loops measure the full-set path (victim
// selection), not the cold invalid-way path.
func newBenchCache(tb testing.TB, policyText string, addrs []uint64) *cache.Cache {
	tb.Helper()
	spec, err := core.ParsePolicy(policyText)
	if err != nil {
		tb.Fatal(err)
	}
	c := cache.NewCache("bench", benchSets, benchWays, spec.Build(benchSets, benchWays, 1))
	for _, a := range addrs {
		benchFill(c, a)
	}
	return c
}

func BenchmarkAccess(b *testing.B) {
	addrs := benchAddrs(1 << 16)
	for _, pol := range benchPolicies {
		b.Run(pol, func(b *testing.B) {
			c := newBenchCache(b, pol, addrs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i&(len(addrs)-1)]
				c.Access(a, a%2 == 0)
			}
		})
	}
}

func BenchmarkFill(b *testing.B) {
	addrs := benchAddrs(1 << 16)
	for _, pol := range benchPolicies {
		b.Run(pol, func(b *testing.B) {
			c := newBenchCache(b, pol, addrs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFill(c, addrs[i&(len(addrs)-1)])
			}
		})
	}
}

// TestHotPathNoAllocs is the allocation guard for the cache hot path:
// Access, Fill, Touch and MarkDirty must stay allocation free for
// every policy family, or ns/access numbers become garbage collection
// noise. Each operation runs over a whole pass of the address stream
// as one testing.AllocsPerRun run, so the count is exact: AllocsPerRun
// truncates its per-run average, and with one call per run a path that
// allocates on fewer than every call would read as 0. The static
// hot-noalloc pass covers the same code through its //vet:hot seeds on
// every policy callback; this test is the dynamic gate. Run under
// every `go test` (not only -bench) so a regression fails CI
// immediately.
func TestHotPathNoAllocs(t *testing.T) {
	addrs := benchAddrs(1 << 14)
	ops := []struct {
		name string
		do   func(c *cache.Cache, a uint64)
	}{
		{"Access", func(c *cache.Cache, a uint64) { c.Access(a, a%2 == 0) }},
		{"Fill", benchFill},
		{"Touch", (*cache.Cache).Touch},
		{"MarkDirty", (*cache.Cache).MarkDirty},
	}
	for _, pol := range benchPolicies {
		c := newBenchCache(t, pol, addrs)
		for _, op := range ops {
			n := testing.AllocsPerRun(1, func() {
				for _, a := range addrs {
					op.do(c, a)
				}
			})
			if n != 0 {
				t.Errorf("%s: %.0f allocations over %d %s calls", pol, n, len(addrs), op.name)
			}
		}
	}
}
