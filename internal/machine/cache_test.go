package machine

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the reference L1 model, the implementation cache replaced:
// a slice of {tag, valid, lru} ways that bumps the clock and restamps on
// every access, including repeats of the last line. cache must agree
// with it access by access.
type refCache struct {
	lines []refLine
	clock uint64
}

type refLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRefCache() *refCache {
	return &refCache{lines: make([]refLine, cacheSets*cacheWays)}
}

// access touches addr and reports whether it hit: a hit restamps the
// way; a miss fills the first invalid way by index, else the least
// recently used one.
func (c *refCache) access(addr uint64) bool {
	c.clock++
	line := addr >> cacheLineBits
	si := (line % cacheSets) * cacheWays
	set := c.lines[si : si+cacheWays]
	tag := line / cacheSets
	victim, invalid := 0, -1
	for i := range set {
		if set[i].valid {
			if set[i].tag == tag {
				set[i].lru = c.clock
				return true
			}
			if set[i].lru < set[victim].lru {
				victim = i
			}
		} else if invalid < 0 {
			invalid = i
		}
	}
	if invalid >= 0 {
		victim = invalid
	}
	set[victim] = refLine{tag: tag, valid: true, lru: c.clock}
	return false
}

// checkOracle feeds addrs to a fresh cache and a fresh refCache and
// fails at the first access whose hit/miss differs, then compares the
// resident lines of every set, way by way.
func checkOracle(t *testing.T, name string, addrs []uint64) {
	t.Helper()
	c, ref := newCache(), newRefCache()
	for i, a := range addrs {
		if got, want := c.access(a), ref.access(a); got != want {
			t.Fatalf("%s: access %d (addr %#x): hit=%v, reference hit=%v", name, i, a, got, want)
		}
	}
	for s := 0; s < cacheSets; s++ {
		for w := 0; w < cacheWays; w++ {
			r := ref.lines[s*cacheWays+w]
			var want uint64
			if r.valid {
				want = r.tag + 1
			}
			if got := c.tags[s][w]; got != want {
				t.Fatalf("%s: set %d way %d holds tag+1 %d, reference %d", name, s, w, got, want)
			}
		}
	}
}

// conflictAddr is an address in set s whose tag is k, at byte off of
// its line.
func conflictAddr(s, k, off uint64) uint64 {
	return (k*cacheSets+s)<<cacheLineBits | off&(1<<cacheLineBits-1)
}

// oracleStreams returns the seeded address streams of TestCacheOracle.
func oracleStreams(seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	const n = 20000
	streams := map[string][]uint64{}

	// Uniform random addresses: over 4x the cache (mostly misses) and
	// over half of it (mostly hits once warm).
	for _, span := range []uint64{128 << 10, 16 << 10} {
		var s []uint64
		for i := 0; i < n; i++ {
			s = append(s, 0x7f0000000000+uint64(rng.Int63n(int64(span))))
		}
		streams[fmt.Sprintf("uniform-%dK", span>>10)] = s
	}

	// Strided: within a line, line by line, and one set at a time
	// (stride cacheSets lines), each sweeping the range several times.
	for _, stride := range []uint64{8, 1 << cacheLineBits, cacheSets << cacheLineBits, 3 << 12} {
		var s []uint64
		for i := uint64(0); i < n; i++ {
			s = append(s, 0x10000+(i*stride)%(96<<10))
		}
		streams[fmt.Sprintf("stride-%d", stride)] = s
	}

	// Repeated same-line runs: a random line, touched 1-16 times at
	// random offsets before moving on, so same-line skips interleave
	// with hits and misses in every set.
	var runs []uint64
	for len(runs) < n {
		line := uint64(rng.Int63n(2048))
		for r := rng.Intn(16) + 1; r > 0; r-- {
			runs = append(runs, line<<cacheLineBits|uint64(rng.Intn(1<<cacheLineBits)))
		}
	}
	streams["same-line-runs"] = runs

	// More than cacheWays lines conflicting in one set: round robin over
	// 9 and 12 tags (every access misses), a hot subset that fits beside
	// a cold tail, and a random walk over 12 tags with repeats.
	var rr9, rr12, hot, walk []uint64
	for i := uint64(0); i < n/4; i++ {
		rr9 = append(rr9, conflictAddr(5, i%9, i))
		rr12 = append(rr12, conflictAddr(63, i%12, 0))
		if i%3 == 0 {
			hot = append(hot, conflictAddr(17, 8+i%7, 0))
		} else {
			hot = append(hot, conflictAddr(17, i%4, 8))
		}
		walk = append(walk, conflictAddr(uint64(rng.Intn(2)), uint64(rng.Intn(12)), uint64(rng.Intn(64))))
	}
	streams["conflict-rr9"] = rr9
	streams["conflict-rr12"] = rr12
	streams["conflict-hot-cold"] = hot
	streams["conflict-walk"] = walk

	// Fill and eviction mixed: phases that each pick a working set of
	// 4-24 tags in a few sets, so sets fill part-way, fill up, evict,
	// and get revisited by later phases.
	var mixed []uint64
	for len(mixed) < n {
		sets := []uint64{uint64(rng.Intn(cacheSets)), uint64(rng.Intn(4)), uint64(rng.Intn(4))}
		ntags := uint64(rng.Intn(21) + 4)
		for i := 0; i < 300; i++ {
			s := sets[rng.Intn(len(sets))]
			mixed = append(mixed, conflictAddr(s, uint64(rng.Int63n(int64(ntags))), uint64(rng.Intn(64))))
		}
	}
	streams["fill-evict-mixed"] = mixed
	return streams
}

// TestCacheOracle checks the L1 model against refCache over seeded
// address streams: every hit/miss and the final resident set must match.
func TestCacheOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, addrs := range oracleStreams(seed) {
			checkOracle(t, fmt.Sprintf("seed %d %s", seed, name), addrs)
		}
	}
}

// FuzzCacheOracle is TestCacheOracle over fuzzer-chosen streams. Each
// 2-byte chunk is one access: b1's low nibble picks one of 16 tags and
// its next two bits one of 4 sets, so sets overflow their 8 ways often;
// b0's low 6 bits are the byte in the line and its top 2 bits repeat
// the access 0-3 more times.
func FuzzCacheOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0xc0, 0x00, 0x01, 0x01})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 0, 0, 9, 0, 1})
	f.Add([]byte{0, 0x10, 0, 0x11, 0x40, 0x10, 0, 0x1f, 0, 0x10, 0xff, 0x3f, 0, 0x20, 0, 0x30})
	// Fill set 0, hit every way, then evict: the hit on tag 7 restamps
	// a line that was the last miss but is no longer its set's MRU.
	var stale []byte
	for _, tag := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 7} {
		stale = append(stale, 0, tag)
	}
	f.Add(stale)
	rr := make([]byte, 0, 64)
	for i := 0; i < 32; i++ {
		rr = append(rr, byte(i*5), byte(i%10))
	}
	f.Add(rr)
	f.Fuzz(func(t *testing.T, data []byte) {
		var addrs []uint64
		for i := 0; i+1 < len(data); i += 2 {
			b0, b1 := uint64(data[i]), uint64(data[i+1])
			a := conflictAddr(b1>>4&3, b1&15, b0)
			for r := b0 >> 6; ; r-- {
				addrs = append(addrs, a)
				if r == 0 {
					break
				}
			}
		}
		checkOracle(t, "fuzz", addrs)
	})
}
