package machine

// cache models a set-associative L1 data cache with LRU replacement. Each
// hardware thread (core) has its own instance. The model only affects the
// cycle count, never the architectural state — it exists so that effects
// like the extra cache pressure of split public/private stacks (paper
// Fig. 6, OurMPX vs OurMPX-Sep) are observable.
type cache struct {
	// last is the line number of the most recent access (^0, which no
	// line number equals, before the first). See access for why a repeat
	// of it needs no bookkeeping.
	last uint64

	// clock is the per-cache LRU timestamp source. It is per instance (not
	// a process global) so that a machine's replacement decisions depend
	// only on its own access sequence: LRU comparisons are always between
	// lines of the same cache, so only the relative order of that cache's
	// own accesses matters, and a private monotonic clock preserves it
	// while keeping runs reproducible no matter what else the process has
	// simulated before.
	clock uint64

	// tags[s][w] is way w's tag plus one, so 0 marks an invalid way, and
	// lru[s][w] its last-use stamp. Ways fill in index order and are
	// never invalidated, so set s's valid ways are exactly
	// [0, fill[s]): "first invalid way" is fill[s].
	tags [cacheSets][cacheWays]uint64
	lru  [cacheSets][cacheWays]uint64
	fill [cacheSets]uint8
}

// cache geometry: 32 KB, 64-byte lines, 8-way (Skylake-like L1D).
const (
	cacheLineBits = 6
	cacheWays     = 8
	cacheSets     = 32 * 1024 / (1 << cacheLineBits) / cacheWays
)

// A line number splits into set line%cacheSets and tag line/cacheSets.
// With cacheSets a power of two both compile to a mask and a shift; this
// array has a negative length, and the package fails to compile,
// otherwise.
var _ [1 - 2*(cacheSets&(cacheSets-1))]struct{}

func newCache() *cache { return &cache{last: ^uint64(0)} }

// access touches addr and reports whether it hit. Replacement is LRU
// within the set, filling the first invalid way by index first.
//
// A repeat of the last line accessed is a hit that skips both clock++
// and the LRU write, and access stays small enough to inline, so such a
// hit makes no call. This is exact: that line is resident (an access
// always leaves its line resident and nothing invalidates), and its
// stamp is the highest in its set. LRU compares stamps only within one
// set, and the skip leaves every stamp's order unchanged, so no later
// victim differs from restamping it.
func (c *cache) access(addr uint64) bool {
	line := addr >> cacheLineBits
	return line == c.last || c.probe(line)
}

// probe is access for a line other than the last one.
func (c *cache) probe(line uint64) bool {
	c.last = line
	c.clock++
	s := line % cacheSets
	tags, lru := &c.tags[s], &c.lru[s]
	tag := line/cacheSets + 1
	for i := range tags {
		if tags[i] == tag {
			lru[i] = c.clock
			return true
		}
	}
	victim := int(c.fill[s])
	if victim < cacheWays {
		c.fill[s]++
	} else {
		victim = 0
		for i := 1; i < cacheWays; i++ {
			if lru[i] < lru[victim] {
				victim = i
			}
		}
	}
	tags[victim] = tag
	lru[victim] = c.clock
	return false
}
