// Package cache implements a generic set-associative write-back cache
// with true-LRU replacement. It is used for the CPU cache levels
// (L1/L2/L3) and for the memory controller's counter cache; it tracks
// presence and dirtiness only — data contents live in the functional
// machine model, not here.
package cache

import (
	"fmt"
	"math/bits"

	"supermem/internal/config"
)

// Stats accumulates cache accesses.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // total victims displaced by fills
	Writebacks uint64 // dirty victims displaced by fills
}

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative LRU cache keyed by line address.
//
// Way state is split over two parallel arrays indexed by
// set*ways+way. tags holds tag<<1|valid, so a lookup compares one word
// per way and an 8-way set's probe touches a single 64-byte host line.
// meta holds the LRU timestamp and the dirty bit as used<<1|dirty; it is
// read only on a hit or a fill.
type Cache struct {
	name     string
	tags     []uint64
	meta     []uint64
	ways     int
	setMask  uint64
	setShift uint
	setBits  uint
	tick     uint64
	stats    Stats
	// observer, if set, sees every Access outcome. The cache has no
	// notion of simulated time, so observability wiring (per-window
	// hit/miss series) lives in the caller's closure.
	observer func(hit bool)
}

// New builds a cache from a geometry configuration.
func New(name string, cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(name); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	return &Cache{
		name:     name,
		tags:     make([]uint64, nsets*cfg.Ways),
		meta:     make([]uint64, nsets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		setShift: uint(bits.TrailingZeros(config.LineSize)),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
	}
}

// Name returns the cache's name (for diagnostics).
func (c *Cache) Name() string { return c.name }

// SetObserver installs a hook invoked with each Access outcome (nil
// disables).
func (c *Cache) SetObserver(fn func(hit bool)) { c.observer = fn }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// CopyFrom makes c's contents, LRU state and statistics a copy of o's.
// Both caches must have the same geometry.
func (c *Cache) CopyFrom(o *Cache) {
	if len(c.tags) != len(o.tags) || c.ways != o.ways {
		panic(fmt.Sprintf("cache: copy %s into %s: geometries differ", o.name, c.name))
	}
	copy(c.tags, o.tags)
	copy(c.meta, o.meta)
	c.tick = o.tick
	c.stats = o.stats
}

// ResetStats zeroes the statistics without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// index returns the first way slot of addr's set and addr's tag.
func (c *Cache) index(addr uint64) (base int, tag uint64) {
	line := addr >> c.setShift
	return int(line&c.setMask) * c.ways, line >> c.setBits
}

// find returns the way slot holding addr's line, or -1.
func (c *Cache) find(addr uint64) int {
	base, tag := c.index(addr)
	key := tag<<1 | 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// touch makes slot i the most recently used, keeping its dirty bit and
// setting it if dirty is true.
func (c *Cache) touch(i int, dirty bool) {
	c.tick++
	c.meta[i] = c.tick<<1 | c.meta[i]&1 | b2u(dirty)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Contains reports whether the line holding addr is present. It does not
// update LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.find(addr) >= 0 }

// Dirty reports whether the line holding addr is present and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	i := c.find(addr)
	return i >= 0 && c.meta[i]&1 != 0
}

// Access looks up the line holding addr, updating LRU state and hit/miss
// statistics. When write is true a hit marks the line dirty. It reports
// whether the access hit. A miss does NOT fill the cache; callers decide
// whether and how to fill (see Fill).
func (c *Cache) Access(addr uint64, write bool) bool {
	i := c.find(addr)
	if i < 0 {
		c.stats.Misses++
		if c.observer != nil {
			c.observer(false)
		}
		return false
	}
	c.stats.Hits++
	c.touch(i, write)
	if c.observer != nil {
		c.observer(true)
	}
	return true
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill inserts the line holding addr (marking it dirty if dirty is true).
// If the set is full the LRU way is displaced and returned. Filling a
// line that is already present just updates its dirty bit and LRU state.
func (c *Cache) Fill(addr uint64, dirty bool) (v Victim, evicted bool) {
	base, tag := c.index(addr)
	key := tag<<1 | 1
	// One pass finds a hit, the first invalid way, or the LRU way.
	// Valid ways carry distinct timestamps, so comparing the packed
	// used<<1|dirty words orders them by timestamp alone.
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+len(tags)]
	victim, free := 0, -1
	for i, t := range tags {
		switch {
		case t == key:
			c.touch(base+i, dirty)
			return Victim{}, false
		case t&1 == 0:
			if free < 0 {
				free = i
			}
		case meta[i] < meta[victim]:
			victim = i
		}
	}
	if free >= 0 {
		victim = free
	} else {
		evicted = true
		v = Victim{Addr: c.addrOf(base+victim, tags[victim]>>1), Dirty: meta[victim]&1 != 0}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tick++
	tags[victim] = key
	meta[victim] = c.tick<<1 | b2u(dirty)
	return v, evicted
}

// addrOf rebuilds the line address of a tag held in way slot i.
func (c *Cache) addrOf(i int, tag uint64) uint64 {
	set := uint64(i / c.ways)
	return ((tag << c.setBits) | set) << c.setShift
}

// Clean clears the dirty bit of the line holding addr, if present. It
// reports whether the line was present and dirty (i.e. whether the caller
// now owns a writeback).
func (c *Cache) Clean(addr uint64) bool {
	i := c.find(addr)
	if i < 0 || c.meta[i]&1 == 0 {
		return false
	}
	c.meta[i] &^= 1
	return true
}

// Invalidate removes the line holding addr, returning whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	i := c.find(addr)
	if i < 0 {
		return false, false
	}
	present, dirty = true, c.meta[i]&1 != 0
	c.tags[i], c.meta[i] = 0, 0
	return present, dirty
}

// DirtyLines returns the addresses of all dirty lines, in no particular
// order. Used by the functional machine to discard volatile state on a
// crash and by write-back flush walks.
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for i, t := range c.tags {
		if t&1 != 0 && c.meta[i]&1 != 0 {
			out = append(out, c.addrOf(i, t>>1))
		}
	}
	return out
}

// Len returns the number of valid lines.
func (c *Cache) Len() int {
	n := 0
	for _, t := range c.tags {
		n += int(t & 1)
	}
	return n
}

// String summarises the cache for diagnostics.
func (c *Cache) String() string {
	return fmt.Sprintf("%s{sets=%d ways=%d hits=%d misses=%d}", c.name, len(c.tags)/c.ways, c.ways, c.stats.Hits, c.stats.Misses)
}
