// Package altcache implements the related-work cache organizations the
// paper discusses (§7): the column-associative cache, the 2-way
// skewed-associative cache, and the highly-associative CAM-tag cache
// (HAC, §6.7). They serve as comparison points and ablation baselines for
// the B-Cache.
package altcache

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
)

// Column is a column-associative cache (Agarwal & Pudar): a direct-mapped
// array probed with two hash functions — the index, and the index with
// its most significant bit flipped — plus a rehash bit per frame. A hit
// under the second hash costs an extra cycle and swaps the lines so the
// next reference hits first-time.
type Column struct {
	geom  cache.Geometry
	lines []columnLine
	stats *cache.Stats
	// SecondHits counts hits served by the second (rehash) probe; the
	// timing model charges them an extra cycle (paper §7.1: "could
	// affect the critical time of the cache hit").
	SecondHits uint64
	// Swaps counts line exchanges between the two probe locations.
	Swaps uint64
}

type columnLine struct {
	valid  bool
	dirty  bool
	rehash bool // the line lives at its alternate (flipped) location
	block  addr.Addr
}

var _ cache.Cache = (*Column)(nil)

// NewColumn builds a column-associative cache.
func NewColumn(size, lineBytes int) (*Column, error) {
	geom, err := cache.NewGeometry(size, lineBytes, 1)
	if err != nil {
		return nil, err
	}
	if geom.Sets < 2 {
		return nil, fmt.Errorf("altcache: column cache needs at least 2 sets")
	}
	return &Column{
		geom:  geom,
		lines: make([]columnLine, geom.Frames),
		stats: cache.NewStats(geom.Frames),
	}, nil
}

// flip toggles the MSB of a set index: the second hashing function.
func (c *Column) flip(set int) int { return set ^ (c.geom.Sets >> 1) }

// Access implements cache.Cache.
func (c *Column) Access(a addr.Addr, write bool) cache.Result {
	block := c.geom.Block(a)
	s1 := c.geom.Index(a)
	s2 := c.flip(s1)
	l1, l2 := &c.lines[s1], &c.lines[s2]

	if l1.valid && l1.block == block {
		if write {
			l1.dirty = true
		}
		c.stats.Record(s1, true, write)
		return cache.Result{Hit: true, Frame: s1}
	}
	if l2.valid && l2.block == block {
		// Second-probe hit: swap so the line is first-time next access.
		c.SecondHits++
		c.Swaps++
		*l1, *l2 = *l2, *l1
		l1.rehash = false
		l2.rehash = true
		if write {
			l1.dirty = true
		}
		c.stats.Record(s1, true, write)
		return cache.Result{Hit: true, Frame: s1, ExtraLatency: 1}
	}

	// Miss. If the first-probe frame holds a rehashed (non-resident-
	// index) line, it is the preferred victim: replacing it implements
	// the anti-thrash policy of the design. Otherwise the resident line
	// is demoted to its alternate location and the new line takes s1.
	var res cache.Result
	if !l1.valid || l1.rehash {
		res = c.replace(s1, columnLine{valid: true, dirty: write, block: block})
	} else {
		demoted := *l1
		demoted.rehash = true
		r2 := c.replace(s2, demoted)
		c.Swaps++
		res = c.replaceNoEvict(s1, columnLine{valid: true, dirty: write, block: block})
		res.Evicted = r2.Evicted
		res.EvictedAddr = r2.EvictedAddr
		res.EvictedDirty = r2.EvictedDirty
	}
	c.stats.Record(s1, false, write)
	return res
}

func (c *Column) replace(set int, nl columnLine) cache.Result {
	old := c.lines[set]
	res := cache.Result{Frame: set}
	if old.valid {
		res.Evicted = true
		res.EvictedAddr = old.block << c.geom.OffsetBits()
		res.EvictedDirty = old.dirty
		c.stats.RecordEviction(old.dirty)
	}
	c.lines[set] = nl
	return res
}

func (c *Column) replaceNoEvict(set int, nl columnLine) cache.Result {
	c.lines[set] = nl
	return cache.Result{Frame: set}
}

// Contains implements cache.Cache.
func (c *Column) Contains(a addr.Addr) bool {
	block := c.geom.Block(a)
	s1 := c.geom.Index(a)
	l1, l2 := &c.lines[s1], &c.lines[c.flip(s1)]
	return (l1.valid && l1.block == block) || (l2.valid && l2.block == block)
}

// Stats implements cache.Cache.
func (c *Column) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache.
func (c *Column) Geometry() cache.Geometry { return c.geom }

// Name implements cache.Cache.
func (c *Column) Name() string {
	return fmt.Sprintf("%dkB-column", c.geom.SizeBytes/1024)
}

// ExtraLatencySum returns cache.Result.ExtraLatency summed over every
// access since construction or the last Reset: each second-probe hit
// costs one extra cycle.
func (c *Column) ExtraLatencySum() uint64 { return c.SecondHits }

// Reset implements cache.Cache.
func (c *Column) Reset() {
	for i := range c.lines {
		c.lines[i] = columnLine{}
	}
	c.SecondHits = 0
	c.Swaps = 0
	c.stats.Reset()
}
