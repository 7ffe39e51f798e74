// Package victim implements a direct-mapped cache backed by a small
// fully-associative victim buffer (Jouppi), the main prior technique the
// paper compares the B-Cache against (§6.6: a 16-entry buffer).
//
// On a main-cache miss the buffer is probed; on a buffer hit the line is
// swapped back into the main cache (an extra cycle in hardware — the
// timing model charges it). Lines displaced from the main cache fall into
// the buffer, which evicts the oldest-inserted line.
package victim

import (
	"fmt"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/stackdist"
)

// Cache is a direct-mapped cache plus victim buffer. It implements
// cache.Cache; Stats() reports the combined hit/miss behaviour (a buffer
// hit counts as a hit).
//
// The buffer is a stackdist.Index: a hash map from line address to a
// node on an intrusive insertion-order list, so the probe and the
// eviction choice are O(1) instead of O(entries). Entries are never
// recency-touched — a buffer hit removes the line (it moves back into
// the main cache) — so the list's LRU end is the oldest insertion,
// exactly the victim the previous stamp-scan implementation picked.
type Cache struct {
	main    *cache.SetAssoc
	buf     *stackdist.Index
	entries int
	stats   *cache.Stats
	probe   cache.Probe // nil unless observability is attached
	// BufferHits counts hits served from the victim buffer; these take
	// an extra cycle when the buffer is probed after the main cache.
	BufferHits uint64

	// Address-slicing constants of the main geometry, precomputed once:
	// Access runs once per simulated reference, and re-deriving them
	// from Geometry per call is measurable at suite scale.
	lineMask addr.Addr
	offBits  uint
	idxMask  int
}

var _ cache.Cache = (*Cache)(nil)

// New builds a direct-mapped size/lineBytes cache with an entries-line
// fully-associative victim buffer.
func New(size, lineBytes, entries int) (*Cache, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("victim: non-positive buffer size %d", entries)
	}
	main, err := cache.NewDirectMapped(size, lineBytes)
	if err != nil {
		return nil, err
	}
	g := main.Geometry()
	return &Cache{
		main:     main,
		buf:      stackdist.NewIndex(entries),
		entries:  entries,
		stats:    cache.NewStats(g.Frames),
		lineMask: ^addr.Addr(uint64(g.LineBytes) - 1),
		offBits:  g.OffsetBits(),
		idxMask:  g.Sets - 1,
	}, nil
}

// Entries returns the victim buffer capacity in lines.
func (c *Cache) Entries() int { return c.entries }

// Access implements cache.Cache.
func (c *Cache) Access(a addr.Addr, write bool) cache.Result {
	if c.main.Contains(a) {
		r := c.main.Access(a, write)
		c.stats.Record(r.Frame, true, write)
		if c.probe != nil {
			c.probe.ObserveAccess(r.Frame, true, write)
		}
		return r
	}
	line := a & c.lineMask
	frame := int(a>>c.offBits) & c.idxMask

	// Main miss: probe the buffer.
	if n := c.buf.Get(line); n != nil {
		// Swap: the buffered line moves into the main cache and the
		// displaced main line takes its place in the buffer.
		c.BufferHits++
		bufDirty := n.Val != 0
		c.buf.Remove(n)
		r := c.main.Access(a, write || bufDirty)
		if r.Evicted {
			c.insert(r.EvictedAddr, r.EvictedDirty)
		}
		c.stats.Record(frame, true, write)
		if c.probe != nil {
			c.probe.ObserveAccess(frame, true, write)
		}
		// The buffer is probed after the main cache misses: +1 cycle
		// (paper §1: "an extra cycle is required to access the victim
		// buffer").
		return cache.Result{Hit: true, Frame: r.Frame, ExtraLatency: 1}
	}

	// Both miss: refill the main cache; its victim drops into the buffer.
	r := c.main.Access(a, write)
	res := cache.Result{Hit: false, Frame: r.Frame}
	if r.Evicted {
		if evLine, evDirty, evicted := c.insert(r.EvictedAddr, r.EvictedDirty); evicted {
			// The buffer's oldest line leaves the hierarchy level entirely.
			res.Evicted = true
			res.EvictedAddr = evLine
			res.EvictedDirty = evDirty
			c.stats.RecordEviction(evDirty)
			if c.probe != nil {
				c.probe.ObserveEvict(evDirty)
			}
		}
	}
	c.stats.Record(frame, false, write)
	if c.probe != nil {
		c.probe.ObserveAccess(frame, false, write)
	}
	return res
}

// SetProbe implements cache.Probed: the probe observes the combined
// main-cache-plus-buffer behaviour (a buffer hit is a hit), matching
// Stats(). The inner direct-mapped cache is not probed separately.
func (c *Cache) SetProbe(p cache.Probe) { c.probe = p }

// StateBits delegates fault injection to the main direct-mapped array,
// where nearly all of the state (and therefore the soft-error cross
// section) lives; the small victim buffer is not modelled as a target.
func (c *Cache) StateBits(d cache.FaultDomain) uint64 { return c.main.StateBits(d) }

// FlipStateBit flips a main-array state bit (see cache.SetAssoc).
func (c *Cache) FlipStateBit(d cache.FaultDomain, bit uint64) { c.main.FlipStateBit(d, bit) }

// InvalidateSite drops the main-array line owning the bit.
func (c *Cache) InvalidateSite(d cache.FaultDomain, bit uint64) { c.main.InvalidateSite(d, bit) }

// insert places a displaced line into the buffer, evicting the oldest
// entry when full; evicted reports whether a valid line was displaced.
func (c *Cache) insert(line addr.Addr, dirty bool) (evLine addr.Addr, evDirty, evicted bool) {
	if c.buf.Len() == c.entries {
		old := c.buf.LRU()
		evLine, evDirty, evicted = old.Key, old.Val != 0, true
		c.buf.Remove(old)
	}
	var val uint64
	if dirty {
		val = 1
	}
	c.buf.Insert(line, val)
	return evLine, evDirty, evicted
}

// Contains implements cache.Cache (main cache or buffer).
func (c *Cache) Contains(a addr.Addr) bool {
	if c.main.Contains(a) {
		return true
	}
	return c.buf.Get(a&c.lineMask) != nil
}

// Stats implements cache.Cache.
func (c *Cache) Stats() *cache.Stats { return c.stats }

// Geometry implements cache.Cache (the main cache's shape).
func (c *Cache) Geometry() cache.Geometry { return c.main.Geometry() }

// Name implements cache.Cache.
func (c *Cache) Name() string {
	return fmt.Sprintf("%dkB-dm+victim%d", c.main.Geometry().SizeBytes/1024, c.entries)
}

// ExtraLatencySum returns cache.Result.ExtraLatency summed over every
// access since construction or the last Reset: each buffer hit
// costs one extra cycle.
func (c *Cache) ExtraLatencySum() uint64 { return c.BufferHits }

// Reset implements cache.Cache.
func (c *Cache) Reset() {
	c.main.Reset()
	c.buf.Reset()
	c.BufferHits = 0
	c.stats.Reset()
}
