package metrics

import "unsafe"

// This file is the write path's front of the series index: a table that
// finds a written sample's series by the identity of its five strings
// (metric, tenant, service, version, variant), their data pointers and
// lengths, instead of building the series key and hashing its bytes. The
// strings a write names are, flush after flush, the same strings: the
// wire decoder's interned dictionary and the authenticated principal's
// tenant. Record and RecordBatch resolve through it; Query keeps the key
// probe.

// A write cache starts at 64 entries, 7 KB with its tags and seen, and
// doubles up to 2 048, 216 KB, while strings it has seen keep missing:
// once, since it last grew, as many misses as it has entries, and at
// least one lookup in eight, named strings that had missed before. A
// grown table starts empty. A store written series after series keeps
// the small table, and so does one whose writes bring fresh strings
// every time (the JSON path decodes new ones per request): a larger
// table would not hit for them either. One whose batches spread over
// hundreds of series that come back grows it in a few batches.
const (
	minCacheBits = 6
	maxCacheBits = 11
)

// cacheEntry is a series as a write named it. It holds the strings, not
// only their addresses, so no address it was found by can be freed and
// reused for other bytes while it is cached. It keeps them and the
// series alive until it is overwritten or the pool drops its table.
type cacheEntry struct {
	metric, tenant, service, version, variant string
	s                                         *series
}

// writeCache is a direct-mapped table of cacheEntry, one per P: the
// Store keeps them in a sync.Pool, so a write takes one without a lock
// and the collector drops those left unused. A slot is picked by a hash
// of the strings' addresses and lengths and answers only when all five
// strings are the write's, so a collision costs a miss, never the wrong
// series. gen is the Store generation the entries belong to
// (Store.Reset).
type writeCache struct {
	gen   uint64
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the slot
	slots []cacheEntry
	// tags are, by slot, the tag of the entry's identityHash, 0 for an
	// empty slot: a write whose tag differs misses without reading the
	// entry, and its strings, on other lines.
	tags []uint32
	// seen, four times as long as slots, holds at the top bits of its
	// identityHash the tag of each missed write: a miss that finds its
	// own has missed before, and its strings may come back again.
	seen []uint32
	// lookups and repeats count since the table last grew: the writes
	// taken for, and the misses seen had met before.
	lookups, repeats int
	key              []byte // scratch for the series key a miss probes the index with
}

// writeCache takes a write cache for n writes to this store, emptied if
// the store was Reset since it was filled and grown if its misses have
// been many. Return it with st.caches.Put.
func (st *Store) writeCache(n int) *writeCache {
	c, _ := st.caches.Get().(*writeCache)
	switch {
	case c == nil:
		c = &writeCache{shift: 64 - minCacheBits}
		c.resize(1 << minCacheBits)
	case len(c.slots) < 1<<maxCacheBits && c.repeats >= len(c.slots) && 8*c.repeats >= c.lookups:
		c.shift--
		c.resize(2 * len(c.slots))
		c.lookups, c.repeats = 0, 0
	}
	if g := st.gen.Load(); c.gen != g {
		clear(c.slots)
		clear(c.tags)
		c.gen = g
	}
	c.lookups += n
	return c
}

// resize gives c empty tables of n slots.
func (c *writeCache) resize(n int) {
	c.slots, c.tags, c.seen = make([]cacheEntry, n), make([]uint32, n), make([]uint32, 4*n)
}

// word is the part of a string its slot is hashed from: where its bytes
// are, and how many.
func word(s string) uint64 {
	return uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) + uint64(len(s))
}

// identityHash is a multiplicative hash of the five strings' words, each
// by its own odd constant. Its top bits pick a write's slot, and its low
// 32 make its tag.
func identityHash(metric string, sc *Scope) uint64 {
	return word(metric)*0x9E3779B97F4A7C15 + word(sc.Tenant)*0xC2B2AE3D27D4EB4F +
		word(sc.Service)*0x165667B19E3779F9 + word(sc.Version)*0xD6E8FEB86659FD93 +
		word(sc.Variant)*0xFF51AFD7ED558CCD
}

// tag is what writeCache.tags and seen keep of an identityHash: its low
// 32 bits, odd, so no tag is the empty slot's 0.
func tag(h uint64) uint32 { return uint32(h) | 1 }

// same reports whether a and b are one string: the same bytes at the
// same address. Equal bytes at two addresses hash to two slots, so
// comparing them here would find a hit only by collision.
func same(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// lookup returns the series the slot of hash h holds for (metric,
// scope), or nil.
func (c *writeCache) lookup(h uint64, metric string, sc *Scope) *series {
	if c.tags[h>>c.shift] != tag(h) {
		return nil
	}
	e := &c.slots[h>>c.shift]
	if same(e.metric, metric) && same(e.service, sc.Service) && same(e.version, sc.Version) &&
		same(e.tenant, sc.Tenant) && same(e.variant, sc.Variant) {
		return e.s
	}
	return nil
}

// lockCached returns the series of (metric, scope), whose identityHash
// is h, with its mutex held, for a write. s is what lookup answered, nil
// for a miss. A miss probes the index with the series key, creating the
// series on its first write, and fills the slot if it is empty or if
// these strings have missed before: strings that never come back, as
// the JSON path's, do not push out those that do. A series Maintain has
// marked evicted since it was found is resolved again (Store.lockSeries).
func (st *Store) lockCached(c *writeCache, h uint64, s *series, metric string, sc *Scope) *series {
	i := h >> c.shift
	if s != nil {
		s.mu.Lock()
		if s.evicted { // rare enough to pay for the key string
			s.mu.Unlock()
			c.key = appendSeriesKey(c.key[:0], metric, sc)
			s = st.lockSeries(string(c.key))
			c.slots[i].s = s // the slot holds this write's strings
		}
		return s
	}
	c.key = appendSeriesKey(c.key[:0], metric, sc)
	if s = st.lookupBytes(c.key); s == nil {
		s = st.getOrCreate(string(c.key))
	}
	s.mu.Lock()
	if s.evicted { // between the probe and the lock
		s.mu.Unlock()
		s = st.lockSeries(string(c.key))
	}
	// The slot is written after the lock, which waits for the stores
	// before it to drain.
	seen := &c.seen[h>>(c.shift-2)]
	again := *seen == tag(h)
	*seen = tag(h)
	if again {
		c.repeats++
	}
	if again || c.tags[i] == 0 {
		e := &c.slots[i] // field by field: a literal is built aside and copied in
		e.metric, e.tenant, e.service, e.version, e.variant, e.s = metric, sc.Tenant, sc.Service, sc.Version, sc.Variant, s
		c.tags[i] = tag(h)
	}
	return s
}
