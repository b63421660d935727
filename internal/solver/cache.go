package solver

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/pred"
)

// CacheStats reports the counters of a Cache. Every query is answered in
// exactly one of three ways: from geometry (Exact, constant-difference
// pairs, which never reach the memo), from the memo (Hits), or by Compare
// on a memo miss, which stores the verdict (Entries counts the stored
// verdicts).
type CacheStats struct {
	Queries uint64
	Hits    uint64
	Exact   uint64
	Entries int
}

// HitRate returns the fraction of queries answered from the memo. Exact
// answers are not hits, so a workload of constant-difference pairs reads
// a low rate however cheap its queries are.
func (s CacheStats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// Cache memoizes the Compare verdicts that depend on the predicate. A pair
// whose addresses differ by a constant — most of what compiler-generated
// address arithmetic asks: two slots of one frame, two fields of one
// object — is decided by geometry alone, so Cache.Compare answers it
// before the memo: no lock, no probe, no entry. What remains are pairs whose
// difference has symbolic terms, decided over the predicate's interval
// clauses; those recur across the vertices of a function and are worth a
// table. The key is a triple of 64-bit fingerprints: the predicate's
// interval fingerprint (pred.RangesFingerprint — Compare consults the
// predicate only through RangeOf, i.e. only through the interval clauses,
// so it is exact) and one fingerprint per region mixing the interned
// address fingerprint with the size. Probing allocates nothing: the key is
// a comparable struct of three words, not a freshly built string.
//
// Fingerprints can collide, returning a stale verdict for a distinct query.
// Each component collides with probability ~2⁻⁶⁴ per pair; by the birthday
// bound a table of 10⁶ entries mis-keys with probability ≈ 3·10⁻⁸ over the
// whole run, far below the noise floor of everything else (and the triple
// checker independently re-proves every Hoare triple downstream).
//
// A Cache is safe for concurrent use by the pipeline's lift workers.
type Cache struct {
	mu sync.RWMutex
	m  map[memoKey]Result
	// One counter per way a query is answered; Queries is their sum, so
	// each query costs one atomic add.
	exact, hits, misses atomic.Uint64
}

// memoKey is the comparable three-fingerprint memo key.
type memoKey struct {
	ranges uint64
	r0, r1 uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: map[memoKey]Result{}}
}

// Compare answers like the package-level Compare: a constant-difference
// pair from geometry, anything else from the memo first. The second
// result reports whether the verdict was a memo hit.
func (c *Cache) Compare(p *pred.Pred, r0, r1 Region) (Result, bool) {
	if d, ok := SameBaseDistance(r0.Addr, r1.Addr); ok {
		c.exact.Add(1)
		return exact(d, int64(r0.Size), int64(r1.Size)), false
	}
	key := cacheKey(p, r0, r1)
	c.mu.RLock()
	res, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return res, true
	}
	c.misses.Add(1)
	res = Compare(p, r0, r1)
	c.mu.Lock()
	c.m[key] = res
	c.mu.Unlock()
	return res, false
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	s := CacheStats{Hits: c.hits.Load(), Exact: c.exact.Load(), Entries: n}
	s.Queries = s.Hits + s.Exact + c.misses.Load()
	return s
}

// cacheKey builds the memo key from precomputed fingerprints.
func cacheKey(p *pred.Pred, r0, r1 Region) memoKey {
	return memoKey{
		ranges: p.RangesFingerprint(),
		r0:     expr.MixFP(r0.Addr.Fingerprint(), r0.Size),
		r1:     expr.MixFP(r1.Addr.Fingerprint(), r1.Size),
	}
}
