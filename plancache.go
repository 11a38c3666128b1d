package db2rdf

import (
	"container/list"
	"sync"

	"db2rdf/internal/optimizer"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/translator"
)

// The compiled-plan cache. Parsing SPARQL, running the two-step
// optimizer, generating SQL and parsing that SQL back into the
// relational AST is pure computation over (query text, store state) —
// under heavy repeated query traffic it dominates short queries. A
// Store memoizes the whole pipeline keyed by query text, validated by
// the store's write epoch: any load bumps the epoch (spill state,
// multi-value state and the predicate→column mapping view all feed
// the generated SQL), so stale plans are detected lazily and recompiled.
//
// Queries with property-path closures are not cached: their
// translation references per-query PATHTMP_n temporary relations that
// are dropped when the query finishes.

// defaultPlanCacheSize bounds the LRU cache; beyond it the least
// recently used entry is evicted.
const defaultPlanCacheSize = 256

// compiledPlan is one fully compiled query: the rewritten SPARQL AST
// (needed for projection of the unit solution), the optimizer's flow
// and execution tree (rendered by EXPLAIN ANALYZE), the translation
// result (with the query plan), and the parsed relational AST, ready
// for rel.DB.Exec. None of it references the snapshot it was compiled
// on. All fields are read-only after construction, so one compiledPlan
// may be executed by any number of concurrent queries.
type compiledPlan struct {
	key    string
	epoch  uint64
	parsed *sparql.Query
	exec   *optimizer.ExecNode
	flow   *optimizer.Flow
	tr     *translator.Result
	rq     *rel.Query // nil when tr.SQL is empty (empty-pattern query)
}

// planCache is a mutex-guarded LRU map from query text to compiled
// plan. It is a leaf lock: nothing is acquired while holding it. Readers
// take it without any store lock (they run on a published snapshot).
//
// Accounting: every counter is mutated under mu, in the same critical
// section as the map/list change it describes, so a snapshot taken
// under mu is exactly consistent — the metrics registry re-exports
// these numbers and tests assert the conservation law
//
//	inserts == len(entries) + capEvictions + staleEvictions + resetDrops
//
// at any quiescent point. Every get is either a hit or a miss
// (hits + misses == gets); a stale entry found by get counts one miss
// and one staleEviction (the entry is dropped and will be recompiled),
// never a hit.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // element value: *compiledPlan

	hits           uint64
	misses         uint64
	inserts        uint64 // new keys added by put (replacements excluded)
	replacements   uint64 // put over an existing key
	capEvictions   uint64 // LRU drops beyond capacity
	staleEvictions uint64 // stale-epoch drops in get
	resetDrops     uint64 // entries dropped by reset
}

// planCacheStats is a consistent snapshot of the cache counters plus
// the current size.
type planCacheStats struct {
	Hits, Misses   uint64
	Inserts        uint64
	Replacements   uint64
	CapEvictions   uint64
	StaleEvictions uint64
	ResetDrops     uint64
	Size           int
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached plan for q if present and compiled at the
// given epoch; a stale entry is evicted and counted as a miss.
func (c *planCache) get(q string, epoch uint64) (*compiledPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[q]; ok {
		cp := el.Value.(*compiledPlan)
		if cp.epoch == epoch {
			c.order.MoveToFront(el)
			c.hits++
			return cp, true
		}
		c.order.Remove(el)
		delete(c.entries, q)
		c.staleEvictions++
	}
	c.misses++
	return nil, false
}

// put inserts (or replaces) the plan, evicting the least recently used
// entries beyond capacity.
func (c *planCache) put(cp *compiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[cp.key]; ok {
		el.Value = cp
		c.order.MoveToFront(el)
		c.replacements++
		return
	}
	c.entries[cp.key] = c.order.PushFront(cp)
	c.inserts++
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*compiledPlan).key)
		c.capEvictions++
	}
}

// contains reports whether q is cached and valid at epoch, without
// touching the hit/miss counters or the LRU order.
func (c *planCache) contains(q string, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[q]
	return ok && el.Value.(*compiledPlan).epoch == epoch
}

// reset drops every entry (counters are kept; the drops are recorded
// so the conservation law keeps holding).
func (c *planCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetDrops += uint64(c.order.Len())
	c.order.Init()
	c.entries = make(map[string]*list.Element)
}

// stats returns the lifetime hit and miss counts.
func (c *planCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// statsFull returns a consistent snapshot of all counters plus the
// current size, taken under the same lock the counters mutate under.
func (c *planCache) statsFull() planCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return planCacheStats{
		Hits: c.hits, Misses: c.misses,
		Inserts: c.inserts, Replacements: c.replacements,
		CapEvictions: c.capEvictions, StaleEvictions: c.staleEvictions,
		ResetDrops: c.resetDrops,
		Size:       len(c.entries),
	}
}
