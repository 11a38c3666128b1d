package db2rdf

import (
	"container/list"
	"sync"

	"db2rdf/internal/optimizer"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
	"db2rdf/internal/translator"
)

// The compiled-plan cache. Parsing SPARQL, running the two-step
// optimizer, generating SQL and parsing that SQL back into the
// relational AST is pure computation over (query text, translator
// inputs) — under heavy repeated query traffic it dominates short
// queries. A Store memoizes the whole pipeline keyed by query text.
// A plan reads no triples, only the spill and multi-value markers and
// the dictionary ids of its constants, so it is validated against the
// snapshot's plan epoch, which moves only when a marker set changes:
// writes that add no marker keep every plan. A constant absent from the
// dictionary compiles to the no-match id -1, which is wrong once the
// term is interned, so such a plan is valid at its data epoch only.
// The optimizer's statistics move with every write but steer plan
// quality only, so they never invalidate. Nor do a closure's pairs: the
// plan reads them by the closure's stable relation name, and each
// snapshot computes them for itself (paths.go).

// defaultPlanCacheSize bounds the LRU cache; beyond it the least
// recently used entry is evicted.
const defaultPlanCacheSize = 256

// compiledPlan is one fully compiled query: the rewritten SPARQL AST
// (needed for projection of the unit solution), the optimizer's flow
// and execution tree (rendered by EXPLAIN ANALYZE), the translation
// result (the query plan and the bound relational query, ready for
// rel.DB.ExecContext), and the closures whose relations it reads. None of it
// references the snapshot it was compiled on. All fields are read-only
// after construction, so one compiledPlan may be executed by any
// number of concurrent queries.
type compiledPlan struct {
	key       string
	planEpoch uint64 // plan epoch of the snapshot compiled on
	epoch     uint64 // data epoch of the snapshot compiled on
	absent    bool   // a constant was absent from the dictionary
	parsed    *sparql.Query
	exec      *optimizer.ExecNode
	flow      *optimizer.Flow
	tr        *translator.Result
	closures  []sparql.Closure // the closure relations tr.Query reads
}

// validAt reports whether cp may run on sn: at the plan epoch it was
// compiled at, or, when it compiled an absent constant, only at the
// data epoch it was compiled at.
func (cp *compiledPlan) validAt(sn *store.Snapshot) bool {
	if cp.absent {
		return cp.epoch == sn.Epoch()
	}
	return cp.planEpoch == sn.PlanEpoch()
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
	staleEvictions uint64 // stale plan-epoch drops in get
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

// get returns the cached plan for q if present and valid at sn; a
// stale entry is evicted and counted as a miss.
func (c *planCache) get(q string, sn *store.Snapshot) (*compiledPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[q]; ok {
		cp := el.Value.(*compiledPlan)
		if cp.validAt(sn) {
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

// contains reports whether q is cached and valid at sn, without
// touching the hit/miss counters or the LRU order.
func (c *planCache) contains(q string, sn *store.Snapshot) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[q]
	return ok && el.Value.(*compiledPlan).validAt(sn)
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
