package rel

import "math"

// postMap is a layered copy-on-write posting map from a stored int64
// id to the rows holding it: the index structure behind hashIndex that
// lets a published table snapshot keep reading posting lists while the
// live table keeps mutating them.
//
// Layout: `dirty` holds the current unpublished generation's writes,
// `layers` holds sealed generations (newest first), and `base` holds
// the oldest sealed state. A lookup probes dirty, then each layer, then
// base, and the first hit wins: an entry in a newer generation
// *replaces* the older list for that key outright (writers clone the
// merged list into dirty on first touch, so a dirty entry is always the
// complete current list). An empty list is a deletion marker that masks
// the key in older generations.
//
// Sealing (Table.Publish) pushes dirty onto the sealed stack and hands
// the snapshot a postMap value with dirty == nil; from that point the
// sealed maps, the layers slice and every list they hold are immutable
// — later writes go to a fresh dirty map and re-clone any list they
// touch, and every seal builds a fresh layers slice.
//
// The stack is size-tiered, so a publish costs what it wrote, not the
// index's size. While the newest layer holds at least half as many
// entries as the one below it, the two merge into a fresh map (the
// newer list wins; deletion markers survive, since base may still hold
// the key). Each layer is therefore more than twice the size of the one
// above it, a lookup probes O(log n) of them, and a key is re-copied
// O(log n) times before it reaches base. Only when the layers together
// reach 1/foldFraction of base are they folded into a fresh base, which
// amortizes the base copy over at least that many written entries. A
// store that was only bulk-loaded seals once and has no layers at all.
//
// Each layer carries the bounds of its keys, and a probe outside them
// skips the layer without hashing. Writes mostly index fresh ids —
// new subjects, objects and lids, which the dictionary hands out in
// ascending order — so a probe for an older key usually reaches base
// after a couple of compares per layer.
type postMap struct {
	dirty  map[int64][]int32
	layers []layer // sealed generations, newest first
	base   map[int64][]int32

	// copied counts the map entries seal has copied into fresh maps —
	// tier merges plus folds — over the map's lifetime: the work a
	// publish does beyond its own delta.
	copied int
}

// foldFraction bounds the sealed layers at 1/foldFraction of base
// before they fold into it. A fold copies all of base, so it must wait
// for a write volume proportional to base to keep publishes O(delta)
// amortized; eight keeps the layers (and a lookup's misses in them)
// small beside base while a fold costs at most nine copies per entry
// written since the last one.
const foldFraction = 8

// layer is one sealed generation of a postMap: its entries and the
// least and greatest of their keys.
type layer struct {
	m      map[int64][]int32
	lo, hi int64
}

// find returns the current posting list for k (nil when absent or
// deleted). Safe on sealed copies (dirty == nil) without any lock; on
// the live map the caller must exclude writers.
func (p *postMap) find(k int64) []int32 {
	if p.dirty != nil {
		if l, ok := p.dirty[k]; ok {
			return l
		}
	}
	return p.findSealed(k)
}

// findSealed is find restricted to the sealed layers and base.
func (p *postMap) findSealed(k int64) []int32 {
	for i := range p.layers {
		ly := &p.layers[i]
		if k < ly.lo || k > ly.hi {
			continue
		}
		if l, ok := ly.m[k]; ok {
			return l
		}
	}
	if p.base != nil {
		return p.base[k]
	}
	return nil
}

// add appends id to k's posting list in the dirty generation, cloning
// the sealed list on the first touch of k this generation.
func (p *postMap) add(k int64, id int32) {
	if p.dirty == nil {
		p.dirty = make(map[int64][]int32)
	}
	if l, ok := p.dirty[k]; ok {
		p.dirty[k] = append(l, id)
		return
	}
	cur := p.findSealed(k)
	nl := make([]int32, len(cur), len(cur)+1)
	copy(nl, cur)
	p.dirty[k] = append(nl, id)
}

// remove drops the first occurrence of id from k's posting list,
// preserving order (probe determinism depends on posting-list order).
// A list that empties stays in dirty as a deletion marker masking the
// sealed generations.
func (p *postMap) remove(k int64, id int32) {
	if p.dirty != nil {
		if l, ok := p.dirty[k]; ok {
			p.dirty[k] = dropID(l, id)
			return
		}
	}
	cur := p.findSealed(k)
	i := -1
	for j, v := range cur {
		if v == id {
			i = j
			break
		}
	}
	if i < 0 {
		return
	}
	nl := make([]int32, 0, len(cur)-1)
	nl = append(nl, cur[:i]...)
	nl = append(nl, cur[i+1:]...)
	if p.dirty == nil {
		p.dirty = make(map[int64][]int32)
	}
	p.dirty[k] = nl
}

// seal closes the dirty generation and returns an immutable copy for
// the snapshot being published. The receiver keeps writing into a
// fresh dirty map; the returned value's maps and layers slice are
// never mutated again.
func (p *postMap) seal() postMap {
	if len(p.dirty) > 0 {
		if p.base == nil && len(p.layers) == 0 {
			// First publish after a bulk build: adopt dirty wholesale.
			p.base = p.dirty
		} else {
			p.push(newLayer(p.dirty))
		}
		p.dirty = nil
	}
	return postMap{layers: p.layers, base: p.base}
}

// newLayer seals m as a layer, recording its key bounds.
func newLayer(m map[int64][]int32) layer {
	ly := layer{m: m, lo: math.MaxInt64, hi: math.MinInt64}
	for k := range m {
		ly.lo, ly.hi = min(ly.lo, k), max(ly.hi, k)
	}
	return ly
}

// push makes ly the newest sealed layer, merging size tiers and folding
// into base as the type comment describes. It builds a fresh layers
// slice, and merges and folds into fresh maps, so the slices and maps
// earlier sealed copies hold are left untouched.
func (p *postMap) push(ly layer) {
	ls := make([]layer, 0, len(p.layers)+1)
	ls = append(ls, ly)
	ls = append(ls, p.layers...)
	for len(ls) > 1 && 2*len(ls[0].m) >= len(ls[1].m) {
		ls[1] = p.merge(ls[1], ls[0])
		ls = ls[1:]
	}
	entries := 0
	for _, l := range ls {
		entries += len(l.m)
	}
	if foldFraction*entries < len(p.base) {
		p.layers = ls
		return
	}
	nb := make(map[int64][]int32, len(p.base)+entries)
	for k, v := range p.base {
		nb[k] = v
	}
	for i := len(ls) - 1; i >= 0; i-- { // oldest → newest
		for k, v := range ls[i].m {
			if len(v) == 0 {
				delete(nb, k)
			} else {
				nb[k] = v
			}
		}
	}
	p.copied += len(p.base) + entries
	p.base, p.layers = nb, nil
}

// merge returns a fresh layer holding older overlaid by newer,
// deletion markers included.
func (p *postMap) merge(older, newer layer) layer {
	m := make(map[int64][]int32, len(older.m)+len(newer.m))
	for k, v := range older.m {
		m[k] = v
	}
	for k, v := range newer.m {
		m[k] = v
	}
	p.copied += len(older.m) + len(newer.m)
	return layer{m: m, lo: min(older.lo, newer.lo), hi: max(older.hi, newer.hi)}
}
