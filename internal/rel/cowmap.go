package rel

// postMap is a layered copy-on-write posting map from a stored int64
// id to the rows holding it: the index structure behind hashIndex that
// lets a published table snapshot keep reading posting lists while the
// live table keeps mutating them.
//
// Layout: `dirty` holds the current unpublished generation's writes,
// `layers` holds previously sealed generations (newest first), and
// `base` holds the oldest sealed state. A lookup probes dirty, then
// each layer, then base, and the first hit wins: an entry in a newer
// generation *replaces* the older list for that key outright (writers
// clone the merged list into dirty on first touch, so a dirty entry is
// always the complete current list). An empty list is a deletion
// marker that masks the key in older generations.
//
// Sealing (Table.Publish) moves dirty into the sealed stack and hands
// the snapshot a postMap value with dirty == nil; from that point the
// sealed maps and every list they hold are immutable — later writes go
// to a fresh dirty map and re-clone any list they touch. When the
// sealed stack grows past a few layers, or the layers together carry
// as many entries as base, seal folds everything into a fresh base
// map, which keeps lookups O(1) amortized without ever mutating a map
// a snapshot can still see.
type postMap struct {
	dirty  map[int64][]int32
	layers []map[int64][]int32 // sealed generations, newest first
	base   map[int64][]int32
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
	for _, m := range p.layers {
		if l, ok := m[k]; ok {
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
// fresh dirty map; the returned value's maps are never mutated again.
func (p *postMap) seal() postMap {
	if len(p.dirty) > 0 {
		if p.base == nil && len(p.layers) == 0 {
			// First publish after a bulk build: adopt dirty wholesale.
			p.base = p.dirty
		} else {
			nl := make([]map[int64][]int32, 0, len(p.layers)+1)
			nl = append(nl, p.dirty)
			nl = append(nl, p.layers...)
			p.layers = nl
			p.maybeFold()
		}
		p.dirty = nil
	}
	return postMap{layers: p.layers, base: p.base}
}

// maybeFold collapses the sealed layers into a fresh base map once
// they are deep or carry as many entries as base itself. The old base
// and layer maps are left untouched for snapshots that still hold
// them.
func (p *postMap) maybeFold() {
	entries := 0
	for _, m := range p.layers {
		entries += len(m)
	}
	if len(p.layers) <= 3 && entries < len(p.base) {
		return
	}
	nb := make(map[int64][]int32, len(p.base)+entries)
	for k, v := range p.base {
		nb[k] = v
	}
	for i := len(p.layers) - 1; i >= 0; i-- { // oldest → newest
		for k, v := range p.layers[i] {
			if len(v) == 0 {
				delete(nb, k)
			} else {
				nb[k] = v
			}
		}
	}
	p.base, p.layers = nb, nil
}
