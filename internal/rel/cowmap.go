package rel

import (
	"cmp"
	"math"
	"slices"
)

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
// dirty is the writer's own map. Every sealed generation — each layer
// and base — is a run (see below): a sorted key array with the rows of
// all its keys in one offset-indexed array, searched through a bucket
// directory. A run holds no pointer but its four arrays, so however
// many keys an index has, the GC marks four objects per generation.
//
// Sealing (Table.Publish) builds a run from dirty and hands the
// snapshot a postMap value with dirty == nil; from that point the
// runs, the layers slice and every list they hold are immutable — later
// writes go to a fresh dirty map and re-clone any list they touch,
// every seal builds a fresh layers slice, and a list found in a run is
// a capped window of its postings, so an append by any caller copies.
//
// The stack is size-tiered, so a publish costs what it wrote, not the
// index's size. While the newest layer holds at least half as many
// keys as the one below it, the two merge into a fresh run (the newer
// list wins; deletion markers survive, since base may still hold the
// key). Each layer is therefore more than twice the size of the one
// above it, a lookup probes O(log n) of them, and a key is re-copied
// O(log n) times before it reaches base. Only when the layers together
// reach 1/foldFraction of base are they folded into a fresh base, which
// drops the markers and amortizes the base copy over at least that
// many written entries. Runs are sorted, so a merge and a fold are
// linear merges of sorted runs. A store that was only bulk-loaded
// seals once and has no layers at all.
//
// A run's first and last keys bound it, and a probe outside them skips
// the run without a search. Writes mostly index fresh ids — new
// subjects, objects and lids, which the dictionary hands out in
// ascending order — so a probe for an older key usually reaches base
// after a couple of compares per layer.
type postMap struct {
	dirty  map[int64][]int32
	layers []run // sealed generations, newest first
	base   run

	// copied counts the postings seal has copied into fresh runs — tier
	// merges plus folds — over the map's lifetime: the work a publish
	// does beyond its own delta. A run a merge shares is not a copy.
	copied int
}

// foldFraction bounds the sealed layers at 1/foldFraction of base
// before they fold into it. A fold copies all of base, so it must wait
// for a write volume proportional to base to keep publishes O(delta)
// amortized; eight keeps the layers (and a lookup's misses in them)
// small beside base while a fold costs at most nine copies per entry
// written since the last one.
const foldFraction = 8

// run is one sealed generation of a postMap, laid out as the static
// half of Compressed Vertical Partitioning: keys ascending, and key i's
// rows, in their posting order, at posts[offs[i]:offs[i+1]]. In a
// layer an empty range is a deletion marker; base holds none.
//
// dir is a bucket directory over [keys[0], keys[len-1]]: key k falls in
// bucket (k-keys[0]) >> shift, and the keys of bucket b are
// keys[dir[b]:dir[b+1]]. shift is the least that leaves no more buckets
// than keys, so a bucket holds about one key, and a lookup reads two
// directory entries and searches the few keys between them. Clustered
// keys may share a bucket; the search there is binary.
type run struct {
	keys  []int64
	offs  []int32
	posts []int32
	dir   []int32
	shift uint8
}

// find returns k's rows in r and whether r holds k (a deletion marker
// is held: an empty list and true). The list is capped at its length.
func (r *run) find(k int64) ([]int32, bool) {
	n := len(r.keys)
	if n == 0 || k < r.keys[0] || k > r.keys[n-1] {
		return nil, false
	}
	b := bucket(k, r.keys[0], r.shift)
	lo, hi := int(r.dir[b]), int(r.dir[b+1])
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch km := r.keys[m]; {
		case km < k:
			lo = m + 1
		case km > k:
			hi = m
		default:
			a, e := r.offs[m], r.offs[m+1]
			return r.posts[a:e:e], true
		}
	}
	return nil, false
}

// list returns the rows of r's i'th key.
func (r *run) list(i int) []int32 { return r.posts[r.offs[i]:r.offs[i+1]:r.offs[i+1]] }

// bucket is the directory bucket of k in a run whose least key is lo.
// The difference is taken unsigned, so a run may span all of int64.
func bucket(k, lo int64, shift uint8) int { return int((uint64(k) - uint64(lo)) >> shift) }

// index sizes r's directory for its n keys, which lie in [lo, hi], and
// counts them into it: dir[b] becomes the number of keys in buckets
// below b. The keys need not be sorted yet.
func (r *run) index(lo, hi int64) {
	n, span := uint64(len(r.keys)), uint64(hi)-uint64(lo)
	r.shift = 0
	for span>>r.shift >= n {
		r.shift++
	}
	nb := int(span>>r.shift) + 1
	r.dir = make([]int32, nb+1)
	for _, k := range r.keys {
		r.dir[bucket(k, lo, r.shift)+1]++
	}
	for b := 1; b <= nb; b++ {
		r.dir[b] += r.dir[b-1]
	}
}

// newRun seals m as a run in time linear in its entries: a counting
// sort on the directory bucket, which also yields the directory, then
// a sort of each bucket's few keys. markers keeps m's empty lists as
// deletion markers; base, which masks nothing, leaves them out.
func newRun(m map[int64][]int32, markers bool) run {
	n, total, last := 0, 0, []int32(nil)
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for k, l := range m {
		if len(l) > 0 || markers {
			n, total, last = n+1, total+len(l), l
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	switch n {
	case 0:
		return run{}
	case 1:
		// One key — a publish that rewrote one long list, say — needs no
		// sort, and its list, the writer's own until now, becomes the
		// postings as it is.
		return run{keys: []int64{lo}, offs: []int32{0, int32(len(last))}, posts: last[:len(last):len(last)], dir: []int32{0, 1}}
	}
	// Sort the entries themselves, lists alongside keys, so the lists
	// are copied out without a second lookup per key.
	ents := make([]entry, 0, n)
	r := run{keys: make([]int64, 0, n), offs: make([]int32, n+1), posts: make([]int32, 0, total)}
	for k, l := range m {
		if len(l) > 0 || markers {
			ents = append(ents, entry{k, l})
			r.keys = append(r.keys, k)
		}
	}
	r.index(lo, hi)
	// Permute the entries into bucket order in place (American flag
	// sort), with offs, not yet filled, holding each bucket's cursor.
	nb := len(r.dir) - 1
	next := r.offs[:nb]
	copy(next, r.dir[:nb])
	for b := 0; b < nb; b++ {
		for next[b] < r.dir[b+1] {
			i := next[b]
			j := &next[bucket(ents[i].k, lo, r.shift)]
			ents[i], ents[*j] = ents[*j], ents[i]
			*j++
		}
	}
	for b := 0; b < nb; b++ {
		if es := ents[r.dir[b]:r.dir[b+1]]; len(es) > 1 {
			slices.SortFunc(es, func(x, y entry) int { return cmp.Compare(x.k, y.k) })
		}
	}
	for i, e := range ents {
		r.keys[i] = e.k
		r.offs[i] = int32(len(r.posts))
		r.posts = append(r.posts, e.l...)
	}
	r.offs[n] = int32(len(r.posts))
	return r
}

// entry is one key of a dirty map and its list, while newRun sorts it.
type entry struct {
	k int64
	l []int32
}

// mergeRuns merges rs, newest first, into a run holding each key once,
// with the list of the newest run that has it. dropMarkers leaves
// deletion markers out (the fold into base); a tier merge keeps them,
// since an older generation may still hold the key. It walks the runs
// twice, once to size the result and once to fill a fresh run — unless
// the result is the newest run as it stands (every older key rewritten
// since, as when each publish rewrites one long list), which is then
// shared rather than copied: runs are immutable. It also returns the
// number of postings it copied.
func mergeRuns(rs []run, dropMarkers bool) (run, int) {
	at := make([]int, len(rs))
	n, total, older := 0, 0, 0
	mergeWalk(rs, at, dropMarkers, func(_ int64, l []int32, w int) {
		n, total = n+1, total+len(l)
		if w > 0 {
			older++
		}
	})
	switch {
	case n == 0:
		return run{}, 0
	case older == 0 && n == len(rs[0].keys):
		return rs[0], 0
	}
	r := run{keys: make([]int64, 0, n), offs: make([]int32, 0, n+1), posts: make([]int32, 0, total)}
	clear(at)
	mergeWalk(rs, at, dropMarkers, func(k int64, l []int32, _ int) {
		r.keys = append(r.keys, k)
		r.offs = append(r.offs, int32(len(r.posts)))
		r.posts = append(r.posts, l...)
	})
	r.offs = append(r.offs, int32(len(r.posts)))
	r.index(r.keys[0], r.keys[n-1])
	return r, total
}

// mergeWalk emits the keys of rs in ascending order, each once with
// the list of the first (newest) run holding it and that run's index;
// at holds each run's cursor and must start zeroed.
func mergeWalk(rs []run, at []int, dropMarkers bool, emit func(int64, []int32, int)) {
	for {
		w, k := -1, int64(0)
		for i := range rs {
			if at[i] < len(rs[i].keys) && (w < 0 || rs[i].keys[at[i]] < k) {
				w, k = i, rs[i].keys[at[i]]
			}
		}
		if w < 0 {
			return
		}
		l := rs[w].list(at[w])
		for i := w; i < len(rs); i++ {
			if at[i] < len(rs[i].keys) && rs[i].keys[at[i]] == k {
				at[i]++
			}
		}
		if len(l) > 0 || !dropMarkers {
			emit(k, l, w)
		}
	}
}

// find returns the current posting list for k (empty when absent or
// deleted). Safe on sealed copies (dirty == nil) without any lock; on
// the live map the caller must exclude writers. A list from a sealed
// generation is capped at its length, so appending to it copies.
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
		if l, ok := p.layers[i].find(k); ok {
			return l
		}
	}
	l, _ := p.base.find(k)
	return l
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
// fresh dirty map; the returned value's runs and layers slice are never
// mutated again.
func (p *postMap) seal() postMap {
	if len(p.dirty) > 0 {
		if len(p.base.keys) == 0 && len(p.layers) == 0 {
			// First publish after a bulk build: dirty is the whole
			// state, so it becomes base.
			p.base = newRun(p.dirty, false)
		} else {
			p.push(newRun(p.dirty, true))
		}
		p.dirty = nil
	}
	return postMap{layers: p.layers, base: p.base}
}

// push makes ly the newest sealed layer, merging size tiers and folding
// into base as the type comment describes. It builds a fresh layers
// slice, and merges and folds into fresh runs, so the slices and runs
// earlier sealed copies hold are left untouched.
func (p *postMap) push(ly run) {
	ls := make([]run, 0, len(p.layers)+2) // +1 for base, which a fold appends
	ls = append(ls, ly)
	ls = append(ls, p.layers...)
	for len(ls) > 1 && 2*len(ls[0].keys) >= len(ls[1].keys) {
		var n int
		ls[1], n = mergeRuns(ls[:2], false)
		p.copied += n
		ls = ls[1:]
	}
	entries := 0
	for i := range ls {
		entries += len(ls[i].keys)
	}
	if foldFraction*entries < len(p.base.keys) {
		p.layers = ls
		return
	}
	var n int
	p.base, n = mergeRuns(append(ls, p.base), true)
	p.layers = nil
	p.copied += n
}
