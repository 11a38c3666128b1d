package rel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sealedCopy is one postMap a "snapshot" kept, with the model state it
// must go on reading.
type sealedCopy struct {
	p     postMap
	model map[int64][]int32
}

// TestPostMapModel drives postMap through seeded random add, remove and
// seal histories against a plain map[int64][]int32. Every sealed copy
// is kept (up to a bound) and re-read, from a goroutine racing the
// writer's next generation, against the model state of its seal: after
// later writes, tier merges and base folds, each must still answer
// exactly — deletion markers masking base included — with posting lists
// in order. Under -race, a write to any run or layers slice a sealed
// copy holds is reported.
//
// Each history runs over three key spaces: dense ids, as the dictionary
// hands them out; ids clustered below one far outlier, so a run that
// holds it crowds the rest into one directory bucket; and a few ids
// spread far apart near 2^40. Every seal leaves each run well formed,
// markers reach tier merges and leave at folds, and probes below,
// above and between a run's keys find nothing.
func TestPostMapModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, ks := range keySpaces {
				t.Run(ks.name, func(t *testing.T) { postMapHistory(t, seed, ks) })
			}
		})
	}
	t.Run("markers", postMapMarkers)
}

// postMapMarkers walks deletion markers through a tier merge, which
// keeps them while base still holds their keys, and a fold, which
// drops them with the keys they mask — down to an empty base, after
// which the next seal builds base afresh — including a fold whose
// newest layer rewrote every base key, one of them to a marker.
func postMapMarkers(t *testing.T) {
	var q postMap
	q.add(1, 1)
	q.add(2, 2)
	q.seal()
	q.remove(1, 1)
	q.add(2, 3)
	q.seal()
	if msg := checkRun(&q.base, false); msg != "" || len(q.layers) != 0 || !slices.Equal(q.base.keys, []int64{2}) {
		t.Fatalf("fold over a rewritten base: base keys %v (%s), %d layers; want [2], no layers", q.base.keys, msg, len(q.layers))
	}

	var p postMap
	for k := int64(0); k < 64; k++ {
		p.add(k, int32(k))
	}
	p.seal()
	p.remove(5, 5)
	p.seal()
	p.remove(6, 6)
	kept := p.seal()
	if len(p.layers) != 1 || markers(p.layers) != 2 || len(p.base.keys) != 64 {
		t.Fatalf("after merging two marker layers: %d layers holding %d markers over %d base keys; want 1, 2, 64",
			len(p.layers), markers(p.layers), len(p.base.keys))
	}
	for k := int64(0); k < 64; k++ {
		p.remove(k, int32(k))
	}
	p.seal()
	if len(p.layers) != 0 || len(p.base.keys) != 0 {
		t.Fatalf("after deleting every key: %d layers, %d base keys; want none", len(p.layers), len(p.base.keys))
	}
	p.add(70, 1)
	p.seal()
	for k := int64(0); k < 72; k++ {
		want := []int32(nil)
		if k == 70 {
			want = []int32{1}
		}
		if got := p.find(k); !slices.Equal(got, want) {
			t.Fatalf("rebuilt base: find(%d) = %v, want %v", k, got, want)
		}
		want = nil
		if k < 64 && k != 5 && k != 6 {
			want = []int32{int32(k)}
		}
		if got := kept.find(k); !slices.Equal(got, want) {
			t.Fatalf("kept copy: find(%d) = %v, want %v", k, got, want)
		}
	}
}

// keySpace maps a history's key numbers 0..2*keys-1 to stored ids.
type keySpace struct {
	name string
	keys int
	id   func(i int) int64
}

var keySpaces = []keySpace{
	{"dense", 300, func(i int) int64 { return int64(i) }},
	{"clustered", 300, func(i int) int64 {
		if i == 7 {
			return 1 << 50
		}
		return int64(i)
	}},
	{"sparse", 12, func(i int) int64 { return 1<<40 + int64(i)*int64(i)*7919 }},
}

func postMapHistory(t *testing.T, seed int64, ks keySpace) {
	r := rand.New(rand.NewSource(seed))
	keys := ks.keys
	var p postMap
	model := map[int64][]int32{}
	next := int32(0)
	add := func(i int) {
		k := ks.id(i)
		p.add(k, next)
		model[k] = append(model[k], next)
		next++
	}
	// A bulk build seals once into base: no layers.
	for i := 0; i < 2*keys/3; i++ {
		add(r.Intn(keys))
	}
	kept := []sealedCopy{{p.seal(), cloneModel(model)}}
	if len(p.layers) != 0 || p.copied != 0 {
		t.Fatalf("bulk build: %d layers, %d entries copied; want none", len(p.layers), p.copied)
	}

	var layered, folds, merges, masked, mergedMarkers, foldedMarkers, crowded int
	for gen := 0; gen < 300; gen++ {
		// A reader re-checks every kept copy while the writer writes
		// and seals the next generation.
		var wg sync.WaitGroup
		errs := make(chan string, 1)
		snap := slices.Clone(kept)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range snap {
				if msg := diffModel(&c.p, c.model, keys, ks); msg != "" {
					select {
					case errs <- fmt.Sprintf("copy %d: %s", i, msg):
					default:
					}
					return
				}
			}
		}()
		for op := 0; op < 1+r.Intn(12); op++ {
			i := r.Intn(keys)
			if r.Intn(5) == 0 {
				i = keys + r.Intn(keys) // a key only writes reach
			}
			k := ks.id(i)
			switch l := model[k]; {
			case len(l) > 0 && r.Intn(2) == 0:
				id := l[r.Intn(len(l))]
				p.remove(k, id)
				model[k] = slices.Delete(slices.Clone(l), slices.Index(l, id), slices.Index(l, id)+1)
			case r.Intn(8) == 0:
				p.remove(k, next+1000) // absent id: no change
			default:
				add(i)
			}
			if got := p.find(k); !slices.Equal(got, model[k]) {
				t.Fatalf("gen %d: live find(%d) = %v, want %v", gen, k, got, model[k])
			}
		}
		before, depth, pushed := p.copied, len(p.layers), len(p.dirty) > 0
		pending := markers(p.layers)
		for _, l := range p.dirty {
			if len(l) == 0 {
				pending++
			}
		}
		c := sealedCopy{p.seal(), cloneModel(model)}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatalf("gen %d: %s", gen, msg)
		}
		switch {
		case pushed && len(p.layers) == 0:
			folds++
			if pending > 0 {
				foldedMarkers++
			}
		case pushed && len(p.layers) <= depth:
			merges++
			if markers(p.layers) > 0 {
				mergedMarkers++
			}
		}
		if p.copied < before {
			t.Fatalf("gen %d: copied went backwards", gen)
		}
		if len(p.layers) > 0 {
			layered++
		}
		for _, k := range p.base.keys {
			if len(model[k]) == 0 {
				masked++ // a deletion marker in a layer hides this key
			}
		}
		if msg := checkRun(&p.base, false); msg != "" {
			t.Fatalf("gen %d: base: %s", gen, msg)
		}
		crowded = max(crowded, crowding(&p.base))
		for i, ly := range p.layers {
			if i > 0 && len(ly.keys) <= 2*len(p.layers[i-1].keys) {
				t.Fatalf("gen %d: layer %d holds %d entries, layer %d above it %d: tiers out of order",
					gen, i, len(ly.keys), i-1, len(p.layers[i-1].keys))
			}
			if msg := checkRun(&p.layers[i], true); msg != "" {
				t.Fatalf("gen %d: layer %d: %s", gen, i, msg)
			}
			crowded = max(crowded, crowding(&p.layers[i]))
		}
		if msg := diffModel(&c.p, c.model, keys, ks); msg != "" {
			t.Fatalf("gen %d: fresh seal: %s", gen, msg)
		}
		if len(kept) == 16 {
			kept = slices.Delete(kept, 1+r.Intn(len(kept)-1), len(kept))
		}
		kept = append(kept, c)
	}
	for i, c := range kept {
		if msg := diffModel(&c.p, c.model, keys, ks); msg != "" {
			t.Fatalf("final check, copy %d: %s", i, msg)
		}
	}
	if layered == 0 || folds == 0 || merges == 0 || masked == 0 || mergedMarkers == 0 || foldedMarkers == 0 {
		t.Fatalf("history too tame: %d seals left layers, %d folds (%d with markers), %d tier merges (%d keeping markers), %d masked base keys",
			layered, folds, foldedMarkers, merges, mergedMarkers, masked)
	}
	if ks.name == "clustered" && crowded <= 16 {
		t.Fatalf("clustered keys: the most crowded directory bucket held %d keys; want more than 16", crowded)
	}
}

// diffModel compares every key a history can touch, the ids next to
// them and the ends of int64 on p against the model, and describes the
// first difference ("" when none). Deleted and absent keys must read as
// empty, and a list found in a sealed copy must be capped at its
// length, so that an append copies.
func diffModel(p *postMap, model map[int64][]int32, keys int, ks keySpace) string {
	probe := func(k int64) string {
		got := p.find(k)
		if !slices.Equal(got, model[k]) {
			return fmt.Sprintf("find(%d) = %v, want %v", k, got, model[k])
		}
		if p.dirty == nil && len(got) != cap(got) {
			return fmt.Sprintf("find(%d) on a sealed copy: len %d, cap %d", k, len(got), cap(got))
		}
		return ""
	}
	for _, k := range []int64{math.MinInt64 + 1, -1, math.MaxInt64} {
		if msg := probe(k); msg != "" {
			return msg
		}
	}
	for i := 0; i < 2*keys; i++ {
		k := ks.id(i)
		for _, q := range []int64{k - 1, k, k + 1} {
			if msg := probe(q); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// checkRun describes the first way r is malformed ("" when none): keys
// strictly ascending, offsets spanning posts in order, a marker only
// where layer allows one, and every key in its directory bucket, with
// no more buckets than keys.
func checkRun(r *run, layer bool) string {
	n := len(r.keys)
	if n == 0 {
		if len(r.offs)+len(r.posts)+len(r.dir) != 0 {
			return "an empty run holds offsets, postings or a directory"
		}
		return ""
	}
	if len(r.offs) != n+1 || r.offs[0] != 0 || int(r.offs[n]) != len(r.posts) {
		return fmt.Sprintf("%d keys, %d offsets from %d to %d over %d postings", n, len(r.offs), r.offs[0], r.offs[len(r.offs)-1], len(r.posts))
	}
	nb := len(r.dir) - 1
	if nb < 1 || nb > n || r.dir[0] != 0 || int(r.dir[nb]) != n {
		return fmt.Sprintf("directory of %d entries over %d keys", len(r.dir), n)
	}
	for i, k := range r.keys {
		if i > 0 && k <= r.keys[i-1] {
			return fmt.Sprintf("key %d at %d follows %d", k, i, r.keys[i-1])
		}
		if r.offs[i+1] < r.offs[i] || (r.offs[i+1] == r.offs[i] && !layer) {
			return fmt.Sprintf("key %d: rows [%d, %d)", k, r.offs[i], r.offs[i+1])
		}
		if b := bucket(k, r.keys[0], r.shift); int(r.dir[b]) > i || int(r.dir[b+1]) <= i {
			return fmt.Sprintf("key %d at %d: bucket %d spans [%d, %d)", k, i, b, r.dir[b], r.dir[b+1])
		}
	}
	return ""
}

// crowding is the most keys one of r's directory buckets holds.
func crowding(r *run) int {
	most := 0
	for b := 0; b+1 < len(r.dir); b++ {
		most = max(most, int(r.dir[b+1]-r.dir[b]))
	}
	return most
}

// markers counts the deletion markers the runs hold.
func markers(rs []run) int {
	n := 0
	for i := range rs {
		for j := range rs[i].keys {
			if rs[i].offs[j] == rs[i].offs[j+1] {
				n++
			}
		}
	}
	return n
}

// TestSealedRunHoldsNoPointers: a sealed generation is arrays of
// integers and nothing else, so the GC marks a run's four arrays
// without scanning them, however many keys the index holds.
func TestSealedRunHoldsNoPointers(t *testing.T) {
	rt := reflect.TypeOf(run{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if hasPointers(ft) {
			t.Errorf("run.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// TestSealAllocsIndependentOfKeys: sealing a dirty generation, into an
// empty base or folded into a small one, allocates a run's arrays and
// a few headers, the same number at 1k keys as at 64k, and no list per
// key.
func TestSealAllocsIndependentOfKeys(t *testing.T) {
	dirty := func(n int) map[int64][]int32 {
		m := make(map[int64][]int32, n)
		for i := 0; i < n; i++ {
			m[int64(i*3)] = []int32{int32(i), int32(i + 1)}
		}
		return m
	}
	small := newRun(dirty(64), false)
	allocs := map[string][]float64{}
	for _, n := range []int{1 << 10, 64 << 10} {
		m := dirty(n)
		allocs["into empty base"] = append(allocs["into empty base"], testing.AllocsPerRun(5, func() {
			p := postMap{dirty: m}
			p.seal()
		}))
		allocs["folded into base"] = append(allocs["folded into base"], testing.AllocsPerRun(5, func() {
			p := postMap{dirty: m, base: small}
			p.seal()
		}))
	}
	for path, a := range allocs {
		if a[0] != a[1] || a[1] > 12 {
			t.Errorf("seal %s: %v allocations at 1k keys, %v at 64k; want the same few", path, a[0], a[1])
		}
	}
}

func cloneModel(m map[int64][]int32) map[int64][]int32 {
	c := make(map[int64][]int32, len(m))
	for k, v := range m {
		if len(v) > 0 {
			c[k] = slices.Clone(v)
		}
	}
	return c
}

// TestPublishCopiesIndependentOfTableSize is the publish-cost gate,
// counted in postings rather than time so it holds on any machine.
// It runs 500 small publishes — a few appended rows on new and existing
// keys and a delete each — over an indexed table of 16k and of 64k
// rows, and requires the postings sealing copies per publish (tier
// merges plus folds) to stay within 2x across the 4x scale. A seal that
// re-copied the whole index every few publishes would scale with it.
// Beside them a key with a 16k-row list gains one row per publish, as
// an RS list does while its entity's subjects arrive one by one; its
// merges must share the newest run rather than re-copy the list.
func TestPublishCopiesIndependentOfTableSize(t *testing.T) {
	perPublish := map[int]float64{}
	for _, rows := range []int{16 << 10, 64 << 10} {
		r := rand.New(rand.NewSource(39))
		tb := NewTable("T", Schema{{Name: "k"}, {Name: "v"}})
		if err := tb.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tb.Insert(Row{ID(int64(i)), ID(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		tb.Publish()
		idx := tb.indexes["k"]
		start := idx.posts.copied
		const publishes = 500
		fresh := int64(rows)
		for i := 0; i < publishes; i++ {
			for j := 0; j < 2; j++ {
				if err := tb.Insert(Row{ID(fresh), ID(0)}); err != nil {
					t.Fatal(err)
				}
				fresh++
				if err := tb.Insert(Row{ID(int64(r.Intn(rows))), ID(1)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.DeleteRow(r.Intn(tb.Len())); err != nil {
				t.Fatal(err)
			}
			tb.Publish()
		}
		perPublish[rows] = float64(idx.posts.copied-start) / publishes
		t.Logf("%d rows: %.1f postings copied per publish", rows, perPublish[rows])
	}
	small, large := perPublish[16<<10], perPublish[64<<10]
	if large > 2*small {
		t.Fatalf("postings copied per publish: %.1f at 64k rows vs %.1f at 16k; want within 2x", large, small)
	}

	const listLen = 16 << 10
	long := NewTable("L", Schema{{Name: "k"}})
	if err := long.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < listLen; i++ {
		if err := long.Insert(Row{ID(0)}); err != nil {
			t.Fatal(err)
		}
	}
	long.Publish()
	idx := long.indexes["k"]
	start := idx.posts.copied
	const publishes = 500
	for i := 0; i < publishes; i++ {
		if err := long.Insert(Row{ID(0)}); err != nil {
			t.Fatal(err)
		}
		long.Publish()
	}
	perLong := float64(idx.posts.copied-start) / publishes
	t.Logf("one %d-row list gaining a row per publish: %.1f postings copied per publish", listLen, perLong)
	if perLong > listLen/8 {
		t.Fatalf("postings copied per publish: %.1f for one growing %d-row list; a merge re-copies it", perLong, listLen)
	}
}
