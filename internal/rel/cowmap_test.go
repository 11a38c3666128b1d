package rel

import (
	"fmt"
	"math/rand"
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
// in order. Under -race, a write to any map or layers slice a sealed
// copy holds is reported.
func TestPostMapModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { postMapHistory(t, seed) })
	}
}

func postMapHistory(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const keys = 300
	var p postMap
	model := map[int64][]int32{}
	next := int32(0)
	add := func(k int64) {
		p.add(k, next)
		model[k] = append(model[k], next)
		next++
	}
	// A bulk build seals once into base: no layers.
	for i := 0; i < 2*keys/3; i++ {
		add(int64(r.Intn(keys)))
	}
	kept := []sealedCopy{{p.seal(), cloneModel(model)}}
	if len(p.layers) != 0 || p.copied != 0 {
		t.Fatalf("bulk build: %d layers, %d entries copied; want none", len(p.layers), p.copied)
	}

	var layered, folds, merges, masked int
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
				if msg := diffModel(&c.p, c.model, keys); msg != "" {
					select {
					case errs <- fmt.Sprintf("copy %d: %s", i, msg):
					default:
					}
					return
				}
			}
		}()
		for op := 0; op < 1+r.Intn(12); op++ {
			k := int64(r.Intn(keys))
			if r.Intn(5) == 0 {
				k = int64(keys + r.Intn(keys)) // a key only writes reach
			}
			switch l := model[k]; {
			case len(l) > 0 && r.Intn(2) == 0:
				id := l[r.Intn(len(l))]
				p.remove(k, id)
				model[k] = slices.Delete(slices.Clone(l), slices.Index(l, id), slices.Index(l, id)+1)
			case r.Intn(8) == 0:
				p.remove(k, next+1000) // absent id: no change
			default:
				add(k)
			}
			if got := p.find(k); !slices.Equal(got, model[k]) {
				t.Fatalf("gen %d: live find(%d) = %v, want %v", gen, k, got, model[k])
			}
		}
		before, depth, pushed := p.copied, len(p.layers), len(p.dirty) > 0
		c := sealedCopy{p.seal(), cloneModel(model)}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatalf("gen %d: %s", gen, msg)
		}
		switch {
		case pushed && len(p.layers) == 0:
			folds++
		case pushed && len(p.layers) <= depth:
			merges++
		}
		if p.copied < before {
			t.Fatalf("gen %d: copied went backwards", gen)
		}
		if len(p.layers) > 0 {
			layered++
		}
		for k, l := range p.base {
			if len(l) > 0 && len(model[k]) == 0 {
				masked++ // a deletion marker in a layer hides this key
			}
		}
		for i, ly := range p.layers {
			if i > 0 && len(ly.m) <= 2*len(p.layers[i-1].m) {
				t.Fatalf("gen %d: layer %d holds %d entries, layer %d above it %d: tiers out of order",
					gen, i, len(ly.m), i-1, len(p.layers[i-1].m))
			}
			for k := range ly.m {
				if k < ly.lo || k > ly.hi {
					t.Fatalf("gen %d: layer %d key %d outside its bounds [%d, %d]", gen, i, k, ly.lo, ly.hi)
				}
			}
		}
		if msg := diffModel(&c.p, c.model, keys); msg != "" {
			t.Fatalf("gen %d: fresh seal: %s", gen, msg)
		}
		if len(kept) == 16 {
			kept = slices.Delete(kept, 1+r.Intn(len(kept)-1), len(kept))
		}
		kept = append(kept, c)
	}
	for i, c := range kept {
		if msg := diffModel(&c.p, c.model, keys); msg != "" {
			t.Fatalf("final check, copy %d: %s", i, msg)
		}
	}
	if layered == 0 || folds == 0 || merges == 0 || masked == 0 {
		t.Fatalf("history too tame: %d seals left layers, %d folds, %d tier merges, %d masked base keys",
			layered, folds, merges, masked)
	}
}

// diffModel compares every key a history can touch on p against the
// model and describes the first difference ("" when none). Deleted and
// absent keys must read as empty.
func diffModel(p *postMap, model map[int64][]int32, keys int) string {
	for k := int64(0); k < int64(2*keys); k++ {
		if got := p.find(k); !slices.Equal(got, model[k]) {
			return fmt.Sprintf("find(%d) = %v, want %v", k, got, model[k])
		}
	}
	return ""
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
// counted in map entries rather than time so it holds on any machine.
// It runs 500 small publishes — a few appended rows on new and existing
// keys and a delete each — over an indexed table of 16k and of 64k
// rows, and requires the entries sealing copies per publish (tier
// merges plus folds) to stay within 2x across the 4x scale. A seal that
// re-copied the whole index every few publishes would scale with it.
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
		t.Logf("%d rows: %.1f index entries copied per publish", rows, perPublish[rows])
	}
	small, large := perPublish[16<<10], perPublish[64<<10]
	if large > 2*small {
		t.Fatalf("entries copied per publish: %.1f at 64k rows vs %.1f at 16k; want within 2x", large, small)
	}
}
