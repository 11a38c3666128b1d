package dict

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"db2rdf/internal/rdf"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewLiteral("x"),
		rdf.NewLangLiteral("x", "en"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger),
		rdf.NewBlank("b"),
	}
	ids := make([]int64, len(terms))
	for i, term := range terms {
		ids[i] = d.Encode(term)
	}
	// Distinct terms get distinct ids.
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	for i, term := range terms {
		back, err := d.Decode(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if back != term {
			t.Fatalf("decode(%d) = %v, want %v", ids[i], back, term)
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len() = %d", d.Len())
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("x"))
	b := d.Encode(rdf.NewIRI("x"))
	if a != b {
		t.Fatalf("same term encoded twice: %d, %d", a, b)
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	d := New()
	if _, ok := d.Lookup(rdf.NewIRI("absent")); ok {
		t.Fatal("lookup of absent term must fail")
	}
	if d.Len() != 0 {
		t.Fatal("Lookup must not intern")
	}
	id := d.Encode(rdf.NewIRI("present"))
	got, ok := d.Lookup(rdf.NewIRI("present"))
	if !ok || got != id {
		t.Fatalf("lookup = %d, %v", got, ok)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := New()
	d.Encode(rdf.NewIRI("x"))
	for _, id := range []int64{0, -1, 2, LidBase} {
		if _, err := d.Decode(id); err == nil {
			t.Errorf("Decode(%d) must error", id)
		}
	}
}

func TestLidsDisjointFromTermIDs(t *testing.T) {
	d := New()
	for i := 0; i < 1000; i++ {
		id := d.Encode(rdf.NewIRI(fmt.Sprintf("t%d", i)))
		if IsLid(id) {
			t.Fatalf("term id %d collides with lid space", id)
		}
	}
}

func TestConcurrentEncode(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 200
	ids := make([][]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]int64, perG)
			for i := 0; i < perG; i++ {
				// Heavy overlap across goroutines.
				ids[g][i] = d.Encode(rdf.NewIRI(fmt.Sprintf("term%d", i%50)))
			}
		}()
	}
	wg.Wait()
	// The same term must have received the same id everywhere.
	for i := 0; i < perG; i++ {
		want := ids[0][i]
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != want {
				t.Fatalf("goroutine %d got id %d for term %d, want %d", g, ids[g][i], i%50, want)
			}
		}
	}
	if d.Len() != 50 {
		t.Fatalf("Len() = %d, want 50", d.Len())
	}
}

func TestMustDecodePanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDecode must panic on unknown id")
		}
	}()
	New().MustDecode(99)
}

func TestEncodeDecodeProperty(t *testing.T) {
	d := New()
	f := func(s string) bool {
		term := rdf.NewLiteral(s)
		id := d.Encode(term)
		back, err := d.Decode(id)
		return err == nil && back == term && d.Encode(term) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestViewAppendKey reads every id of a dictionary spanning sealed
// blocks and the tail back as its key, without allocating, from a view
// that later interning does not change.
func TestViewAppendKey(t *testing.T) {
	d := New()
	if d.View().Covers(1) {
		t.Fatal("the view of an empty dictionary covers id 1")
	}
	var terms []rdf.Term
	for i := 0; i < 3*fcBlockSize+5; i++ {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://example.org/shared/prefix/%d", i)),
			rdf.NewLangLiteral(fmt.Sprintf("v%d", i), "en"))
	}
	for _, term := range terms {
		d.Encode(term)
	}
	v := d.View()
	d.Encode(rdf.NewIRI("http://example.org/after-the-view"))
	for _, id := range []int64{0, -1, int64(len(terms)) + 1, LidBase} {
		if v.Covers(id) {
			t.Errorf("view covers id %d", id)
		}
	}
	buf := make([]byte, 0, 128)
	for i, term := range terms {
		id := int64(i + 1)
		if !v.Covers(id) {
			t.Fatalf("view does not cover id %d", id)
		}
		if got := string(v.AppendKey(buf[:0], id)); got != term.Key() {
			t.Fatalf("AppendKey(%d) = %q, want %q", id, got, term.Key())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = v.AppendKey(buf[:0], 2*fcBlockSize+3) }); allocs != 0 {
		t.Errorf("AppendKey allocates %.0f times", allocs)
	}
}
