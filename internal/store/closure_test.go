package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"db2rdf/internal/rel"
)

// TestClosureMemo: every caller on a published snapshot gets the one
// relation it keeps, concurrent first callers included; a later caller
// builds nothing; a failed or panicking build is not kept; a live
// snapshot keeps nothing; and beyond maxClosures relations a closure is
// built for its caller only.
func TestClosureMemo(t *testing.T) {
	s := newTestStore(t, Options{K: 8})
	if err := s.LoadTriples(fig1Triples()); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	var builds atomic.Int64
	table := func(name string) func() (*rel.Table, error) {
		return func() (*rel.Table, error) {
			builds.Add(1)
			return rel.NewTable(name, rel.Schema{{Name: "entry"}, {Name: "val"}}), nil
		}
	}

	var wg sync.WaitGroup
	got := make([]*rel.Table, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = sn.Closure("c", table("c"))
		}(i)
	}
	wg.Wait()
	for _, g := range got {
		if g == nil || g != got[0] {
			t.Fatal("concurrent callers got different relations")
		}
	}
	builds.Store(0)
	if again, _ := sn.Closure("c", table("c")); again != got[0] || builds.Load() != 0 {
		t.Fatalf("a later caller built %d times or got another relation", builds.Load())
	}

	boom := errors.New("boom")
	if _, err := sn.Closure("f", func() (*rel.Table, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed build: %v", err)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = sn.Closure("f", func() (*rel.Table, error) { panic("build") })
	}()
	if _, err := sn.Closure("f", table("f")); err != nil || builds.Load() != 1 {
		t.Fatalf("after a failed and a panicking build: err %v, %d builds, want a fresh one", err, builds.Load())
	}

	live := s.LiveSnapshot()
	builds.Store(0)
	for i := 0; i < 2; i++ {
		if _, err := live.Closure("c", table("c")); err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("live snapshot: %d builds for 2 calls, want 2", n)
	}

	fresh := s.Snapshot()
	for i := 0; i < maxClosures; i++ {
		name := fmt.Sprintf("m%d", i)
		if _, err := fresh.Closure(name, table(name)); err != nil {
			t.Fatal(err)
		}
	}
	builds.Store(0)
	for i := 0; i < 2; i++ {
		if _, err := fresh.Closure("over", table("over")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fresh.Closure("m0", table("m0")); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("full memo: %d builds, want 2 (the closure over the bound, twice)", n)
	}
}
