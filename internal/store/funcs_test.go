package store

import (
	"strconv"
	"testing"

	"db2rdf/internal/rel"
)

// TestRegexCacheBounded: regexmatch over more distinct patterns than the
// cache holds keeps the cache at or below regexCacheCap, and every
// answer stays right, for patterns met before the cache was cleared
// too.
func TestRegexCacheBounded(t *testing.T) {
	c := &regexCache{}
	check := func(i int) {
		t.Helper()
		pat := rel.Str("^x" + strconv.Itoa(i) + "$")
		for _, tc := range []struct {
			s    string
			want bool
		}{{"x" + strconv.Itoa(i), true}, {"x" + strconv.Itoa(i) + "0", false}} {
			got, err := c.match([]rel.Value{rel.Str(tc.s), pat})
			if err != nil || got.Truth() != tc.want {
				t.Fatalf("regexmatch(%q, %q) = %v, %v; want %v", tc.s, pat.S, got, err, tc.want)
			}
		}
		if n := len(c.m); n > regexCacheCap {
			t.Fatalf("after %d patterns the cache holds %d, cap %d", i+1, n, regexCacheCap)
		}
	}
	for i := 0; i < 3*regexCacheCap; i++ {
		check(i)
	}
	check(0)
}
