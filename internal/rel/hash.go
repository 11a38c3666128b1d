package rel

import "math"

// Hash kernels for the executor. Joins and DISTINCT dedup used
// to build composite keys by formatting every value into a string
// (Value.key() concatenated with separators); over the dictionary-
// encoded RDF schemas every hot key is an int64 id, so that meant an
// allocation and an integer-to-decimal conversion per row per key.
// The kernels here bucket rows by FNV-mixed uint64 hashes of the
// canonical value forms and verify candidates exactly, which is both
// allocation-free on the int fast path and immune to separator
// collisions by construction.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Canonical key classes, mirroring Value.key(): NULLs key together,
// and an integral float takes the int class so 1 joins 1.0.
const (
	keyClassNull uint8 = iota
	keyClassInt
	keyClassFloat
	keyClassString
	keyClassBool
)

// keyCanon returns the canonical class and payload of v under key
// semantics. Exactly one of i, f, s is meaningful, selected by cls.
func keyCanon(v Value) (cls uint8, i int64, f float64, s string) {
	switch v.K {
	case KindInt:
		return keyClassInt, v.I, 0, ""
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return keyClassInt, int64(v.F), 0, ""
		}
		f = v.F
		if math.IsNaN(f) {
			f = math.NaN() // one canonical NaN, whatever the payload
		}
		return keyClassFloat, 0, f, ""
	case KindString:
		return keyClassString, 0, 0, v.S
	case KindBool:
		return keyClassBool, v.I, 0, ""
	}
	return keyClassNull, 0, 0, ""
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing for the
// dense small integers that dictionary ids are.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashValue folds v into the running hash state h.
func hashValue(h uint64, v Value) uint64 {
	cls, i, f, s := keyCanon(v)
	h = (h ^ uint64(cls)) * fnvPrime64
	switch cls {
	case keyClassInt, keyClassBool:
		h = (h ^ mix64(uint64(i))) * fnvPrime64
	case keyClassFloat:
		h = (h ^ mix64(math.Float64bits(f))) * fnvPrime64
	case keyClassString:
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * fnvPrime64
		}
		h = (h ^ uint64(len(s))) * fnvPrime64
	}
	return h
}

// keyEqual reports whether two values are identical under key
// semantics — the exact relation the old composite key strings
// encoded: NULL equals NULL, an integral float equals its int, other
// classes never cross.
func keyEqual(a, b Value) bool {
	ca, ia, fa, sa := keyCanon(a)
	cb, ib, fb, sb := keyCanon(b)
	if ca != cb {
		return false
	}
	switch ca {
	case keyClassInt, keyClassBool:
		return ia == ib
	case keyClassFloat:
		return fa == fb || (math.IsNaN(fa) && math.IsNaN(fb))
	case keyClassString:
		return sa == sb
	}
	return true // both NULL
}

// rowKeyHash hashes a whole row (DISTINCT dedup).
func rowKeyHash(r Row) uint64 {
	h := fnvOffset64
	for _, v := range r {
		h = hashValue(h, v)
	}
	return h
}

// rowKeyEqual verifies a dedup bucket candidate.
func rowKeyEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !keyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// linkKeyHash hashes the link columns of a row for a hash join; ok is
// false when any link value is NULL (NULLs never join).
func linkKeyHash(row Row, links []eqLink, left bool) (uint64, bool) {
	h := fnvOffset64
	for _, lk := range links {
		i := lk.ri
		if left {
			i = lk.li
		}
		v := row[i]
		if v.IsNull() {
			return 0, false
		}
		h = hashValue(h, v)
	}
	return h, true
}

// nullKey reports whether any link column of row is NULL: such a row
// joins nothing. left picks the side of the links row is on.
func nullKey(row Row, links []eqLink, left bool) bool {
	for _, lk := range links {
		i := lk.ri
		if left {
			i = lk.li
		}
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

// linkKeyEqual verifies a join bucket candidate on every link column.
func linkKeyEqual(l, r Row, links []eqLink) bool {
	for _, lk := range links {
		if !keyEqual(l[lk.li], r[lk.ri]) {
			return false
		}
	}
	return true
}

// intLinkKey extracts an exact int64 join key from v. Status is 1 when
// v keys as an int (int or integral float), 0 when v is NULL (skip the
// row: NULLs never join), and -1 when v belongs to another class (the
// int kernel does not apply).
func intLinkKey(v Value) (int64, int) {
	switch v.K {
	case KindInt:
		return v.I, 1
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return int64(v.F), 1
		}
		return 0, -1
	case KindNull:
		return 0, 0
	}
	return 0, -1
}
