package rel

// Hash kernels for the executor. Every cell a join or DISTINCT meets is
// a Cell, an id or NULL: Bind admits only id-valued select items and
// lateral cells (idValued). So join links compare as int64s, and NULL
// joins nothing; DISTINCT keys a row by its ids, NULL apart from every
// id.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

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

// idEqual reports whether two cells join: both ids, and equal.
func idEqual(a, b Cell) bool { return !a.IsNull() && a.I == b.I }

// rowKeyHash hashes a whole row (DISTINCT dedup). NULL's id is no
// other cell's, so hashing ids alone keeps NULL apart.
func rowKeyHash(r Row) uint64 {
	h := fnvOffset64
	for _, v := range r {
		h = (h ^ mix64(uint64(v.I))) * fnvPrime64
	}
	return h
}

// linkKey returns the hash-join key of row's link columns, left picking
// the side of the links row is on: the id itself for one link, a hash
// of the ids for several. ok is false when a link value is NULL (NULLs
// never join).
func linkKey(row Row, links []eqLink, left bool) (int64, bool) {
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
		if len(links) == 1 {
			return v.I, true
		}
		h = (h ^ mix64(uint64(v.I))) * fnvPrime64
	}
	return int64(h), true
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

// linkKeyEqual verifies a join candidate on every link column.
func linkKeyEqual(l, r Row, links []eqLink) bool {
	for _, lk := range links {
		if !idEqual(l[lk.li], r[lk.ri]) {
			return false
		}
	}
	return true
}
