package rel

import (
	"fmt"
	"slices"
	"strings"
)

// The bound form of a Query: everything the executor needs to know
// about a statement that does not depend on the database it runs
// against, worked out once by Bind.
//
// A SELECT core joins one or two units. A unit is a FROM item with its
// LEFT OUTER JOIN chain and, when a lateral TABLE(VALUES …) follows it,
// that lateral fused in. Bind fixes the core's row layout: unit 0's
// cells, then unit 1's. Inside a unit the FROM item's cells come first
// — a base table's the columns the core references through its alias,
// in order of first reference (items, WHERE, ON); a CTE's its output
// columns in order — then the lateral's names, then each JOIN's right
// side in chain order. Every column reference then resolves to a slot,
// a position among its unit's cells (ColRef.unit, ColRef.pos), and a
// bare ORDER BY key to its output column. Every WHERE conjunct is
// classified once: pushed into the one unit it reads when that unit has
// no join chain, a link between the two units (`colref = colref`), or
// residual, checked on the joined row. A CTE reference resolves to the
// index of the CTE. Identifiers are lower-cased here and nowhere at run
// time.
//
// The referenced-column sets are what lets the executor read narrow:
// a base-table relation is shaped from its alias's set only, so a
// 66-column DPH row costs the 3–7 columns the SQL names. Every column
// reference inside a core is qualified, so the sets are exact. The
// columns only the cells of a lateral item name are left out: the
// unpivot kernel reads them straight from the chunks, so they never
// widen the rows of the table they correlate to, and the cells resolve
// to table columns when the table does, at run time.
//
// Nothing in a bound form, or in the Query it binds, is written after
// Bind returns. A cached plan is executed by many goroutines at once;
// they share both without synchronization.

type boundQuery struct {
	ctes []boundCTE
	body *boundSelect
}

type boundCTE struct {
	name string // lower-cased
	sel  *boundSelect
}

type boundSelect struct {
	sel   *Select
	cores []*boundCore
}

type boundCore struct {
	core  *SelectCore
	units []boundUnit // one or two
	// links are the WHERE equalities between the two units; links[s]
	// has unit s on the join's left side.
	links    [2][]eqLink
	residual []Expr   // WHERE conjuncts checked on the joined row
	names    []string // the output column names, lower-cased
	// cells[i] is the joined-row position item i copies, or exprItem
	// (evaluated) or deadItem: an expression no later select can
	// observe (deadcols.go), not evaluated and left NULL.
	cells []int
	// identity: the items copy the joined row as it is.
	identity bool
}

const (
	exprItem = -1
	deadItem = -2
)

// boundUnit is one comma-separated FROM item with what hangs off it.
type boundUnit struct {
	from  *boundFrom
	width int // its cells in the joined row
	// where holds the WHERE conjuncts over this unit alone, applied as
	// it is built; empty when it has a join chain, whose conjuncts are
	// residual.
	where []Expr
}

// eqLink is an equality between the columns at li in the left side's
// rows and ri in the right side's.
type eqLink struct{ li, ri int }

// boundFrom is one table reference, CTE reference or lateral item.
type boundFrom struct {
	alias string // lower-cased
	table string // lower-cased; "" for a lateral item
	cte   int    // the index of the CTE it reads; -1 for none
	lat   *boundLateral
	cols  []string // a base table's cells: the columns the core references
	unit  int
	off   int // its first cell among its unit's
	width int
	joins []boundJoin
	// lateral is the lateral item right after this one in FROM, whose
	// cells read this base table's rows; nil when there is none.
	lateral *boundFrom
}

// boundLateral is a TABLE(VALUES …) AS alias(names…) item: rows of
// cells over the columns of the FROM item right before it.
type boundLateral struct {
	names []string // lower-cased
	rows  [][]Expr // *ColRef on the host, or *Lit
}

// boundJoin is one LEFT OUTER JOIN: the ON equalities between the
// chain before it and right, and the other ON conjuncts, checked on the
// unit's row so far.
type boundJoin struct {
	right    *boundFrom
	on       Expr
	links    []eqLink
	residual []Expr
}

// Bind checks q and attaches its bound form, lower-casing every column
// reference and resolving it to its slot. It is the only way a Query
// becomes executable: ParseQuery calls it, and a Query built in code
// calls it once, before it is executed or shared. It rejects what lies
// outside the dialect (see the package comment) that an AST can still
// express: a core with no FROM item or more than two (laterals apart),
// a column inside a core that is not alias.column or names no column
// of its FROM item (the first with its alias), an ON clause that
// reads past its join, a qualified ORDER BY key or one naming no output
// column, UNION ALL arms of different widths, an item without AS name
// or that is not id-valued (idValued), a FROM item without AS alias, a
// unary operator other than NOT, a JOIN chain on a JOIN's right side,
// a lateral item that does not correlate to the base table right
// before it, has something hanging off it or has a literal cell that
// is not an id, and one column reference node read at two slots.
func Bind(q *Query) error {
	if q.Body == nil {
		return fmt.Errorf("sql: query has no SELECT")
	}
	b := &binder{ctes: make(map[string]bool, len(q.CTEs))}
	for _, cte := range q.CTEs {
		b.ctes[b.lower(cte.Name)] = true
	}
	for _, cte := range q.CTEs {
		if err := b.check(cte.Select); err != nil {
			return err
		}
	}
	if err := b.check(q.Body); err != nil {
		return err
	}
	bq, err := b.query(q)
	if err != nil {
		return err
	}
	q.bound = bq
	return nil
}

// lateralError is a lateral item Bind rejects; ParseQuery adds the
// item's source offset.
type lateralError struct {
	lat *Lateral
	msg string
}

func (e *lateralError) Error() string { return "sql: " + e.msg }

func latErr(fi FromItem, format string, args ...any) error {
	return &lateralError{lat: fi.Lateral, msg: "TABLE(VALUES ...) " + fmt.Sprintf(format, args...)}
}

// binder lower-cases identifiers, each distinct one once per query,
// and knows the query's CTE names.
type binder struct {
	low  map[string]string
	ctes map[string]bool
}

func (b *binder) lower(s string) string {
	if l, ok := b.low[s]; ok {
		return l
	}
	l := strings.ToLower(s)
	if b.low == nil {
		b.low = map[string]string{}
	}
	b.low[s] = l
	return l
}

// lowerRef lower-cases c and marks it unplaced (place).
func (b *binder) lowerRef(c *ColRef) {
	c.alias, c.column = b.lower(c.Alias), b.lower(c.Column)
	c.unit, c.pos = 0, -1
}

// check validates s and lower-cases its column references.
func (b *binder) check(s *Select) error {
	for _, core := range s.Cores {
		for i, item := range core.Items {
			if item.Alias == "" {
				return fmt.Errorf("sql: select item %d has no AS name", i+1)
			}
			if err := b.checkExpr(item.Expr, false); err != nil {
				return err
			}
			if !idValued(item.Expr) {
				return fmt.Errorf("sql: select item %s AS %s is not id-valued; an item is a column, NULL, an integer but %d (NULL's id), or a CASE or COALESCE of those", exprString(item.Expr), item.Alias, nullID)
			}
		}
		if err := b.checkExpr(core.Where, false); err != nil {
			return err
		}
		for i, fi := range core.From {
			if err := b.checkFrom(fi, core.From[:i], false); err != nil {
				return err
			}
		}
		if err := checkUnits(core.From); err != nil {
			return err
		}
	}
	for _, o := range s.OrderBy {
		if err := b.checkExpr(o.Expr, true); err != nil {
			return err
		}
	}
	return nil
}

// checkUnits verifies that from has one or two units.
func checkUnits(from []FromItem) error {
	units := make([]string, 0, 2)
	for _, fi := range from {
		if fi.Lateral == nil {
			units = append(units, fi.Alias)
		}
	}
	switch {
	case len(units) == 0:
		return fmt.Errorf("sql: SELECT core has no FROM item")
	case len(units) > 2:
		return fmt.Errorf("sql: FROM %s joins %d items; a core joins at most two (a lateral apart)", strings.Join(units, ", "), len(units))
	}
	return nil
}

// checkExpr lower-cases e's column references, which are bare (an
// ORDER BY key names output columns) or else all qualified, and
// rejects a unary operator other than NOT.
func (b *binder) checkExpr(e Expr, bare bool) error {
	var err error
	eachExpr(e, func(x Expr) {
		switch x := x.(type) {
		case *ColRef:
			switch {
			case err != nil:
			case bare && x.Alias != "":
				err = fmt.Errorf("sql: ORDER BY key %s.%s must name an output column bare", x.Alias, x.Column)
			case !bare && x.Alias == "":
				err = fmt.Errorf("sql: column %s must be qualified as alias.column", x.Column)
			}
			b.lowerRef(x)
		case *UnOp:
			if x.Op != "NOT" && err == nil {
				err = fmt.Errorf("sql: unary %s is not supported; NOT is the only unary operator", x.Op)
			}
		}
	})
	return err
}

// idValued reports whether e yields only ids and NULLs: a column, NULL,
// an integer literal other than NULL's id (which would read back as
// NULL), a CASE whose every THEN and ELSE is id-valued, or a COALESCE of
// id-valued arguments. A CASE's conditions may be any expression; they
// are consumed where they are evaluated.
func idValued(e Expr) bool {
	switch x := e.(type) {
	case *ColRef:
		return true
	case *Lit:
		return (x.V.K == KindInt && x.V.I != nullID) || x.V.IsNull()
	case *CaseExpr:
		for _, w := range x.Whens {
			if !idValued(w.Result) {
				return false
			}
		}
		return x.Else == nil || idValued(x.Else)
	case *FuncCall:
		return strings.EqualFold(x.Name, "coalesce") && !slices.ContainsFunc(x.Args, func(a Expr) bool { return !idValued(a) })
	}
	return false
}

// checkFrom checks fi, which follows the items before in its core (or
// is the right side of a JOIN when joined), and its join chain.
func (b *binder) checkFrom(fi FromItem, before []FromItem, joined bool) error {
	if fi.Alias == "" {
		return fmt.Errorf("sql: FROM item %s has no AS alias", fi.Table)
	}
	if fi.Lateral != nil {
		switch {
		case joined:
			// A lateral item depends on the rows to its left, which
			// ON-driven join kernels do not feed it.
			return latErr(fi, "cannot be the right side of a JOIN")
		case len(fi.Joins) > 0:
			return latErr(fi, "AS %s cannot be followed by a JOIN", fi.Alias)
		}
		return b.checkLateral(fi, before)
	}
	for _, j := range fi.Joins {
		if len(j.Right.Joins) > 0 {
			return fmt.Errorf("sql: the right side of a JOIN, %s, cannot have a JOIN chain", j.Right.Alias)
		}
		if err := b.checkExpr(j.On, false); err != nil {
			return err
		}
		if err := b.checkFrom(j.Right, nil, true); err != nil {
			return err
		}
	}
	return nil
}

// checkLateral verifies that lateral item fi has rows as wide as its
// column list, of literals and qualified column references to one
// alias: that of the FROM item right before it, a base table with no
// JOIN chain.
func (b *binder) checkLateral(fi FromItem, before []FromItem) error {
	lat := fi.Lateral
	dep := ""
	for i, row := range lat.Rows {
		if len(row) != len(lat.Cols) {
			return latErr(fi, "row %d has %d values, AS %s names %d columns", i+1, len(row), fi.Alias, len(lat.Cols))
		}
		for _, cell := range row {
			switch c := cell.(type) {
			case *Lit:
				if !idValued(c) {
					return latErr(fi, "AS %s has cell %s, which is not id-valued; a literal cell is NULL or an integer but %d (NULL's id)", fi.Alias, exprString(c), nullID)
				}
			case *ColRef:
				if c.Alias == "" {
					return latErr(fi, "column %s must be qualified", c.Column)
				}
				b.lowerRef(c)
				if dep == "" {
					dep = c.alias
				} else if c.alias != dep {
					return latErr(fi, "AS %s refers to both %s and %s; one FROM item is supported", fi.Alias, dep, c.alias)
				}
			default:
				return latErr(fi, "cells must be column references or literals")
			}
		}
	}
	if dep == "" {
		return latErr(fi, "AS %s refers to no FROM item", fi.Alias)
	}
	names := func(fi FromItem) bool {
		return b.lower(fi.Alias) == dep ||
			slices.ContainsFunc(fi.Joins, func(j JoinClause) bool { return b.lower(j.Right.Alias) == dep })
	}
	if !slices.ContainsFunc(before, names) {
		return latErr(fi, "AS %s refers to unknown alias %q", fi.Alias, dep)
	}
	host := before[len(before)-1]
	if b.lower(host.Alias) != dep || host.Lateral != nil || len(host.Joins) > 0 || b.ctes[b.lower(host.Table)] {
		return latErr(fi, "AS %s correlates to %s; a lateral correlates to the FROM item right before it, a base table with no JOIN chain", fi.Alias, dep)
	}
	return nil
}

func (b *binder) query(q *Query) (*boundQuery, error) {
	live := cteLiveColumns(q, b.lower)
	bq := &boundQuery{ctes: make([]boundCTE, len(q.CTEs))}
	for i, cte := range q.CTEs {
		sel, err := b.selectStmt(cte.Select, bq.ctes[:i], live[i])
		if err != nil {
			return nil, err
		}
		bq.ctes[i] = boundCTE{name: b.lower(cte.Name), sel: sel}
	}
	body, err := b.selectStmt(q.Body, bq.ctes, nil)
	if err != nil {
		return nil, err
	}
	bq.body = body
	return bq, nil
}

// selectStmt binds s, which reads the CTEs ctes. live (nil = all) names
// the output columns a later select can observe; it only applies when s
// cannot observe its own dead columns, which rules out UNION ALL,
// DISTINCT and ORDER BY.
func (b *binder) selectStmt(s *Select, ctes []boundCTE, live map[string]bool) (*boundSelect, error) {
	if observesAll(s) {
		live = nil
	}
	bs := &boundSelect{sel: s, cores: make([]*boundCore, len(s.Cores))}
	for i, core := range s.Cores {
		bc, err := b.core(core, ctes, live)
		if err != nil {
			return nil, err
		}
		if i > 0 && len(bc.names) != len(bs.cores[0].names) {
			return nil, fmt.Errorf("sql: UNION ALL arms have %d vs %d columns", len(bs.cores[0].names), len(bc.names))
		}
		bs.cores[i] = bc
	}
	names := bs.cores[0].names
	for _, o := range s.OrderBy {
		var err error
		eachColRef(o.Expr, func(c *ColRef) {
			if i := slices.Index(names, c.column); i < 0 {
				err = fmt.Errorf("sql: ORDER BY key %s names no output column", c.Column)
			} else if e := place(c, 0, i); e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return bs, nil
}

// observesAll reports whether s reads every column of its own output:
// a union's arms line up by position, and DISTINCT and ORDER BY read
// whole rows.
func observesAll(s *Select) bool {
	return len(s.Cores) > 1 || s.Cores[0].Distinct || len(s.OrderBy) > 0
}

// place records c's slot. Bind's check pass marked every reference
// unplaced (lowerRef), so a node placed already at another slot is
// shared by two places that read different rows, which no slot serves.
func place(c *ColRef, unit, pos int) error {
	if c.pos >= 0 && (c.unit != unit || c.pos != pos) {
		return fmt.Errorf("sql: column reference %s is one node in two places that read it at different positions", colRefString(c))
	}
	c.unit, c.pos = unit, pos
	return nil
}

func (b *binder) core(core *SelectCore, ctes []boundCTE, live map[string]bool) (*boundCore, error) {
	bc := &boundCore{core: core, names: make([]string, len(core.Items)), cells: make([]int, len(core.Items))}
	var dead []bool
	if live != nil {
		dead = make([]bool, len(core.Items))
	}
	for i, item := range core.Items {
		bc.names[i] = b.lower(item.Alias)
		if dead != nil {
			dead[i] = !live[bc.names[i]]
		}
	}
	// froms are the core's FROM items, the right side of every join and
	// the laterals: the items an alias can name.
	var froms []*boundFrom
	for _, fi := range core.From {
		f := b.from(fi, ctes)
		froms = append(froms, f)
		if f.lat != nil {
			bc.units[len(bc.units)-1].from.lateral = f // Bind checked the host
			continue
		}
		bc.units = append(bc.units, boundUnit{from: f})
		for _, j := range f.joins {
			froms = append(froms, j.right)
		}
	}
	alias := func(c *ColRef) *boundFrom {
		for _, f := range froms {
			if f.alias == c.alias {
				return f
			}
		}
		return nil
	}

	// The columns each base table is referenced by, in order of first
	// reference.
	var refs []*ColRef
	for i, item := range core.Items {
		if _, direct := item.Expr.(*ColRef); !direct && dead != nil && dead[i] {
			bc.cells[i] = deadItem // never evaluated, so its inputs are not reads
			continue
		}
		refs = colRefs(item.Expr, refs)
	}
	refs = colRefs(core.Where, refs)
	for _, u := range bc.units {
		for _, j := range u.from.joins {
			refs = colRefs(j.on, refs)
		}
	}
	for _, c := range refs {
		if f := alias(c); f != nil && f.cte < 0 && f.lat == nil && !slices.Contains(f.cols, c.column) {
			if f.cols == nil {
				f.cols = make([]string, 0, 8) // room for a typical core's columns
			}
			f.cols = append(f.cols, c.column)
		}
	}

	// The layout, then every reference's slot.
	cells := func(f *boundFrom) int {
		switch {
		case f.lat != nil:
			return len(f.lat.names)
		case f.cte >= 0:
			return len(ctes[f.cte].sel.cores[0].names)
		}
		return len(f.cols)
	}
	width := 0
	for ui := range bc.units {
		u := &bc.units[ui]
		lay := func(f *boundFrom) {
			f.unit, f.off, f.width = ui, u.width, cells(f)
			u.width += f.width
		}
		lay(u.from)
		if u.from.lateral != nil {
			lay(u.from.lateral)
		}
		for _, j := range u.from.joins {
			lay(j.right)
		}
		width += u.width
	}
	for _, c := range refs {
		f := alias(c)
		if f == nil {
			return nil, fmt.Errorf("sql: column %s names no FROM item of its core", colRefString(c))
		}
		var i int
		switch {
		case f.lat != nil:
			i = slices.Index(f.lat.names, c.column)
		case f.cte >= 0:
			i = slices.Index(ctes[f.cte].sel.cores[0].names, c.column)
		default:
			i = slices.Index(f.cols, c.column)
		}
		if i < 0 {
			return nil, fmt.Errorf("sql: unknown column %s", colRefString(c))
		}
		if err := place(c, f.unit, f.off+i); err != nil {
			return nil, err
		}
	}

	for ui := range bc.units {
		if err := bindJoins(&bc.units[ui]); err != nil {
			return nil, err
		}
	}
	bc.bindWhere()

	// Items: a column item copies its cell, anything else is evaluated.
	bc.identity = len(core.Items) == width
	for i, item := range core.Items {
		switch c, ok := item.Expr.(*ColRef); {
		case ok:
			bc.cells[i] = c.at(bc.shift())
		case bc.cells[i] != deadItem:
			bc.cells[i] = exprItem
		}
		bc.identity = bc.identity && bc.cells[i] == i
	}
	return bc, nil
}

// shift is where unit 1's cells start in the joined row.
func (bc *boundCore) shift() int { return bc.units[0].width }

// bindJoins splits each ON clause of u's chain into links and residual
// conjuncts. An ON clause reads the chain before its join and the
// join's right side, nothing else.
func bindJoins(u *boundUnit) error {
	for i := range u.from.joins {
		j := &u.from.joins[i]
		end := j.right.off + j.right.width
		var err error
		eachColRef(j.on, func(c *ColRef) {
			if err == nil && (c.unit != j.right.unit || c.pos >= end) {
				err = fmt.Errorf("sql: the ON clause of %s reads %s, outside its join", j.right.alias, colRefString(c))
			}
		})
		if err != nil {
			return err
		}
		left := func(c *ColRef) bool { return c.pos < j.right.off }
		for _, c := range conjuncts(j.on, nil) {
			l, r, ok := colEquality(c)
			switch {
			case ok && left(l) && !left(r):
				j.links = append(j.links, eqLink{li: l.pos, ri: r.pos - j.right.off})
			case ok && left(r) && !left(l):
				j.links = append(j.links, eqLink{li: r.pos, ri: l.pos - j.right.off})
			default:
				j.residual = append(j.residual, c)
			}
		}
	}
	return nil
}

// bindWhere classifies the WHERE conjuncts: pushed into the one unit
// they read when it has no join chain, links between the two units, or
// residual.
func (bc *boundCore) bindWhere() {
	if bc.core.Where == nil {
		return
	}
	for _, c := range conjuncts(bc.core.Where, nil) {
		units := 0 // a bit per unit read
		eachColRef(c, func(cr *ColRef) { units |= 1 << cr.unit })
		if units == 1 || units == 2 {
			if u := &bc.units[units>>1]; len(u.from.joins) == 0 {
				u.where = append(u.where, c)
				continue
			}
		}
		if l, r, ok := colEquality(c); ok && l.unit != r.unit {
			if l.unit == 1 {
				l, r = r, l
			}
			bc.links[0] = append(bc.links[0], eqLink{li: l.pos, ri: r.pos})
			bc.links[1] = append(bc.links[1], eqLink{li: r.pos, ri: l.pos})
			continue
		}
		bc.residual = append(bc.residual, c)
	}
}

// colEquality matches `colref = colref`, the join-link shape.
func colEquality(e Expr) (l, r *ColRef, ok bool) {
	if b, isEq := e.(*BinOp); isEq && b.Op == "=" {
		l, lok := b.L.(*ColRef)
		r, rok := b.R.(*ColRef)
		return l, r, lok && rok
	}
	return nil, nil, false
}

// from binds fi, resolving a table name to the latest of ctes it names.
func (b *binder) from(fi FromItem, ctes []boundCTE) *boundFrom {
	f := &boundFrom{alias: b.lower(fi.Alias), table: b.lower(fi.Table), cte: -1}
	if l := fi.Lateral; l != nil {
		f.lat = &boundLateral{names: make([]string, len(l.Cols)), rows: l.Rows}
		for i, name := range l.Cols {
			f.lat.names[i] = b.lower(name)
		}
	}
	for i := len(ctes) - 1; i >= 0; i-- {
		if ctes[i].name == f.table {
			f.cte = i
			break
		}
	}
	for _, jc := range fi.Joins {
		f.joins = append(f.joins, boundJoin{right: b.from(jc.Right, ctes), on: jc.On})
	}
	return f
}
