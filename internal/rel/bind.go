package rel

import (
	"fmt"
	"slices"
	"strings"
)

// The bound form of a Query: everything the executor needs to know
// about a statement that does not depend on the database it runs
// against, worked out once by Bind. Per SELECT core that is the
// WHERE clause split into conjuncts with each conjunct's alias set,
// the columns every FROM alias is referenced by (items, WHERE and
// every JOIN … ON), the output names, and which items the CTE
// dead-column analysis (deadcols.go) found unobservable; identifiers
// are lower-cased here and nowhere at run time.
//
// The referenced-column sets are what lets the executor read narrow:
// a base-table relation is shaped from its alias's set only, so a
// 66-column DPH row costs the 3–7 columns the SQL names. Every column
// reference inside a core is qualified, so the sets are exact. The
// columns only the cells of a lateral TABLE(VALUES …) item name are
// left out: the unpivot kernel reads them straight from the chunks, so
// they never widen the rows of the table they correlate to.
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
	conjs []boundConj  // WHERE, split on top-level AND
	from  []*boundFrom // aligned with core.From
	names []string     // the output column names, lower-cased
	// dead marks items no later select can observe (nil = none): an
	// expression item that is dead is not evaluated, its slot left NULL.
	dead []bool
}

// boundConj is one conjunct of a WHERE or ON clause.
type boundConj struct {
	expr    Expr
	aliases []string // distinct aliases referenced
	// l and r are set for `colref = colref`, the join-link shape.
	l, r *ColRef
	// col and id are set for `colref = <integer literal>` (either way
	// round), the index-lookup shape.
	col *ColRef
	id  int64
}

// boundFrom is one table reference, CTE reference or lateral item.
type boundFrom struct {
	alias string // lower-cased
	table string // lower-cased; "" for a lateral item
	lat   *boundLateral
	cols  []string // the columns the core references through alias
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

// boundJoin is one LEFT OUTER JOIN.
type boundJoin struct {
	right *boundFrom
	on    []boundConj
}

// Bind checks q and attaches its bound form, lower-casing every column
// reference. It is the only way a Query becomes executable: ParseQuery
// calls it, and a Query built in code calls it once, before it is
// executed or shared. It rejects what lies outside the dialect (see
// the package comment) that an AST can still express: a column inside
// a core that is not alias.column, a qualified ORDER BY key, an item
// without AS name or that is not id-valued (idValued), a FROM item
// without AS alias, a unary operator other than NOT, a JOIN chain on a
// JOIN's right side, and a lateral item that does not correlate to the
// base table right before it, has something hanging off it or has a
// literal cell that is not an id.
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
	q.bound = b.query(q)
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

func (b *binder) lowerRef(c *ColRef) { c.alias, c.column = b.lower(c.Alias), b.lower(c.Column) }

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
	}
	for _, o := range s.OrderBy {
		if err := b.checkExpr(o.Expr, true); err != nil {
			return err
		}
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

func (b *binder) query(q *Query) *boundQuery {
	live := cteLiveColumns(q, b.lower)
	bq := &boundQuery{ctes: make([]boundCTE, len(q.CTEs))}
	for i, cte := range q.CTEs {
		bq.ctes[i] = boundCTE{name: b.lower(cte.Name), sel: b.selectStmt(cte.Select, live[i])}
	}
	bq.body = b.selectStmt(q.Body, nil)
	return bq
}

// selectStmt binds s. live (nil = all) names the output columns a
// later select can observe; it only applies when s cannot observe its
// own dead columns, which rules out UNION ALL, DISTINCT and ORDER BY.
func (b *binder) selectStmt(s *Select, live map[string]bool) *boundSelect {
	if observesAll(s) {
		live = nil
	}
	bs := &boundSelect{sel: s, cores: make([]*boundCore, len(s.Cores))}
	for i, core := range s.Cores {
		bs.cores[i] = b.core(core, live)
	}
	return bs
}

// observesAll reports whether s reads every column of its own output:
// a union's arms line up by position, and DISTINCT and ORDER BY read
// whole rows.
func observesAll(s *Select) bool {
	return len(s.Cores) > 1 || s.Cores[0].Distinct || len(s.OrderBy) > 0
}

func (b *binder) core(core *SelectCore, live map[string]bool) *boundCore {
	bc := &boundCore{core: core, from: make([]*boundFrom, len(core.From)), names: make([]string, len(core.Items))}
	for i, item := range core.Items {
		bc.names[i] = b.lower(item.Alias)
	}
	if live != nil {
		bc.dead = make([]bool, len(core.Items))
		for i, name := range bc.names {
			bc.dead[i] = !live[name]
		}
	}
	// prims are the FROM items and the right side of every join.
	var prims []*boundFrom
	for i, fi := range core.From {
		f := b.from(fi)
		bc.from[i] = f
		if f.lat != nil {
			bc.from[i-1].lateral = f // Bind checked the host
		}
		prims = append(prims, f)
		for _, j := range f.joins {
			prims = append(prims, j.right)
		}
	}
	if core.Where != nil {
		bc.conjs = bindConjuncts(core.Where)
	}

	// Referenced columns per alias.
	var refs []*ColRef
	for i, item := range core.Items {
		if _, direct := item.Expr.(*ColRef); !direct && bc.dead != nil && bc.dead[i] {
			continue // never evaluated, so its inputs are not reads
		}
		refs = colRefs(item.Expr, refs)
	}
	refs = colRefs(core.Where, refs)
	for _, f := range bc.from {
		for _, j := range f.joins {
			for _, c := range j.on {
				refs = colRefs(c.expr, refs)
			}
		}
	}
	for _, c := range refs {
		for _, f := range prims {
			if f.alias == c.alias && !slices.Contains(f.cols, c.column) {
				if f.cols == nil {
					f.cols = make([]string, 0, 8) // room for a typical core's columns
				}
				f.cols = append(f.cols, c.column)
			}
		}
	}
	return bc
}

func (b *binder) from(fi FromItem) *boundFrom {
	f := &boundFrom{alias: b.lower(fi.Alias), table: b.lower(fi.Table)}
	if l := fi.Lateral; l != nil {
		f.lat = &boundLateral{names: make([]string, len(l.Cols)), rows: l.Rows}
		for i, name := range l.Cols {
			f.lat.names[i] = b.lower(name)
		}
	}
	for _, jc := range fi.Joins {
		f.joins = append(f.joins, boundJoin{right: b.from(jc.Right), on: bindConjuncts(jc.On)})
	}
	return f
}

func bindConjuncts(e Expr) []boundConj {
	exprs := conjuncts(e, nil)
	out := make([]boundConj, len(exprs))
	for i, c := range exprs {
		bc := boundConj{expr: c}
		for _, cr := range colRefs(c, nil) {
			if !slices.Contains(bc.aliases, cr.alias) {
				bc.aliases = append(bc.aliases, cr.alias)
			}
		}
		if b, ok := c.(*BinOp); ok && b.Op == "=" {
			l, lok := b.L.(*ColRef)
			r, rok := b.R.(*ColRef)
			switch {
			case lok && rok:
				bc.l, bc.r = l, r
			case lok && intLit(b.R):
				bc.col, bc.id = l, b.R.(*Lit).V.I
			case rok && intLit(b.L):
				bc.col, bc.id = r, b.L.(*Lit).V.I
			}
		}
		out[i] = bc
	}
	return out
}

func intLit(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.V.K == KindInt
}
