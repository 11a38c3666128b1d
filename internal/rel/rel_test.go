package rel

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustTable(t *testing.T, db *DB, name string, schema Schema, rows []Row) *Table {
	t.Helper()
	tbl, err := db.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// The name ids of peopleDB: people's names in alphabetical order, then
// cities'.
const (
	alice int64 = iota + 1
	bob
	carol
	dan
	nyc
	sfo
)

// terms spells out peopleDB's name ids, like a dictionary.
var terms = map[int64]string{alice: "alice", bob: "bob", carol: "carol", dan: "dan", nyc: "nyc", sfo: "sfo"}

// peopleDB holds the ids behind the people and cities relations, and a
// function term(id) that spells a name id out, so a query compares
// names in WHERE while its rows hold ids.
func peopleDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustTable(t, db, "people_ids", Schema{{Name: "id"}, {Name: "name"}, {Name: "age"}, {Name: "city"}}, []Row{
		{ID(1), ID(alice), ID(30), ID(10)},
		{ID(2), ID(bob), ID(25), ID(10)},
		{ID(3), ID(carol), ID(35), ID(20)},
		{ID(4), ID(dan), NullCell, ID(30)},
	})
	mustTable(t, db, "city_ids", Schema{{Name: "id"}, {Name: "name"}}, []Row{
		{ID(10), ID(nyc)},
		{ID(20), ID(sfo)},
	})
	db.RegisterFunc("term", func(args []Value) (Value, error) {
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		return Str(terms[args[0].I]), nil
	})
	return db
}

// peopleCTEs define people(id, name, age, city) and cities(id, name)
// over peopleDB's tables.
const peopleCTEs = "people AS (SELECT p.id AS id, p.name AS name, p.age AS age, p.city AS city FROM people_ids AS p), " +
	"cities AS (SELECT c.id AS id, c.name AS name FROM city_ids AS c)"

// peopleSQL puts peopleCTEs in front of sql, merging with its own WITH.
func peopleSQL(sql string) string {
	if rest, ok := strings.CutPrefix(sql, "WITH "); ok {
		return "WITH " + peopleCTEs + ", " + rest
	}
	return "WITH " + peopleCTEs + " " + sql
}

// queryPeople runs sql over peopleDB's people and cities.
func queryPeople(t *testing.T, db *DB, sql string) *ResultSet {
	t.Helper()
	return queryRows(t, db, peopleSQL(sql))
}

// query parses sql and executes it on db.
func query(db *DB, sql string) (*ResultSet, error) {
	q, err := ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return db.Exec(q)
}

func queryRows(t *testing.T, db *DB, sql string) *ResultSet {
	t.Helper()
	rs, err := query(db, sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rs
}

func TestSelectWhere(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.age > 26")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

func TestCommaJoin(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT p.name AS pname, c.name AS cname FROM people AS p, cities AS c WHERE p.city = c.id AND term(c.name) = 'nyc'")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT p.name AS pname, c.name AS cname FROM people AS p LEFT OUTER JOIN cities AS c ON p.city = c.id")
	if len(rs.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rs.Rows))
	}
	nulls := 0
	for _, r := range rs.Rows {
		if r[1].IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Fatalf("want exactly 1 null-extended row, got %d", nulls)
	}
}

func TestUnionDedup(t *testing.T) {
	db := peopleDB(t)
	const both = "SELECT P.city AS city FROM people AS P UNION ALL SELECT P.city AS city FROM people AS P"
	rs := queryPeople(t, db, "WITH u AS ("+both+") SELECT DISTINCT U.city AS city FROM u AS U")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 distinct cities, got %d", len(rs.Rows))
	}
	rs = queryPeople(t, db, both)
	if len(rs.Rows) != 8 {
		t.Fatalf("want 8 rows under UNION ALL, got %d", len(rs.Rows))
	}
}

func TestOrderLimitOffset(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name, P.age AS age FROM people AS P ORDER BY age DESC LIMIT 2")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
	// NULL age sorts first under DESC per our NULLS LAST (ASC) rule inverted.
	if rs.Rows[0][0].I != dan && rs.Rows[0][0].I != carol {
		t.Fatalf("unexpected first row %v", rs.Rows[0])
	}
	rs = queryPeople(t, db, "SELECT P.name AS name, P.age AS age FROM people AS P ORDER BY age LIMIT 2 OFFSET 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
	if rs.Rows[0][0].I != alice {
		t.Fatalf("want alice second-youngest, got %v", rs.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT DISTINCT P.city AS city FROM people AS P")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rs.Rows))
	}
}

func TestCTE(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, `WITH adults AS (SELECT P.id AS id, P.name AS name FROM people AS P WHERE P.age >= 30),
		named AS (SELECT a.name AS nm FROM adults AS a)
		SELECT N.nm AS nm FROM named AS N ORDER BY nm`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].I != alice || rs.Rows[1][0].I != carol {
		t.Fatalf("unexpected result %v", rs.Rows)
	}
}

// TestSubqueryInFrom: the dialect names a subquery in WITH.
func TestSubqueryInFrom(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "WITH s AS (SELECT P.name AS name, P.age AS age FROM people AS P WHERE P.age < 31) SELECT s.name AS name FROM s AS s WHERE s.age > 26")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != alice {
		t.Fatalf("unexpected result %v", rs.Rows)
	}
}

func TestCaseCoalesce(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name, CASE WHEN P.age IS NULL THEN 0 ELSE 1 END AS k, COALESCE(P.age, -1) AS a FROM people AS P WHERE term(P.name) = 'dan'")
	if len(rs.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rs.Rows))
	}
	if rs.Rows[0][1].I != 0 || rs.Rows[0][2].I != -1 {
		t.Fatalf("unexpected row %v", rs.Rows[0])
	}
}

// TestInExpr: the dialect spells an IN list as an OR of equalities and
// NOT IN as inequalities.
func TestInExpr(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.city = 10 OR P.city = 20")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rs.Rows))
	}
	rs = queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.city != 10")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
}

func TestIsNull(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.age IS NULL")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != dan {
		t.Fatalf("unexpected %v", rs.Rows)
	}
	rs = queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.age IS NOT NULL")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3, got %d", len(rs.Rows))
	}
}

func TestIndexLookupMatchesScan(t *testing.T) {
	db := NewDB()
	tbl := mustTable(t, db, "t", Schema{{Name: "k"}, {Name: "v"}}, nil)
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(Row{ID(int64(i % 37)), ID(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	scan := queryRows(t, db, "SELECT T.v AS v FROM t AS T WHERE T.k = 5")
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	idx := queryRows(t, db, "SELECT T.v AS v FROM t AS T WHERE T.k = 5")
	if len(scan.Rows) != len(idx.Rows) || len(idx.Rows) == 0 {
		t.Fatalf("index lookup rows %d != scan rows %d", len(idx.Rows), len(scan.Rows))
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	db := NewDB()
	tbl := mustTable(t, db, "t", Schema{{Name: "k"}}, nil)
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(Row{ID(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	rs := queryRows(t, db, "SELECT T.k AS k FROM t AS T WHERE T.k = 7")
	if len(rs.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rs.Rows))
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "a", Schema{{Name: "x"}}, []Row{{ID(1)}, {ID(2)}})
	mustTable(t, db, "b", Schema{{Name: "y"}}, []Row{{ID(3)}, {ID(4)}})
	rs := queryRows(t, db, "SELECT a.x AS x, b.y AS y FROM a AS a, b AS b")
	if len(rs.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rs.Rows))
	}
}

func TestNullNeverJoins(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "a", Schema{{Name: "x"}}, []Row{{NullCell}, {ID(1)}})
	mustTable(t, db, "b", Schema{{Name: "x"}}, []Row{{NullCell}, {ID(1)}})
	rs := queryRows(t, db, "SELECT a.x AS x FROM a AS a, b AS b WHERE a.x = b.x")
	if len(rs.Rows) != 1 {
		t.Fatalf("null keys must not join; got %d rows", len(rs.Rows))
	}
}

func TestScalarFunctions(t *testing.T) {
	db := peopleDB(t)
	db.RegisterFunc("double", func(args []Value) (Value, error) {
		if len(args) != 1 || args[0].K != KindInt {
			return Null, nil
		}
		return Int(args[0].I * 2), nil
	})
	rs := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE double(P.age) = 50")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != bob {
		t.Fatalf("want bob, got %v", rs.Rows)
	}
}

func TestArithmetic(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.age + 1 = 31 AND P.age * 2 = 60 AND P.age - 5 = 25 AND P.age / 5 = 6")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != alice {
		t.Fatalf("want alice, got %v", rs.Rows)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	db := peopleDB(t)
	_, err := query(db, peopleSQL("SELECT P.id AS id FROM people AS P UNION ALL SELECT P.id AS id, P.name AS name FROM people AS P"))
	if err == nil {
		t.Fatal("want arity error")
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := peopleDB(t)
	if _, err := query(db, peopleSQL("SELECT X.x AS x FROM nosuch AS X")); err == nil {
		t.Fatal("want unknown table error")
	}
	if _, err := query(db, peopleSQL("SELECT P.nosuch AS nosuch FROM people AS P")); err == nil {
		t.Fatal("want unknown column error")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"WITH x AS SELECT 1 FROM t SELECT 1 FROM x",
		"SELECT * FROM t extra garbage (",
		"SELECT 'unterminated FROM t",
	}
	for _, sql := range bad {
		if _, err := ParseQuery(sql); err == nil {
			t.Errorf("expected parse error for %q", sql)
		}
	}
}

func TestValueCompareProperties(t *testing.T) {
	// Compare is antisymmetric and consistent with Equal for ints.
	f := func(a, b int64) bool {
		c1, ok1 := Compare(Int(a), Int(b))
		c2, ok2 := Compare(Int(b), Int(a))
		if !ok1 || !ok2 {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRowCellsHoldNoPointers: a row cell is 8 bytes and holds no
// pointer, so a batch's slab is noscan and the GC never walks a row.
func TestRowCellsHoldNoPointers(t *testing.T) {
	cell := reflect.TypeOf(Row(nil)).Elem()
	if cell.Size() != 8 {
		t.Errorf("a row cell (%v) is %d bytes, want 8", cell, cell.Size())
	}
	if hasPointers(cell) {
		t.Errorf("a row cell (%v) holds a pointer", cell)
	}
}

// hasPointers reports whether a value of type t holds a pointer the GC
// must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true // pointer, slice, string, map, channel, func, interface
}

// TestValueKeyInjectiveForInts: DISTINCT's row key tells ids apart,
// and NULL from every id.
func TestValueKeyInjectiveForInts(t *testing.T) {
	f := func(a, b int64) bool {
		same := slices.Equal(Row{ID(a)}, Row{ID(b)}) && rowKeyHash(Row{ID(a)}) == rowKeyHash(Row{ID(b)})
		return same == (a == b) && !slices.Equal(Row{ID(a)}, Row{NullCell})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	db := peopleDB(t)
	// dan has NULL age: neither < nor >= matches him.
	lt := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.age < 100")
	ge := queryPeople(t, db, "SELECT P.name AS name FROM people AS P WHERE P.age >= 100")
	if len(lt.Rows)+len(ge.Rows) != 3 {
		t.Fatalf("NULL row leaked into comparison results: %d + %d", len(lt.Rows), len(ge.Rows))
	}
}

func TestEstimateBytesGrowsWithNulls(t *testing.T) {
	db := NewDB()
	schema := Schema{{Name: "a"}, {Name: "b"}}
	tbl := mustTable(t, db, "t", schema, []Row{{ID(1), ID(2)}})
	full := tbl.EstimateBytes()
	wide := mustTable(t, db, "w", Schema{{Name: "a"}, {Name: "b"}, {Name: "c"}}, []Row{{ID(1), ID(2), NullCell}})
	if wide.EstimateBytes() <= full {
		t.Fatal("null column must cost something")
	}
	if wide.EstimateBytes() >= full+8 {
		t.Fatal("null column must cost less than a populated int column")
	}
}

func TestOrderByExpression(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS name, P.age AS age FROM people AS P WHERE P.age IS NOT NULL ORDER BY 0 - age")
	if rs.Rows[0][0].I != carol {
		t.Fatalf("want carol first, got %v", rs.Rows[0])
	}
}

func TestResultColumnsNamed(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.name AS n, P.age AS age FROM people AS P")
	want := []string{"n", "age"}
	if !reflect.DeepEqual(rs.Columns, want) {
		t.Fatalf("columns = %v, want %v", rs.Columns, want)
	}
}

func TestTableRowWidthMismatch(t *testing.T) {
	db := NewDB()
	tbl := mustTable(t, db, "t", Schema{{Name: "a"}}, nil)
	if err := tbl.Insert(Row{ID(1), ID(2)}); err == nil {
		t.Fatal("want width error")
	}
}

func TestDuplicateTable(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "t", Schema{{Name: "a"}}, nil)
	if _, err := db.CreateTable("T", Schema{{Name: "a"}}); err == nil {
		t.Fatal("want duplicate table error (case-insensitive)")
	}
}

// TestParenthesizedUnionArm: a UNION ALL arm over another relation;
// the dialect writes arms unparenthesized.
func TestParenthesizedUnionArm(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT P.id AS id FROM people AS P UNION ALL SELECT C.id AS id FROM cities AS C")
	if len(rs.Rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rs.Rows))
	}
}

func TestLeftJoinResidualOn(t *testing.T) {
	db := peopleDB(t)
	// ON has an extra non-equi condition restricting matches.
	rs := queryPeople(t, db, "SELECT p.name AS pname, c.name AS cname FROM people AS p LEFT OUTER JOIN cities AS c ON p.city = c.id AND p.age > 28")
	nulls := 0
	for _, r := range rs.Rows {
		if r[1].IsNull() {
			nulls++
		}
	}
	// Only alice (30, nyc) and carol (35, sfo) satisfy the residual.
	if len(rs.Rows) != 4 || nulls != 2 {
		t.Fatalf("rows=%d nulls=%d, want 4/2", len(rs.Rows), nulls)
	}
}

// TestDBWithOverlay: With resolves extra tables beside the database's
// own without adding them to it.
func TestDBWithOverlay(t *testing.T) {
	db := peopleDB(t).Publish()
	extra := NewTable("pairs", Schema{{Name: "entry"}, {Name: "val"}})
	if err := extra.Insert(Row{ID(1), ID(20)}); err != nil {
		t.Fatal(err)
	}
	before := strings.Join(db.TableNames(), ",")
	over := db.With(extra.Publish())
	rs := queryRows(t, over, "SELECT p.id AS id FROM people_ids AS p, pairs AS x WHERE p.id = x.entry")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 1 {
		t.Fatalf("overlay join: %v", rs.Rows)
	}
	if after := strings.Join(db.TableNames(), ","); after != before {
		t.Fatalf("With changed the database: %s -> %s", before, after)
	}
	if _, err := query(db, "SELECT X.entry AS entry FROM pairs AS X"); err == nil {
		t.Fatal("the base database resolves an overlaid table")
	}
}
