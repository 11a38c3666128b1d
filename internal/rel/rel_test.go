package rel

import (
	"context"
	"fmt"
	"reflect"
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

// peopleDB holds the ids behind the people and cities relations: the
// names are stored as ids (in alphabetical order) and spelled out by
// the CTEs peopleSQL puts in front of a query.
func peopleDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustTable(t, db, "people_ids", Schema{{Name: "id"}, {Name: "name"}, {Name: "age"}, {Name: "city"}}, []Row{
		{Int(1), Int(1), Int(30), Int(10)},
		{Int(2), Int(2), Int(25), Int(10)},
		{Int(3), Int(3), Int(35), Int(20)},
		{Int(4), Int(4), Null, Int(30)},
	})
	mustTable(t, db, "city_ids", Schema{{Name: "id"}, {Name: "name"}}, []Row{
		{Int(10), Int(1)},
		{Int(20), Int(2)},
	})
	return db
}

// peopleCTEs define people(id, name, age, city) and cities(id, name)
// over peopleDB's tables, with the names as strings.
const peopleCTEs = "people AS (SELECT p.id AS id, CASE WHEN p.name = 1 THEN 'alice' WHEN p.name = 2 THEN 'bob' " +
	"WHEN p.name = 3 THEN 'carol' ELSE 'dan' END AS name, p.age AS age, p.city AS city FROM people_ids AS p), " +
	"cities AS (SELECT c.id AS id, CASE WHEN c.name = 1 THEN 'nyc' ELSE 'sfo' END AS name FROM city_ids AS c)"

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

func queryRows(t *testing.T, db *DB, sql string) *ResultSet {
	t.Helper()
	rs, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rs
}

func TestSelectWhere(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name FROM people WHERE age > 26")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT * FROM people")
	if len(rs.Columns) != 4 || len(rs.Rows) != 4 {
		t.Fatalf("got cols=%v rows=%d", rs.Columns, len(rs.Rows))
	}
}

func TestQualifiedStar(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT p.* FROM people AS p, cities AS c WHERE p.city = c.id")
	if len(rs.Columns) != 4 {
		t.Fatalf("want 4 columns, got %v", rs.Columns)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows (dan's city unmatched), got %d", len(rs.Rows))
	}
}

func TestCommaJoin(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT p.name, c.name FROM people AS p, cities AS c WHERE p.city = c.id AND c.name = 'nyc'")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT p.name, c.name FROM people AS p LEFT OUTER JOIN cities AS c ON p.city = c.id")
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
	rs := queryPeople(t, db, "SELECT city FROM people UNION SELECT city FROM people")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 distinct cities, got %d", len(rs.Rows))
	}
	rs = queryPeople(t, db, "SELECT city FROM people UNION ALL SELECT city FROM people")
	if len(rs.Rows) != 8 {
		t.Fatalf("want 8 rows under UNION ALL, got %d", len(rs.Rows))
	}
}

func TestOrderLimitOffset(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name, age FROM people ORDER BY age DESC LIMIT 2")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
	// NULL age sorts first under DESC per our NULLS LAST (ASC) rule inverted.
	if rs.Rows[0][0].S != "dan" && rs.Rows[0][0].S != "carol" {
		t.Fatalf("unexpected first row %v", rs.Rows[0])
	}
	rs = queryPeople(t, db, "SELECT name, age FROM people ORDER BY age LIMIT 2 OFFSET 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
	if rs.Rows[0][0].S != "alice" {
		t.Fatalf("want alice second-youngest, got %v", rs.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT DISTINCT city FROM people")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rs.Rows))
	}
}

func TestCTE(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, `WITH adults AS (SELECT id, name FROM people WHERE age >= 30),
		named AS (SELECT a.name AS nm FROM adults AS a)
		SELECT nm FROM named ORDER BY nm`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "alice" || rs.Rows[1][0].S != "carol" {
		t.Fatalf("unexpected result %v", rs.Rows)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT s.name FROM (SELECT name, age FROM people WHERE age < 31) AS s WHERE s.age > 26")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "alice" {
		t.Fatalf("unexpected result %v", rs.Rows)
	}
}

func TestCaseCoalesce(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name, CASE WHEN age IS NULL THEN 'unknown' ELSE 'known' END AS k, COALESCE(age, 0 - 1) AS a FROM people WHERE name = 'dan'")
	if len(rs.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rs.Rows))
	}
	if rs.Rows[0][1].S != "unknown" || rs.Rows[0][2].I != -1 {
		t.Fatalf("unexpected row %v", rs.Rows[0])
	}
}

func TestInExpr(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name FROM people WHERE city IN (10, 20)")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rs.Rows))
	}
	rs = queryPeople(t, db, "SELECT name FROM people WHERE city NOT IN (10)")
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
}

func TestIsNull(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name FROM people WHERE age IS NULL")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "dan" {
		t.Fatalf("unexpected %v", rs.Rows)
	}
	rs = queryPeople(t, db, "SELECT name FROM people WHERE age IS NOT NULL")
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3, got %d", len(rs.Rows))
	}
}

func TestIndexLookupMatchesScan(t *testing.T) {
	db := NewDB()
	tbl := mustTable(t, db, "t", Schema{{Name: "k"}, {Name: "v"}}, nil)
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(Row{Int(int64(i % 37)), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	scan := queryRows(t, db, "SELECT v FROM t WHERE k = 5")
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	idx := queryRows(t, db, "SELECT v FROM t WHERE k = 5")
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
		if err := tbl.Insert(Row{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	rs := queryRows(t, db, "SELECT k FROM t WHERE k = 7")
	if len(rs.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rs.Rows))
	}
}

// TestUnqualifiedPushdownAgreesWithColIndex: a conjunct over a bare
// column is pushed into a base scan only when that FROM item alone can
// resolve it. The scan used to claim `k = 5` for the first item whose
// schema had k and mark it applied, silently filtering one side of a
// reference the joined relation calls ambiguous.
func TestUnqualifiedPushdownAgreesWithColIndex(t *testing.T) {
	db := NewDB()
	a := mustTable(t, db, "a", Schema{{Name: "k"}, {Name: "v"}}, []Row{{Int(5), Int(1)}, {Int(6), Int(2)}})
	mustTable(t, db, "b", Schema{{Name: "k"}, {Name: "w"}}, []Row{{Int(5), Int(10)}, {Int(6), Int(20)}})
	if err := a.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT x.v, y.w FROM a AS x, b AS y WHERE k = 5 AND x.v < y.w"); err == nil {
		t.Fatal("k names a column of both FROM items: want the ambiguity error, got rows")
	}
	// Through a join chain too: y is not a pushdown target, but it still
	// resolves k.
	if _, err := db.Query("SELECT x.v FROM a AS x, b AS z JOIN b AS y ON z.w = y.w WHERE k = 5"); err == nil {
		t.Fatal("k is ambiguous across a join chain: want an error, got rows")
	}
	// Next to bare columns that do resolve, k stays ambiguous.
	if _, err := db.Query("SELECT v, w FROM a AS x, b AS y WHERE v = 1 AND k = 5 AND w = 10"); err == nil {
		t.Fatal("k is ambiguous next to resolvable bare columns: want an error, got rows")
	}
	// A bare column only one item has is still pushed down, and the
	// scan still finds the index.
	q, err := ParseQuery("SELECT x.k, w FROM a AS x, b AS y WHERE v = 1 AND x.k = 5 AND w = 10")
	if err != nil {
		t.Fatal(err)
	}
	rs, stats, err := db.AnalyzeContext(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 5 || rs.Rows[0][1].I != 10 {
		t.Fatalf("unexpected rows %v", rs.Rows)
	}
	var indexScan bool
	for _, op := range stats.Ops {
		indexScan = indexScan || op.Kind == "index-scan"
	}
	if !indexScan {
		t.Fatalf("sole-resolver conjuncts should still reach the index scan:\n%s", stats)
	}
}

func TestThreeWayJoinOrdering(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "a", Schema{{Name: "x"}}, []Row{{Int(1)}, {Int(2)}, {Int(3)}})
	mustTable(t, db, "b", Schema{{Name: "x"}, {Name: "y"}}, []Row{{Int(1), Int(10)}, {Int(2), Int(20)}})
	mustTable(t, db, "c", Schema{{Name: "y"}, {Name: "z"}}, []Row{{Int(10), Int(100)}, {Int(30), Int(300)}})
	rs := queryRows(t, db, "SELECT a.x, c.z FROM a AS a, b AS b, c AS c WHERE a.x = b.x AND b.y = c.y")
	if len(rs.Rows) != 1 || rs.Rows[0][1].I != 100 {
		t.Fatalf("unexpected %v", rs.Rows)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "a", Schema{{Name: "x"}}, []Row{{Int(1)}, {Int(2)}})
	mustTable(t, db, "b", Schema{{Name: "y"}}, []Row{{Int(3)}, {Int(4)}})
	rs := queryRows(t, db, "SELECT a.x, b.y FROM a AS a, b AS b")
	if len(rs.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rs.Rows))
	}
}

func TestNullNeverJoins(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "a", Schema{{Name: "x"}}, []Row{{Null}, {Int(1)}})
	mustTable(t, db, "b", Schema{{Name: "x"}}, []Row{{Null}, {Int(1)}})
	rs := queryRows(t, db, "SELECT a.x FROM a AS a, b AS b WHERE a.x = b.x")
	if len(rs.Rows) != 1 {
		t.Fatalf("null keys must not join; got %d rows", len(rs.Rows))
	}
}

func TestScalarFunctions(t *testing.T) {
	db := peopleDB(t)
	db.RegisterFunc("double", func(args []Value) (Value, error) {
		if len(args) != 1 || args[0].K != KindInt {
			return Null, fmt.Errorf("double: want one int")
		}
		return Int(args[0].I * 2), nil
	})
	rs := queryPeople(t, db, "SELECT double(age) FROM people WHERE name = 'bob'")
	if rs.Rows[0][0].I != 50 {
		t.Fatalf("want 50, got %v", rs.Rows[0][0])
	}
	rs = queryPeople(t, db, "SELECT name FROM people WHERE contains(name, 'aro')")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "carol" {
		t.Fatalf("unexpected %v", rs.Rows)
	}
}

func TestArithmetic(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT age + 1, age * 2, age - 5, age / 5 FROM people WHERE name = 'alice'")
	r := rs.Rows[0]
	if r[0].I != 31 || r[1].I != 60 || r[2].I != 25 || r[3].I != 6 {
		t.Fatalf("unexpected %v", r)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	db := peopleDB(t)
	_, err := db.Query(peopleSQL("SELECT id FROM people UNION SELECT id, name FROM people"))
	if err == nil {
		t.Fatal("want arity error")
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := peopleDB(t)
	if _, err := db.Query(peopleSQL("SELECT x FROM nosuch")); err == nil {
		t.Fatal("want unknown table error")
	}
	if _, err := db.Query(peopleSQL("SELECT nosuch FROM people")); err == nil {
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

func TestValueKeyInjectiveForInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := Int(a).key(), Int(b).key()
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	db := peopleDB(t)
	// dan has NULL age: neither < nor >= matches him.
	lt := queryPeople(t, db, "SELECT name FROM people WHERE age < 100")
	ge := queryPeople(t, db, "SELECT name FROM people WHERE age >= 100")
	if len(lt.Rows)+len(ge.Rows) != 3 {
		t.Fatalf("NULL row leaked into comparison results: %d + %d", len(lt.Rows), len(ge.Rows))
	}
}

func TestEstimateBytesGrowsWithNulls(t *testing.T) {
	db := NewDB()
	schema := Schema{{Name: "a"}, {Name: "b"}}
	tbl := mustTable(t, db, "t", schema, []Row{{Int(1), Int(2)}})
	full := tbl.EstimateBytes()
	wide := mustTable(t, db, "w", Schema{{Name: "a"}, {Name: "b"}, {Name: "c"}}, []Row{{Int(1), Int(2), Null}})
	if wide.EstimateBytes() <= full {
		t.Fatal("null column must cost something")
	}
	if wide.EstimateBytes() >= full+8 {
		t.Fatal("null column must cost less than a populated int column")
	}
}

func TestOrderByExpression(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name, age FROM people WHERE age IS NOT NULL ORDER BY 0 - age")
	if rs.Rows[0][0].S != "carol" {
		t.Fatalf("want carol first, got %v", rs.Rows[0])
	}
}

func TestResultColumnsNamed(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT name AS n, age FROM people")
	want := []string{"n", "age"}
	if !reflect.DeepEqual(rs.Columns, want) {
		t.Fatalf("columns = %v, want %v", rs.Columns, want)
	}
}

func TestTableRowWidthMismatch(t *testing.T) {
	db := NewDB()
	tbl := mustTable(t, db, "t", Schema{{Name: "a"}}, nil)
	if err := tbl.Insert(Row{Int(1), Int(2)}); err == nil {
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

func TestParenthesizedUnionArm(t *testing.T) {
	db := peopleDB(t)
	rs := queryPeople(t, db, "SELECT id FROM people UNION ALL (SELECT id FROM cities)")
	if len(rs.Rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rs.Rows))
	}
}

func TestLeftJoinResidualOn(t *testing.T) {
	db := peopleDB(t)
	// ON has an extra non-equi condition restricting matches.
	rs := queryPeople(t, db, "SELECT p.name, c.name FROM people AS p LEFT OUTER JOIN cities AS c ON p.city = c.id AND p.age > 28")
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
	if err := extra.Insert(Row{Int(1), Int(20)}); err != nil {
		t.Fatal(err)
	}
	before := strings.Join(db.TableNames(), ",")
	over := db.With(extra.Publish())
	rs := queryRows(t, over, "SELECT p.id FROM people_ids AS p, pairs AS x WHERE p.id = x.entry")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 1 {
		t.Fatalf("overlay join: %v", rs.Rows)
	}
	if after := strings.Join(db.TableNames(), ","); after != before {
		t.Fatalf("With changed the database: %s -> %s", before, after)
	}
	if _, err := db.Query("SELECT entry FROM pairs"); err == nil {
		t.Fatal("the base database resolves an overlaid table")
	}
}
