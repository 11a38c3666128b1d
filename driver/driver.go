// Package driver registers a database/sql driver named "db2rdf", so
// standard-library tooling can talk to a store with SPARQL as the
// query language:
//
//	db, err := sql.Open("db2rdf", "")              // fresh in-memory store
//	db, err := sql.Open("db2rdf", "/var/db2rdf")   // durable store at a data directory
//	db, err := sql.Open("db2rdf", "http://host:8080")  // remote SPARQL endpoint
//	rows, err := db.Query(`SELECT ?s ?o WHERE { ?s ?p ?o }`)
//
// One engine (store or HTTP client) is shared by every pooled
// connection of a sql.DB: the connector owns it and closes it when the
// sql.DB is closed. Column values are driver.Value strings holding the
// N-Triples rendering of each term (lossless — parse with
// rdf.ParseTerm), nil for unbound variables, and a bool for ASK.
// Placeholder parameters and transactions are not supported: SPARQL
// has no placeholders, and store writes are single-request atomic.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"io"
	"strings"

	"db2rdf"
)

func init() {
	sql.Register("db2rdf", &Driver{})
}

// ErrNoTransactions is returned by Begin: SPARQL 1.1 has no
// transaction protocol; each update request is atomic on its own.
var ErrNoTransactions = errors.New("db2rdf: transactions are not supported")

// ErrNoArgs is returned when a query carries placeholder arguments.
var ErrNoArgs = errors.New("db2rdf: placeholder arguments are not supported; interpolate into the SPARQL text")

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct{}

// Open opens a connection directly (legacy path without connection
// pooling awareness). The connection owns its engine.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	conn, err := c.Connect(context.Background())
	if err != nil {
		return nil, err
	}
	// This conn is the engine's only user: closing it closes the engine.
	conn.(*sqlConn).owns = c.(*Connector)
	return conn, nil
}

// OpenConnector parses the DSN and builds the shared engine once; the
// returned Connector hands out lightweight connections over it.
//
// DSN forms: "" or "mem:" opens a fresh in-memory store; "http://" or
// "https://" targets a remote SPARQL endpoint served by db2rdf-server
// (or any SPARQL 1.1 Protocol endpoint emitting JSON results); any
// other value is a durable store's data directory.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	eng, err := openEngine(dsn)
	if err != nil {
		return nil, err
	}
	return &Connector{eng: eng, ownsEngine: true}, nil
}

func openEngine(dsn string) (engine, error) {
	switch {
	case strings.HasPrefix(dsn, "http://"), strings.HasPrefix(dsn, "https://"):
		return newRemoteEngine(dsn)
	case dsn == "" || dsn == "mem:":
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			return nil, err
		}
		return &storeEngine{store: s, owned: true}, nil
	default:
		s, err := db2rdf.Open(db2rdf.Options{DataDir: dsn})
		if err != nil {
			return nil, err
		}
		return &storeEngine{store: s, owned: true}, nil
	}
}

// Connector shares one engine across a sql.DB's pooled connections.
// It implements io.Closer, which database/sql invokes from sql.DB.Close
// — that is where the underlying store shuts down.
type Connector struct {
	eng        engine
	ownsEngine bool
}

// NewConnector wraps an existing store the caller keeps owning —
// sql.OpenDB(NewConnector(store)) serves SQL alongside direct API use,
// and closing the sql.DB does NOT close the store.
func NewConnector(store *db2rdf.Store) *Connector {
	return &Connector{eng: &storeEngine{store: store}}
}

// OpenStore is the convenience form of NewConnector.
func OpenStore(store *db2rdf.Store) *sql.DB { return sql.OpenDB(NewConnector(store)) }

// Connect returns a connection over the shared engine.
func (c *Connector) Connect(context.Context) (driver.Conn, error) {
	return &sqlConn{eng: c.eng}, nil
}

// Driver returns the parent driver.
func (c *Connector) Driver() driver.Driver { return &Driver{} }

// Close shuts down the shared engine (called by sql.DB.Close).
func (c *Connector) Close() error {
	if !c.ownsEngine {
		return nil
	}
	return c.eng.close()
}

// sqlConn is one pooled connection: stateless apart from the shared
// engine, so pooling costs nothing.
type sqlConn struct {
	eng  engine
	owns *Connector // set only by Driver.Open (legacy single-conn path)
}

// Prepare wraps the SPARQL text; there is nothing to compile ahead of
// time at this layer (the store's plan cache memoizes by query text).
func (c *sqlConn) Prepare(query string) (driver.Stmt, error) {
	return &sqlStmt{conn: c, text: query}, nil
}

// Close releases the connection; the engine lives until the connector
// (or owning legacy conn) closes.
func (c *sqlConn) Close() error {
	if c.owns != nil {
		return c.owns.Close()
	}
	return nil
}

// Begin refuses transactions.
func (c *sqlConn) Begin() (driver.Tx, error) { return nil, ErrNoTransactions }

// QueryContext runs a SPARQL query.
func (c *sqlConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, ErrNoArgs
	}
	res, err := c.eng.query(ctx, query)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// ExecContext runs a SPARQL update.
func (c *sqlConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, ErrNoArgs
	}
	ins, del, err := c.eng.exec(ctx, query)
	if err != nil {
		return nil, err
	}
	return execResult{affected: int64(ins + del)}, nil
}

// sqlStmt adapts Prepare to the same two entry points.
type sqlStmt struct {
	conn *sqlConn
	text string
}

func (s *sqlStmt) Close() error  { return nil }
func (s *sqlStmt) NumInput() int { return 0 }

func (s *sqlStmt) Exec(args []driver.Value) (driver.Result, error) {
	if len(args) > 0 {
		return nil, ErrNoArgs
	}
	return s.conn.ExecContext(context.Background(), s.text, nil)
}

func (s *sqlStmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, ErrNoArgs
	}
	return s.conn.QueryContext(context.Background(), s.text, nil)
}

// execResult reports the number of triples touched by an update.
type execResult struct{ affected int64 }

func (r execResult) LastInsertId() (int64, error) {
	return 0, errors.New("db2rdf: no auto-generated IDs")
}
func (r execResult) RowsAffected() (int64, error) { return r.affected, nil }

// sqlRows streams a materialized result set to database/sql.
type sqlRows struct {
	cols []string
	rows [][]driver.Value
	next int
}

func newRows(res *db2rdf.Results) *sqlRows {
	if res.IsAsk {
		return &sqlRows{cols: []string{"ask"}, rows: [][]driver.Value{{res.Ask}}}
	}
	// Every row is a capped window of one slab.
	width := len(res.Vars)
	slab := make([]driver.Value, len(res.Rows)*width)
	out := &sqlRows{cols: res.Vars, rows: make([][]driver.Value, len(res.Rows))}
	for r, row := range res.Rows {
		vals := slab[r*width : (r+1)*width : (r+1)*width]
		for i := range vals {
			if i < len(row) && row[i].Bound {
				vals[i] = row[i].Term.String()
			}
		}
		out.rows[r] = vals
	}
	return out
}

func (r *sqlRows) Columns() []string { return r.cols }
func (r *sqlRows) Close() error      { return nil }

func (r *sqlRows) Next(dest []driver.Value) error {
	if r.next >= len(r.rows) {
		return io.EOF
	}
	copy(dest, r.rows[r.next])
	r.next++
	return nil
}

// engine abstracts where the SPARQL executes: in-process or remote.
type engine interface {
	query(ctx context.Context, q string) (*db2rdf.Results, error)
	exec(ctx context.Context, u string) (inserted, deleted int, err error)
	close() error
}

// storeEngine runs against an in-process store.
type storeEngine struct {
	store *db2rdf.Store
	owned bool // close the store with the engine (DSN-opened)
}

func (e *storeEngine) query(ctx context.Context, q string) (*db2rdf.Results, error) {
	return e.store.QueryContext(ctx, q)
}

func (e *storeEngine) exec(ctx context.Context, u string) (int, int, error) {
	res, err := e.store.UpdateContext(ctx, u)
	if err != nil {
		return 0, 0, err
	}
	return res.Inserted, res.Deleted, nil
}

func (e *storeEngine) close() error {
	if !e.owned {
		return nil
	}
	return e.store.Close()
}

var _ interface {
	driver.DriverContext
} = (*Driver)(nil)

var _ interface {
	driver.QueryerContext
	driver.ExecerContext
} = (*sqlConn)(nil)

var _ io.Closer = (*Connector)(nil)
