package rel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-style parallelism for the executor's inner loops. The probe
// side of every join kernel and the inputs of filters and projections
// are partitioned into contiguous chunks across worker goroutines above
// a row threshold; each worker appends to its own rowBuf and flatten
// copies the rowBufs out in chunk order, so parallel execution
// produces exactly the rows, in exactly the order, of the sequential
// loop. Mutable state (tickers, rowBufs, table readers) is per
// worker; compiled expressions are immutable and shared.

// defaultParallelThreshold is the minimum number of input rows before
// a loop fans out. Below it, goroutine startup dominates any win.
const defaultParallelThreshold = 4096

var (
	parWorkers   atomic.Int32 // 0 = GOMAXPROCS; 1 disables parallelism
	parThreshold atomic.Int32 // 0 = defaultParallelThreshold
)

// SetParallelism configures executor parallelism. workers is the
// maximum worker count (0 restores the default of GOMAXPROCS, 1 forces
// sequential execution); threshold is the minimum input rows before a
// loop fans out (0 restores the default). Safe to call concurrently
// with running queries; tests use it to force the parallel kernels on
// (workers > 1, threshold 1) and off (workers 1).
func SetParallelism(workers, threshold int) {
	parWorkers.Store(int32(workers))
	parThreshold.Store(int32(threshold))
}

// planWorkers returns the number of workers to fan n rows across.
func planWorkers(n int) int {
	th := int(parThreshold.Load())
	if th <= 0 {
		th = defaultParallelThreshold
	}
	if n < th {
		return 1
	}
	w := int(parWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// parallelChunks partitions [0, n) into w contiguous ranges and runs
// fn(chunk, lo, hi) for each on its own goroutine (inline when w <= 1).
// The first non-nil error (by chunk order) is returned. A panic inside
// a chunk — worker goroutine or inline — is contained by runChunk and
// surfaces as that chunk's error, so one bad row cannot take the
// process down or strand sibling workers: every worker always reaches
// wg.Done.
func parallelChunks(n, w int, fn func(chunk, lo, hi int) error) error {
	if w <= 1 {
		return runChunk(fn, 0, 0, n)
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	lo := 0
	for c := 0; c < w; c++ {
		hi := lo + n/w
		if c < n%w {
			hi++
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = runChunk(fn, c, lo, hi)
		}(c, lo, hi)
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runChunk runs one chunk with panic containment: a panic becomes a
// *PanicError.
func runChunk(fn func(chunk, lo, hi int) error, c, lo, hi int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = NewPanicError(p)
		}
	}()
	return fn(c, lo, hi)
}

// rowBuf is one morsel worker's scratch: blocks of cells an operator
// appends whole rows to, never copied as they grow. An execution's
// operators run one at a time and share its rowBufs, and flatten copies
// each operator's rows out once.
type rowBuf struct {
	width, n int
	blocks   [][]Cell // each block's length is the cells in use
	cur      int      // the block rows are appended to
}

// workBufs returns w empty rowBufs, one per morsel worker.
func (ex *exec) workBufs(w, width int) []rowBuf {
	for len(ex.bufs) < w {
		ex.bufs = append(ex.bufs, rowBuf{})
	}
	for i := range ex.bufs[:w] {
		b := &ex.bufs[i]
		b.width, b.n, b.cur = width, 0, 0
		for j := range b.blocks {
			b.blocks[j] = b.blocks[j][:0]
		}
	}
	return ex.bufs[:w]
}

// grow appends k rows and returns their cells, which the caller fills.
// A new block at least doubles the last.
func (b *rowBuf) grow(k int) []Cell {
	need := k * b.width
	b.n += k
	for ; b.cur < len(b.blocks); b.cur++ {
		if blk := b.blocks[b.cur]; len(blk)+need <= cap(blk) {
			b.blocks[b.cur] = blk[:len(blk)+need]
			return b.blocks[b.cur][len(blk):]
		}
	}
	size := 64
	if len(b.blocks) > 0 {
		size = 2 * cap(b.blocks[len(b.blocks)-1])
	}
	b.blocks = append(b.blocks, make([]Cell, need, max(need, size)))
	return b.blocks[b.cur]
}

// push appends l and r, in that order, as one row and returns it.
func (b *rowBuf) push(l, r Row) Row {
	row := b.grow(1)
	copy(row[copy(row, l):], r)
	return row
}

// pop drops the last row.
func (b *rowBuf) pop() {
	b.n--
	b.blocks[b.cur] = b.blocks[b.cur][:len(b.blocks[b.cur])-b.width]
}

// flatten copies the rows of bufs, in order, into one exact slab.
func flatten(width int, bufs []rowBuf) batch {
	out := batch{width: width}
	for _, b := range bufs {
		out.n += b.n
	}
	out.cells = make([]Cell, 0, out.n*width)
	for _, b := range bufs {
		for _, blk := range b.blocks {
			out.cells = append(out.cells, blk...)
		}
	}
	return out
}
