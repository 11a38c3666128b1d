package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"db2rdf/internal/binenc"
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/wal"
)

// Durability (DESIGN.md §9). The PR 7 publish discipline makes the
// store's commit points explicit: every content change is exactly one
// publishLocked, which bumps the epoch and swaps in an immutable
// snapshot. The durability layer hooks that point — the epoch's triple
// deltas are appended to the WAL (and optionally fsynced) BEFORE the
// snapshot pointer swap makes the state visible, so the invariant
// "visible ⇒ logged" holds for every published epoch. Epoch-aligned
// snapshot files serialize the columnar state from a frozen *Snapshot
// in a background goroutine, so snapshotting never blocks readers or
// writers; after a snapshot lands, the WAL rotates to a new segment
// and obsolete files are retired (the newest two snapshots are
// retained, so a corrupt newest snapshot still recovers from the older
// one plus its WAL suffix).
//
// Recovery loads the newest snapshot whose whole-file CRC32C and
// structure validate, builds the hash indexes over the decoded
// relations, derives the rest (spill/multi markers, entity and triple
// counts) from them with deriveLocked, and replays the WAL suffix
// through the bulk loader and the ordinary delete machinery. Replay
// consumes whole batches only (a batch = one published epoch,
// terminated by a commit marker) and requires epochs to be contiguous,
// so a torn tail, a flipped bit, or a truncation at any byte offset
// lands the store on some previously published epoch — never a partial
// state. The log is then repaired in place (truncated at the last committed boundary, later
// segments removed) so post-recovery appends continue consistently.

// Durability configures the optional persistence layer. The zero value
// disables it entirely: no deltas are captured and publish costs
// nothing extra.
type Durability struct {
	// Dir is the data directory for WAL segments and snapshot files.
	// Empty disables durability.
	Dir string
	// Fsync forces an fsync of the WAL segment on every publish. Off,
	// the OS page cache decides when batches reach disk: a process
	// crash loses nothing, a machine crash may lose recent epochs (but
	// never atomicity).
	Fsync bool
	// SnapshotEvery writes a background snapshot every n epochs; 0
	// means snapshots are written only on Close.
	SnapshotEvery int
}

// walDelta is one captured mutation, held as dictionary ids until the
// publish encodes them to terms (the dictionary is append-only, so the
// ids stay decodable).
type walDelta struct {
	op      wal.Op
	s, p, o int64
}

// FsyncBuckets are the upper bounds (seconds) of the WAL fsync
// latency histogram; a final +Inf bucket follows implicitly.
var FsyncBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1}

// durMetrics holds the durability counters (atomics: read lock-free by
// the metrics endpoint while writers append).
type durMetrics struct {
	walAppends   atomic.Uint64
	walBytes     atomic.Int64
	fsyncCount   atomic.Uint64
	fsyncNanos   atomic.Int64
	fsyncHist    [6]atomic.Uint64 // len(FsyncBuckets)+1
	snapWrites   atomic.Uint64
	snapErrors   atomic.Uint64
	snapNanos    atomic.Int64
	truncated    atomic.Uint64
	recoverNanos atomic.Int64
	replayRecs   atomic.Uint64
}

// DurabilityStats is a point-in-time copy of the durability counters.
type DurabilityStats struct {
	Enabled                  bool
	WALAppends               uint64
	WALBytes                 int64
	FsyncCount               uint64
	FsyncSeconds             float64
	FsyncHist                [6]uint64 // cumulative-style raw bucket counts (per FsyncBuckets + Inf)
	SnapshotWrites           uint64
	SnapshotErrors           uint64
	SnapshotWriteSeconds     float64
	RecoveryTruncatedRecords uint64
	RecoverSeconds           float64
	ReplayedRecords          uint64
	LastSnapshotEpoch        uint64
}

// durableState is the store's durability runtime: the open WAL
// segment, the deltas pending for the next publish, and the background
// snapshot coordination. All fields except the atomics are guarded by
// the store write lock.
type durableState struct {
	dir   string
	fsync bool
	every int

	log     *wal.Log
	pending []walDelta

	lastSnapEpoch atomic.Uint64
	snapInFlight  atomic.Bool
	doneMu        sync.Mutex
	doneEpoch     uint64 // completed background snapshot awaiting WAL rotation
	wg            sync.WaitGroup
	closed        bool

	met durMetrics
}

// DurabilityStats returns the durability counters (zero when the store
// runs without a data directory).
func (s *Store) DurabilityStats() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{}
	}
	st := DurabilityStats{
		Enabled:                  true,
		WALAppends:               d.met.walAppends.Load(),
		WALBytes:                 d.met.walBytes.Load(),
		FsyncCount:               d.met.fsyncCount.Load(),
		FsyncSeconds:             float64(d.met.fsyncNanos.Load()) / 1e9,
		SnapshotWrites:           d.met.snapWrites.Load(),
		SnapshotErrors:           d.met.snapErrors.Load(),
		SnapshotWriteSeconds:     float64(d.met.snapNanos.Load()) / 1e9,
		RecoveryTruncatedRecords: d.met.truncated.Load(),
		RecoverSeconds:           float64(d.met.recoverNanos.Load()) / 1e9,
		ReplayedRecords:          d.met.replayRecs.Load(),
		LastSnapshotEpoch:        d.lastSnapEpoch.Load(),
	}
	for i := range st.FsyncHist {
		st.FsyncHist[i] = d.met.fsyncHist[i].Load()
	}
	return st
}

// logDelta captures one mutation for the next WAL batch. Caller holds
// the store write lock; in a bulk load only the direct side logs.
func (s *Store) logDelta(op wal.Op, sid, pid, oid int64) {
	if d := s.dur; d != nil {
		d.pending = append(d.pending, walDelta{op: op, s: sid, p: pid, o: oid})
	}
}

// walCommitLocked appends the pending deltas plus a commit marker for
// epoch as one batch, fsyncing when configured. It runs BEFORE the
// snapshot swap in publishLocked: a state must be logged before it can
// become visible.
func (s *Store) walCommitLocked(epoch uint64) error {
	d := s.dur
	if len(d.pending) == 0 {
		return nil
	}
	recs := make([]wal.Record, len(d.pending))
	for i, del := range d.pending {
		recs[i] = wal.Record{Op: del.op}
		if del.op == wal.OpInsert || del.op == wal.OpDelete {
			var err error
			if recs[i].S, err = s.Dict.Decode(del.s); err != nil {
				return fmt.Errorf("store: wal encode: %w", err)
			}
			if recs[i].P, err = s.Dict.Decode(del.p); err != nil {
				return fmt.Errorf("store: wal encode: %w", err)
			}
			if recs[i].O, err = s.Dict.Decode(del.o); err != nil {
				return fmt.Errorf("store: wal encode: %w", err)
			}
		}
	}
	d.pending = d.pending[:0]
	n, fsyncDur, err := d.log.AppendBatch(recs, epoch)
	d.met.walAppends.Add(1)
	d.met.walBytes.Add(n)
	if d.fsync {
		d.met.fsyncCount.Add(1)
		d.met.fsyncNanos.Add(int64(fsyncDur))
		sec := fsyncDur.Seconds()
		bi := len(FsyncBuckets)
		for i, ub := range FsyncBuckets {
			if sec <= ub {
				bi = i
				break
			}
		}
		d.met.fsyncHist[bi].Add(1)
	}
	if err != nil {
		return fmt.Errorf("store: wal append (epoch %d): %w", epoch, err)
	}
	return nil
}

// maybeSnapshotLocked finishes a completed background snapshot (WAL
// rotation + file retirement) and starts a new one when the epoch
// interval has elapsed. Caller holds the store write lock.
func (s *Store) maybeSnapshotLocked(epoch uint64) {
	d := s.dur
	d.doneMu.Lock()
	done := d.doneEpoch
	d.doneEpoch = 0
	d.doneMu.Unlock()
	if done != 0 {
		s.rotateLocked(epoch)
	}
	if d.every <= 0 || epoch-d.lastSnapEpoch.Load() < uint64(d.every) {
		return
	}
	if !d.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	sn := s.snap.Load()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		err := s.writeSnapshot(sn)
		if err == nil {
			d.doneMu.Lock()
			d.doneEpoch = sn.Epoch()
			d.doneMu.Unlock()
		}
		d.snapInFlight.Store(false)
	}()
}

// rotateLocked closes the current WAL segment and opens a fresh one
// based at the current epoch (every batch in the old segment has epoch
// ≤ the new base), then retires files made obsolete by the snapshot.
func (s *Store) rotateLocked(epoch uint64) {
	d := s.dur
	nl, err := wal.OpenSegment(filepath.Join(d.dir, wal.SegmentName(epoch)), d.fsync)
	if err != nil {
		return // keep appending to the old segment; retry after the next snapshot
	}
	_ = d.log.Close()
	d.log = nl
	s.cleanupLocked()
}

// cleanupLocked retires obsolete files: all but the newest two
// snapshots, and every WAL segment whose batches are all covered by
// the OLDER retained snapshot (a segment's batches all have epoch ≤
// the next segment's base). Keeping two snapshots plus that WAL suffix
// makes recovery single-fault tolerant: if the newest snapshot file is
// corrupt, the older one plus the retained segments still reach the
// same epochs.
func (s *Store) cleanupLocked() {
	d := s.dur
	snaps, err := listSnapshots(d.dir)
	if err != nil {
		return
	}
	for len(snaps) > 2 {
		_ = os.Remove(snaps[0].path)
		snaps = snaps[1:]
	}
	if len(snaps) < 2 {
		return // one snapshot only: keep the full WAL as its fallback
	}
	older := snaps[len(snaps)-2].epoch
	segs, err := wal.ListSegments(d.dir)
	if err != nil {
		return
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].Base <= older {
			_ = os.Remove(segs[i].Path)
		}
	}
}

// Close flushes and closes the durability layer: waits for any
// in-flight background snapshot, writes a final snapshot when the
// published epoch is newer than the last on disk, retires obsolete
// files and closes the WAL. A store without durability returns nil
// immediately. Close is idempotent; writers after Close keep mutating
// memory but their publishes return an error.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.dur.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	if sn := s.snap.Load(); sn != nil && sn.Epoch() > d.lastSnapEpoch.Load() {
		if err := s.writeSnapshot(sn); err != nil {
			firstErr = err
		}
	}
	s.cleanupLocked()
	if err := d.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ---------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------

// snapMagic heads every snapshot file; a version bump changes it.
const snapMagic = "D2RSNAP2" // v2: marker-tagged (packed/dense) chunk payloads in table sections

func snapName(epoch uint64) string { return fmt.Sprintf("snap-%020d.snap", epoch) }

type snapInfo struct {
	path  string
	epoch uint64
}

// listSnapshots returns the snapshot files in dir ordered by epoch.
func listSnapshots(dir string) ([]snapInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		var epoch uint64
		if _, err := fmt.Sscanf(name, "snap-%020d.snap", &epoch); err != nil {
			continue
		}
		snaps = append(snaps, snapInfo{path: filepath.Join(dir, name), epoch: epoch})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].epoch < snaps[j].epoch })
	return snaps, nil
}

// writeSnapshot serializes the frozen snapshot sn (plus the dictionary
// and config header) and writes it atomically as snap-<epoch>.snap:
// temp file, fsync, rename, directory fsync. Safe off the store lock —
// sn's tables are immutable and the dictionary is append-only.
func (s *Store) writeSnapshot(sn *Snapshot) error {
	d := s.dur
	start := time.Now()
	if err := writeFileAtomic(d.dir, snapName(sn.Epoch()), s.encodeSnapshotFile(sn)); err != nil {
		d.met.snapErrors.Add(1)
		return fmt.Errorf("store: snapshot (epoch %d): %w", sn.Epoch(), err)
	}
	d.met.snapWrites.Add(1)
	d.met.snapNanos.Add(int64(time.Since(start)))
	d.lastSnapEpoch.Store(sn.Epoch())
	return nil
}

func (s *Store) encodeSnapshotFile(sn *Snapshot) []byte {
	buf := []byte(snapMagic)
	buf = binary.LittleEndian.AppendUint64(buf, sn.Epoch())
	buf = binary.AppendUvarint(buf, uint64(s.Opts.K))
	buf = binary.AppendUvarint(buf, uint64(s.Opts.KReverse))
	terms := s.Dict.SnapshotState()
	buf = binary.AppendUvarint(buf, uint64(len(terms)))
	for _, t := range terms {
		k := t.Key()
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	buf = binary.AppendUvarint(buf, uint64(sn.nextLid-dict.LidBase))
	for _, t := range sn.tables() {
		blob := t.EncodeSnapshot(nil)
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	crc := crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// writeFileAtomic writes data to dir/name via a temp file + rename so
// a crash mid-write never leaves a half-written file under the final
// name, and fsyncs both file and directory.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if df, err := os.Open(dir); err == nil {
		_ = df.Sync()
		_ = df.Close()
	}
	return nil
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

// openDurableLocked brings the store up from the data directory:
// newest valid snapshot, WAL replay, log repair, and the open append
// segment. Called from New with the write lock held, before the dur
// handle is installed (so replay's inserts/deletes don't re-log).
func (s *Store) openDurableLocked(opts Durability) error {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	snapEpoch, err := s.loadNewestSnapshotLocked(opts.Dir)
	if err != nil {
		return err
	}
	if snapEpoch > 0 {
		s.epoch.Store(snapEpoch)
	} else {
		// Base state: the empty store at epoch 1 (what New's initial
		// publish establishes), so WAL batches start at epoch 2.
		s.epoch.Store(1)
	}
	replayed, truncated, lastSegPath, err := s.replayWALLocked(opts.Dir)
	if err != nil {
		return err
	}
	s.installLocked(s.epoch.Load())
	if lastSegPath == "" {
		lastSegPath = filepath.Join(opts.Dir, wal.SegmentName(s.epoch.Load()))
	}
	log, err := wal.OpenSegment(lastSegPath, opts.Fsync)
	if err != nil {
		return err
	}
	d := &durableState{dir: opts.Dir, fsync: opts.Fsync, every: opts.SnapshotEvery, log: log}
	d.lastSnapEpoch.Store(snapEpoch)
	d.met.truncated.Store(truncated)
	d.met.replayRecs.Store(replayed)
	d.met.recoverNanos.Store(int64(time.Since(start)))
	s.dur = d
	return nil
}

// loadNewestSnapshotLocked tries snapshot files newest-first, fully
// validating each (whole-file CRC32C plus structural decode) before
// installing it, and returns the epoch of the one installed (0 when
// none). Invalid files are deleted so the retention accounting stays
// truthful; a CRC-valid file whose config disagrees with the store
// options is a hard error, not corruption.
func (s *Store) loadNewestSnapshotLocked(dir string) (uint64, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		ok, err := s.tryLoadSnapshotLocked(snaps[i])
		if err != nil {
			return 0, err
		}
		if ok {
			return snaps[i].epoch, nil
		}
		s.resetContentLocked()
		_ = os.Remove(snaps[i].path)
	}
	return 0, nil
}

// tryLoadSnapshotLocked validates and installs one snapshot file.
// Returns (false, nil) for corruption (caller falls back), and a
// non-nil error only for environmental problems or config mismatch.
func (s *Store) tryLoadSnapshotLocked(si snapInfo) (bool, error) {
	data, err := os.ReadFile(si.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(data) < len(snapMagic)+8+4 || string(data[:len(snapMagic)]) != snapMagic {
		return false, nil
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(tail) {
		return false, nil
	}
	c := binenc.NewReader(body[len(snapMagic):])
	epoch := c.U64()
	k := c.Uvarint()
	kRev := c.Uvarint()
	if c.Err() != nil || epoch != si.epoch {
		return false, nil
	}
	if k != uint64(s.Opts.K) || kRev != uint64(s.Opts.KReverse) {
		return false, fmt.Errorf("store: snapshot %s was written with K=%d/KReverse=%d; store opened with K=%d/KReverse=%d",
			filepath.Base(si.path), k, kRev, s.Opts.K, s.Opts.KReverse)
	}
	nterms := c.Uvarint()
	if nterms > uint64(c.Remaining()) {
		return false, nil
	}
	terms := make([]rdf.Term, 0, nterms)
	for i := uint64(0); i < nterms && c.Err() == nil; i++ {
		kl := c.Uvarint()
		if kl > uint64(c.Remaining()) {
			return false, nil
		}
		t, terr := rdf.TermFromKey(string(c.Bytes(int(kl))))
		if terr != nil {
			return false, nil
		}
		terms = append(terms, t)
	}
	// The lid field is above every stored lid; both sides mint on from
	// it.
	nextLid := int64(c.Uvarint()) + dict.LidBase
	if c.Err() != nil || nextLid < dict.LidBase {
		return false, nil
	}
	if err := s.Dict.Restore(terms); err != nil {
		return false, nil
	}
	for _, d := range s.sides() {
		d.restartLids(nextLid)
	}
	for _, t := range s.tables() {
		bl := c.Uvarint()
		if c.Err() != nil || bl > uint64(c.Remaining()) {
			return false, nil
		}
		if err := t.DecodeSnapshot(c.Bytes(int(bl))); err != nil {
			return false, nil
		}
	}
	if c.Err() != nil || c.Remaining() != 0 {
		return false, nil
	}
	for _, d := range s.sides() {
		if err := d.createIndexes(); err != nil {
			return false, err
		}
	}
	if err := s.deriveLocked(); err != nil {
		return false, nil // structurally inconsistent content: treat as corrupt
	}
	return true, nil
}

// resetContentLocked returns the store to empty after a failed
// snapshot install so the next candidate decodes into clean tables.
func (s *Store) resetContentLocked() {
	for _, t := range s.tables() {
		t.Clear()
	}
	for _, d := range s.sides() {
		d.resetState()
		d.restartLids(dict.LidBase)
	}
	s.triples = 0
	_ = s.Dict.Restore(nil)
}

// replayWALLocked replays committed WAL batches with epochs after the
// recovered snapshot, in segment order, requiring epoch contiguity.
// The first torn record, checksum failure, or epoch gap ends replay;
// the log is repaired there (the segment truncated at the last
// consumed batch boundary, later segments removed). Returns the number
// of replayed records, the number of discarded (truncated) records,
// and the path of the last retained segment ("" when none).
func (s *Store) replayWALLocked(dir string) (replayed, truncated uint64, lastSegPath string, err error) {
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return 0, 0, "", err
	}
	cur := s.epoch.Load()
	stopSeg, stopOff := -1, int64(0)
	// Inserts accumulate across records and batches and go through the
	// bulk loader (load.go) in one run; a delete or clear first flushes
	// the run, preserving operation order. Epochs still advance batch
	// by batch.
	var pending []rdf.Triple
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		_, err := s.bulkLoadLocked(pending)
		pending = pending[:0]
		return err
	}
	for si, seg := range segs {
		data, rerr := os.ReadFile(seg.Path)
		if rerr != nil {
			return replayed, truncated, "", rerr
		}
		batches, valid, disc := wal.ReadSegment(data)
		var consumed int64
		stopped := false
		for bi, b := range batches {
			if b.Epoch <= cur {
				consumed = b.End
				continue
			}
			if b.Epoch != cur+1 {
				for _, rb := range batches[bi:] {
					truncated += uint64(len(rb.Recs))
				}
				stopped = true
				break
			}
			for _, r := range b.Recs {
				if r.Op == wal.OpInsert {
					pending = append(pending, rdf.Triple{S: r.S, P: r.P, O: r.O})
					continue
				}
				if aerr := flush(); aerr != nil {
					return replayed, truncated, "", aerr
				}
				if aerr := s.applyLocked(r); aerr != nil {
					return replayed, truncated, "", aerr
				}
			}
			replayed += uint64(len(b.Recs))
			cur++
			consumed = b.End
		}
		if !stopped && valid < int64(len(data)) {
			truncated += uint64(disc)
			stopped = true
		}
		if stopped {
			stopSeg, stopOff = si, consumed
			// Everything in later segments is unreachable once this
			// one stops; count it as discarded.
			for _, later := range segs[si+1:] {
				if ld, lerr := os.ReadFile(later.Path); lerr == nil {
					lb, _, ldisc := wal.ReadSegment(ld)
					truncated += uint64(ldisc)
					for _, rb := range lb {
						truncated += uint64(len(rb.Recs))
					}
				}
			}
			break
		}
	}
	if ferr := flush(); ferr != nil {
		return replayed, truncated, "", ferr
	}
	s.epoch.Store(cur)
	if stopSeg >= 0 {
		if terr := os.Truncate(segs[stopSeg].Path, stopOff); terr != nil {
			return replayed, truncated, "", terr
		}
		for _, seg := range segs[stopSeg+1:] {
			if rerr := os.Remove(seg.Path); rerr != nil {
				return replayed, truncated, "", rerr
			}
		}
		segs = segs[:stopSeg+1]
	}
	return replayed, truncated, segs[len(segs)-1].Path, nil
}

// applyLocked replays one committed delete or clear. The dur handle
// is not yet installed, so nothing is re-logged.
func (s *Store) applyLocked(r wal.Record) error {
	switch r.Op {
	case wal.OpDelete:
		_, err := s.deleteLocked(rdf.Triple{S: r.S, P: r.P, O: r.O})
		return err
	case wal.OpClear:
		s.ClearLocked()
		return nil
	}
	return fmt.Errorf("store: wal replay: unexpected op %d", r.Op)
}
