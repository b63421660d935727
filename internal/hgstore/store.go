package hgstore

// The on-disk container. One file holds the whole store:
//
//	file   = "HGCS" version(uvarint) filekind(byte 'S')
//	         record*                                     until EOF
//	record = code(u64 raw) cfg(u64 raw) addr binary(bool)
//	         lifter-version(string)
//	         payload(length-prefixed bytes) checksum(u64 raw)
//
// checksum is the content hash of the payload bytes; a record whose
// checksum does not match — bit corruption — is dropped, as is a
// truncated tail (a writer that died mid-append), as are records stamped
// with a different LifterVersion. Every drop is a future miss, never an
// error: the store is a cache, and its failure mode is re-lifting.
//
// A flush appends. Under an advisory flock on the <path>.lock sidecar it
// reads only the bytes other writers appended since this handle last
// looked (their records join memory, so no writer drops another's
// entries), truncates a torn tail, appends the records Put since the
// last flush, and fsyncs before it releases the lock. A flush therefore
// costs what it adds, not the size of the container, and Open, which
// reads under the same lock, never sees a live writer's half-appended
// record. Concurrency is handled at two levels:
//
//   - in-process, the store mutex serialises the N pipeline workers that
//     Put concurrently under -jobs N;
//   - cross-process, the flock serialises every read and write of the
//     container, across handles of one process too.
//
// Putting a key again appends a new record and leaves the old one dead.
// Compaction rewrites the container with one record per live key, in
// first-insertion order, through a uniquely named temp file in the same
// directory (os.CreateTemp, so two writers can never collide on one tmp
// path) that is fsynced and renamed over the container. Open compacts
// when dead records outnumber live ones. A handle that has seen a defect
// (a record dropped for its checksum or lifter version, or a file that is
// not a current store container) compacts on its next flush instead of
// appending, so a flush leaves nothing for a reopen to drop. A handle
// remembers the identity of the file it read and the offset just past its
// last complete record: when another handle has since compacted, the path
// names a new file, and the flush rescans it from the start instead of
// writing at a stale offset. Compaction keeps the file mode of the
// container it replaces, so the mode does not depend on which path wrote
// last.
//
// A crash between CreateTemp and Rename strands a tmp file; Open sweeps
// leftovers (safe under the same lock: a live writer holds it for its
// whole create-to-rename window, so any tmp visible while the lock is
// held is orphaned), and a failed Rename removes its own tmp.
//
// By default every Put flushes. Long-running writers (the hgserved
// daemon) switch to buffered mode with SetAutoFlush(false) and call Flush
// on their own cadence: the deferred append is exactly as safe, it just
// widens the window a crash can lose (a cache's failure mode: re-lifting).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/image"
	"repro/internal/wire"
)

// Magic and Version identify the HGCS container. Version 2 introduced the
// graph record's tree and forest tables (internal/hoare/wire.go); a
// container of another version is dropped whole and rewritten by the
// first flush.
const (
	Magic   = "HGCS"
	Version = 2
)

// lockSuffix names the sidecar lock file and tmpMid the unique temp files
// a compaction writes ("<path>.tmp-<random>"); the sweep in Open matches
// the shared "<path>.tmp" prefix, which also covers the fixed "<path>.tmp"
// name older writers used.
const (
	lockSuffix = ".lock"
	tmpMid     = ".tmp-"
)

// File kinds: a store container holds keyed records, a graph file one
// standalone Hoare graph (see graphfile.go).
const (
	fileKindStore = 'S'
	fileKindGraph = 'G'
)

// record is one stored entry: the payload kept encoded until a Lookup
// needs it (decode restores interned pointers against the reader's
// image, so decoding eagerly at open would pin the wrong image).
type record struct {
	payload []byte
	pending bool // Put since the last flush: the next flush appends it
}

// Store is the content-addressed Hoare-graph cache. All methods are safe
// for concurrent use, including against other *Store handles (same or
// other processes) sharing the file.
type Store struct {
	mu        sync.Mutex
	path      string
	recs      map[Key]*record
	order     []Key // insertion order of first sight, for stable files
	pending   []Key // keys Put since the last flush, in Put order
	dropped   int
	autoFlush bool // false = buffered: Puts stay in memory until Flush
	// The container as this handle last read or wrote it: the file's
	// identity and the offset just past its last complete record, where
	// the next append goes.
	file os.FileInfo
	end  int64
	// compact makes the next flush rewrite the container: the handle has
	// seen a defect a flush must not leave behind.
	compact bool
}

// Open creates or resumes the store at path: a missing file is an empty
// store, an existing one is loaded with corrupt, truncated, or
// version-skewed records dropped (Dropped counts them). Only real I/O
// errors reading the file are returned. Open takes the cross-process lock
// for the read, so it also sweeps any tmp files a crashed writer stranded
// in the directory, and it compacts the container when dead records
// outnumber live ones. A failed compaction is left to the next flush,
// which retries it and reports the error: a reader needs no writable
// container.
func Open(path string) (*Store, error) {
	s := &Store{path: path, recs: map[Key]*record{}, autoFlush: true}
	lock, err := acquireFileLock(path)
	if err != nil {
		return nil, err
	}
	defer lock.release()
	s.sweepStaleTmps()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("hgstore: open: %w", err)
	}
	defer f.Close()
	records, _, err := s.readTail(f, false)
	if err != nil {
		return nil, fmt.Errorf("hgstore: open: %w", err)
	}
	if dead := records - len(s.recs); dead > len(s.recs) {
		if s.rewrite() != nil {
			s.compact = true
		}
	}
	return s, nil
}

// sweepStaleTmps removes orphaned temp files next to the store. Callers
// hold the file lock: a live writer keeps the lock across its whole
// create-to-rename window, so every "<base>.tmp*" entry visible now was
// stranded by a crash (or by the pre-lock fixed-name writers) and will
// never be renamed.
func (s *Store) sweepStaleTmps() {
	dir, base := filepath.Split(s.path)
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return // a missing directory has no strays; Open surfaces real errors
	}
	for _, ent := range ents {
		name := ent.Name()
		if name == base+".tmp" || strings.HasPrefix(name, base+tmpMid) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// readTail reads and scans what the open container holds past this
// handle's last look: the bytes from s.end on when f is the file the
// handle read before, otherwise (another handle compacted it, or it
// shrank) the whole file. It returns the number of complete records it
// read and the file's size. Callers hold the file lock.
func (s *Store) readTail(f *os.File, merge bool) (records int, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size = fi.Size()
	from := s.end
	if s.file == nil || !os.SameFile(fi, s.file) || size < from {
		from = 0
	}
	data := make([]byte, size-from)
	if n, err := f.ReadAt(data, from); n < len(data) {
		return 0, 0, err
	}
	s.file = fi
	return s.scan(data, from, merge), size, nil
}

// scan parses container bytes that start at file offset base (0: the
// whole file, header included), tolerating every content defect, and
// returns the number of complete records it read. It moves s.end past
// the last complete record, so a torn tail is left beyond s.end for the
// next flush to truncate, and it sets s.compact on any other defect. In
// load mode (merge false) usable records replace in-memory ones and every
// defect counts toward Dropped. In merge mode — a flush reading what
// other writers appended — records only fill keys memory does not hold:
// keys are content-addressed, so an entry present in both places carries
// the same outcome and the in-memory copy wins; defects are not counted,
// since the flush is about to compact them away.
func (s *Store) scan(data []byte, base int64, merge bool) (records int) {
	d := wire.NewDecoder(data)
	if base == 0 {
		s.end = 0
		if string(d.Bytes(uint64(len(Magic)), "magic")) != Magic ||
			d.Uvarint("container version") != Version ||
			d.Byte("file kind") != fileKindStore {
			// Wrong magic, another container version, or a graph file
			// where a store was expected: everything it holds is
			// unusable — treat the whole file as dropped. The next flush
			// rewrites it.
			if !merge {
				s.dropped++
			}
			s.compact = true
			return 0
		}
		s.end = int64(d.Pos())
	}
	for len(d.Rest()) > 0 {
		var k Key
		k.Code = d.Uint64("record code hash")
		k.Cfg = d.Uint64("record config fingerprint")
		k.Addr = d.Uvarint("record address")
		k.Binary = decodeBool(d, "record binary")
		version := d.Bytes(d.Uvarint("record lifter version length"), "record lifter version")
		// The payload aliases data, which readTail allocated for this scan
		// and nothing else holds.
		payload := d.Bytes(d.Uvarint("record payload length"), "record payload")
		sum := d.Uint64("record checksum")
		if d.Err() != nil {
			// Truncated or malformed tail: drop it and everything after;
			// the next flush cuts it off.
			if !merge {
				s.dropped++
			}
			return records
		}
		records++
		s.end = base + int64(d.Pos())
		if sum != hashBytes(hashSeed, payload) || string(version) != LifterVersion {
			if !merge {
				s.dropped++
			}
			s.compact = true
			continue
		}
		if _, ok := s.recs[k]; ok {
			if merge {
				continue
			}
		} else {
			s.order = append(s.order, k)
		}
		s.recs[k] = &record{payload: payload}
	}
	return records
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of usable entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Bytes returns the total encoded payload size of the usable entries.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, r := range s.recs {
		n += int64(len(r.payload))
	}
	return n
}

// Dropped counts records discarded on open: corrupt, truncated, or
// stamped with another lifter version.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SetAutoFlush selects between write-through Puts (true, the default:
// every Put appends to the container and fsyncs, the CLI batch behaviour)
// and buffered mode (false: Puts stay in memory until Flush — the
// long-running daemon behaviour, where an fsync per cached lift would sit
// on the hot path). Buffered entries survive only until a crash; that is
// the cache's stated failure mode, re-lifting.
func (s *Store) SetAutoFlush(auto bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoFlush = auto
}

// Flush persists buffered entries: a no-op when nothing was Put since the
// last flush, otherwise one locked append (or compaction). Callers in
// buffered mode own the cadence (periodic, end-of-batch, shutdown).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	return s.flushLocked()
}

// Lookup decodes the entry for key against img. A usable entry returns
// (entry, payload size, decode wall time, ""); every other outcome is a
// miss with a reason — "absent", "stale" (dependency code bytes changed),
// or "corrupt" (the payload fails structural decode despite its checksum,
// e.g. the image cannot satisfy an instruction fetch). Misses never
// return an error.
func (s *Store) Lookup(key Key, img *image.Image) (*Entry, int, time.Duration, string) {
	s.mu.Lock()
	r := s.recs[key]
	s.mu.Unlock()
	if r == nil {
		return nil, 0, 0, "absent"
	}
	start := time.Now()
	e, err := decodePayload(wire.NewDecoder(r.payload), img)
	switch {
	case errors.Is(err, ErrStale):
		return nil, 0, 0, "stale"
	case err != nil:
		return nil, 0, 0, "corrupt"
	}
	return e, len(r.payload), time.Since(start), ""
}

// Put seals, encodes and persists one entry, replacing any previous
// record under the same key, and returns the encoded payload size. The
// write appends to the container under the store mutex and the
// cross-process file lock (see the file comment), so concurrent Puts from
// -jobs N workers and from other processes sharing the store interleave
// safely. Sealing mutates the entry, so one *Entry must not be passed to
// concurrent Puts — each lift produces its own. In buffered mode
// (SetAutoFlush(false)) the entry only reaches disk at the next Flush.
// Callers decide storability (see Storable) before putting.
func (s *Store) Put(key Key, e *Entry, img *image.Image) (int, error) {
	if err := e.Seal(img); err != nil {
		return 0, err
	}
	payload := e.appendPayload(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.recs[key]
	if old == nil {
		s.order = append(s.order, key)
	}
	if old == nil || !old.pending {
		s.pending = append(s.pending, key)
	}
	s.recs[key] = &record{payload: payload, pending: true}
	if !s.autoFlush {
		return len(payload), nil
	}
	return len(payload), s.flushLocked()
}

// flushLocked persists the pending records under the cross-process file
// lock: it reads what other writers appended since this handle last
// looked, then appends the pending records after the last complete record
// (cutting off a torn tail) and fsyncs. When the handle has seen a defect,
// or the container is missing, it compacts instead.
func (s *Store) flushLocked() error {
	lock, err := acquireFileLock(s.path)
	if err != nil {
		return err
	}
	defer lock.release()
	f, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return s.rewrite()
	}
	if err != nil {
		return fmt.Errorf("hgstore: flush: %w", err)
	}
	err = s.appendTo(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("hgstore: flush: %w", cerr)
	}
	return err
}

// appendTo is flushLocked's work on the open container.
func (s *Store) appendTo(f *os.File) error {
	_, size, err := s.readTail(f, true)
	if err != nil {
		return fmt.Errorf("hgstore: flush read-back: %w", err)
	}
	if s.compact {
		return s.rewrite()
	}
	var buf []byte
	for _, k := range s.pending {
		buf = appendRecord(buf, k, s.recs[k].payload)
	}
	if size > s.end {
		if err := f.Truncate(s.end); err != nil {
			return fmt.Errorf("hgstore: flush: %w", err)
		}
	}
	if _, err := f.WriteAt(buf, s.end); err != nil {
		return fmt.Errorf("hgstore: flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("hgstore: flush: %w", err)
	}
	s.end += int64(len(buf))
	s.flushed()
	return nil
}

// rewrite compacts: it writes one record per live key, in first-insertion
// order (so re-running an identical corpus writes an identical file), to
// a unique temp file with the mode of the container it replaces, fsyncs
// it and renames it over the container. Callers hold the file lock.
func (s *Store) rewrite() error {
	buf := []byte(Magic)
	buf = wire.AppendUvarint(buf, Version)
	buf = append(buf, fileKindStore)
	for _, k := range s.order {
		buf = appendRecord(buf, k, s.recs[k].payload)
	}
	dir, base := filepath.Split(s.path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+tmpMid+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if old, err := os.Stat(s.path); err == nil && old.Mode().IsRegular() {
		if err := f.Chmod(old.Mode().Perm()); err != nil {
			return fail(err)
		}
	}
	if _, err := f.Write(buf); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		// A failed rename must not strand the tmp file next to the store.
		os.Remove(tmp)
		return err
	}
	s.file, s.end, s.compact = fi, int64(len(buf)), false
	s.flushed()
	return nil
}

// flushed marks every pending record as written.
func (s *Store) flushed() {
	for _, k := range s.pending {
		s.recs[k].pending = false
	}
	s.pending = s.pending[:0]
}

// appendRecord appends one container record.
func appendRecord(buf []byte, k Key, payload []byte) []byte {
	buf = wire.AppendUint64(buf, k.Code)
	buf = wire.AppendUint64(buf, k.Cfg)
	buf = wire.AppendUvarint(buf, k.Addr)
	buf = appendBool(buf, k.Binary)
	buf = wire.AppendString(buf, LifterVersion)
	buf = wire.AppendBytes(buf, payload)
	return wire.AppendUint64(buf, hashBytes(hashSeed, payload))
}

// Keys returns the stored keys sorted for deterministic iteration (tests
// and tooling; the container itself keeps insertion order).
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, len(s.order))
	copy(out, s.order)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Cfg != b.Cfg {
			return a.Cfg < b.Cfg
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return !a.Binary && b.Binary
	})
	return out
}
