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
// truncated tail (a crash mid-write under a non-atomic filesystem), as
// are records stamped with a different LifterVersion. Every drop is a
// future miss, never an error: the store is a cache, and its failure mode
// is re-lifting.
//
// Writes are atomic replaces: the writer serialises the whole container
// to a uniquely named temp file in the same directory (os.CreateTemp, so
// two flushers can never collide on one tmp path), fsyncs, and renames
// over the destination. A reader therefore never observes a half-written
// file. Concurrency is handled at two levels:
//
//   - in-process, the store mutex serialises the N pipeline workers that
//     Put concurrently under -jobs N;
//   - cross-process, an advisory flock on the <path>.lock sidecar
//     serialises the whole read-merge-write cycle, and the flush *unions*
//     the current on-disk container with the in-memory records instead of
//     blind-overwriting — so a daemon and a CLI run (or two CLI runs)
//     sharing one store file cannot drop each other's entries.
//
// A crash between CreateTemp and Rename strands a tmp file; Open sweeps
// leftovers (safe under the same lock: a live flusher holds it for its
// whole create-to-rename window, so any tmp visible while the lock is
// held is orphaned), and a failed Rename removes its own tmp.
//
// By default every Put flushes. Long-running writers (the hgserved
// daemon) switch to buffered mode with SetAutoFlush(false) and call Flush
// on their own cadence — merge-on-flush makes the deferred write exactly
// as safe, it just widens the window a crash can lose (a cache's failure
// mode: re-lifting).

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

// Magic and Version identify the HGCS container.
const (
	Magic   = "HGCS"
	Version = 1
)

// lockSuffix names the sidecar lock file and tmpMid the unique temp files
// a flush writes ("<path>.tmp-<random>"); the sweep in Open matches the
// shared "<path>.tmp" prefix, which also covers the fixed "<path>.tmp"
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
	key     Key
	payload []byte
}

// Store is the content-addressed Hoare-graph cache. All methods are safe
// for concurrent use, including against other *Store handles (same or
// other processes) sharing the file.
type Store struct {
	mu        sync.Mutex
	path      string
	recs      map[Key]*record
	order     []Key // insertion order of first sight, for stable files
	dropped   int
	autoFlush bool // false = buffered: Puts stay in memory until Flush
	dirty     bool // buffered entries not yet flushed
}

// Open creates or resumes the store at path: a missing file is an empty
// store, an existing one is loaded with corrupt, truncated, or
// version-skewed records dropped (Dropped counts them). Only real I/O errors are returned. Open takes
// the cross-process lock for the read, so it also sweeps any tmp files a
// crashed writer stranded in the directory.
func Open(path string) (*Store, error) {
	s := &Store{path: path, recs: map[Key]*record{}, autoFlush: true}
	lock, err := acquireFileLock(path)
	if err != nil {
		return nil, err
	}
	defer lock.release()
	s.sweepStaleTmps()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("hgstore: open: %w", err)
	}
	s.scan(data, false)
	return s, nil
}

// sweepStaleTmps removes orphaned temp files next to the store. Callers
// hold the file lock: a live flusher keeps the lock across its whole
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

// scan parses a container, tolerating every content defect. In load mode
// (merge false) usable records replace in-memory ones and every defect
// counts toward Dropped. In merge mode — the flush's read-back of a file
// another process may have advanced — records only fill keys memory does
// not hold: keys are content-addressed, so an entry present in both
// places carries the same outcome and the in-memory copy wins; defects
// are not counted, since the flush is about to rewrite the file anyway.
func (s *Store) scan(data []byte, merge bool) {
	d := wire.NewDecoder(data)
	if string(d.Bytes(uint64(len(Magic)), "magic")) != Magic ||
		d.Uvarint("container version") != Version ||
		d.Byte("file kind") != fileKindStore {
		// Wrong magic, a future container version, or a graph file where
		// a store was expected: everything it holds is unusable — treat
		// the whole file as dropped. The next flush rewrites it.
		if !merge {
			s.dropped++
		}
		return
	}
	for len(d.Rest()) > 0 {
		var k Key
		k.Code = d.Uint64("record code hash")
		k.Cfg = d.Uint64("record config fingerprint")
		k.Addr = d.Uvarint("record address")
		k.Binary = decodeBool(d, "record binary")
		version := d.String("record lifter version")
		payload := d.ByteSlice("record payload")
		sum := d.Uint64("record checksum")
		if d.Err() != nil {
			// Truncated or malformed tail: drop it and everything after.
			if !merge {
				s.dropped++
			}
			return
		}
		if sum != hashBytes(hashSeed, payload) || version != LifterVersion {
			if !merge {
				s.dropped++
			}
			continue
		}
		if _, ok := s.recs[k]; ok {
			if merge {
				continue
			}
		} else {
			s.order = append(s.order, k)
		}
		s.recs[k] = &record{key: k, payload: payload}
	}
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
// every Put rewrites the container, the CLI batch behaviour) and buffered
// mode (false: Puts stay in memory until Flush — the long-running daemon
// behaviour, where a flush per cached lift would make the container
// rewrite the hot path). Buffered entries survive only until a crash;
// that is the cache's stated failure mode, re-lifting.
func (s *Store) SetAutoFlush(auto bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoFlush = auto
}

// Flush persists buffered entries: a no-op when nothing changed since the
// last write, otherwise one locked read-merge-write cycle. Callers in
// buffered mode own the cadence (periodic, end-of-batch, shutdown).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
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
// write is atomic (unique tmp + rename of the whole container), serialised
// in-process by the store mutex and cross-process by the file lock, so
// concurrent Puts from -jobs N workers and from other processes sharing
// the store interleave safely. Sealing mutates the entry, so one *Entry
// must not be passed to concurrent Puts — each lift produces its own. In
// buffered mode (SetAutoFlush(false)) the entry only reaches disk at the
// next Flush. Callers decide storability (see Storable) before putting.
func (s *Store) Put(key Key, e *Entry, img *image.Image) (int, error) {
	if err := e.Seal(img); err != nil {
		return 0, err
	}
	payload := e.appendPayload(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[key]; !ok {
		s.order = append(s.order, key)
	}
	s.recs[key] = &record{key: key, payload: payload}
	s.dirty = true
	if !s.autoFlush {
		return len(payload), nil
	}
	return len(payload), s.flushLocked()
}

// flushLocked rewrites the container atomically under the cross-process
// file lock: read back whatever is on disk and union it into memory (so a
// concurrent process's entries survive this writer's rewrite), then
// serialise everything to a unique temp file and rename it into place.
// Records are emitted in first-insertion order, so re-running an
// identical corpus rewrites an identical file.
func (s *Store) flushLocked() error {
	lock, err := acquireFileLock(s.path)
	if err != nil {
		return err
	}
	defer lock.release()
	if data, err := os.ReadFile(s.path); err == nil {
		s.scan(data, true)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("hgstore: flush read-back: %w", err)
	}
	buf := []byte(Magic)
	buf = wire.AppendUvarint(buf, Version)
	buf = append(buf, fileKindStore)
	for _, k := range s.order {
		r := s.recs[k]
		buf = wire.AppendUint64(buf, k.Code)
		buf = wire.AppendUint64(buf, k.Cfg)
		buf = wire.AppendUvarint(buf, k.Addr)
		buf = appendBool(buf, k.Binary)
		buf = wire.AppendString(buf, LifterVersion)
		buf = wire.AppendBytes(buf, r.payload)
		buf = wire.AppendUint64(buf, hashBytes(hashSeed, r.payload))
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
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
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
	s.dirty = false
	return nil
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
