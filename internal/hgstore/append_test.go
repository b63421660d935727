package hgstore_test

// The append path of the container: a flush reads only what other
// handles appended, cuts off a torn tail, appends and fsyncs; Open
// compacts when dead records outnumber live ones; a handle whose file was
// replaced by another handle's compaction rescans it; and the file mode
// does not depend on which of the two paths wrote last.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hgstore"
	"repro/internal/image"
)

// appendFixture is one lifted entry, a tiny entry with a much smaller
// payload, and the image both decode against.
type appendFixture struct {
	big, small *hgstore.Entry
	key        hgstore.Key
	img        *image.Image
}

func newAppendFixture(t *testing.T) appendFixture {
	t.Helper()
	e, key, img, err := stressEntry()
	if err != nil {
		t.Fatal(err)
	}
	return appendFixture{big: e, small: &hgstore.Entry{Status: core.StatusError, EntryIndex: -1}, key: key, img: img}
}

// k returns the fixture key with code c.
func (f appendFixture) k(c uint64) hgstore.Key {
	k := f.key
	k.Code = c
	return k
}

func (f appendFixture) put(t *testing.T, st *hgstore.Store, c uint64, e *hgstore.Entry) {
	t.Helper()
	if _, err := st.Put(f.k(c), e, f.img); err != nil {
		t.Fatalf("put %d: %v", c, err)
	}
}

func mustOpen(t *testing.T, path string) *hgstore.Store {
	t.Helper()
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustStat(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// wantHolds reopens the store and checks it holds exactly the given codes,
// each decodable, with nothing dropped.
func (f appendFixture) wantHolds(t *testing.T, path string, codes ...uint64) {
	t.Helper()
	st := mustOpen(t, path)
	if st.Dropped() != 0 {
		t.Fatalf("reopen drops %d records", st.Dropped())
	}
	if st.Len() != len(codes) {
		t.Fatalf("reopen holds %d entries, want %d", st.Len(), len(codes))
	}
	for _, c := range codes {
		if e, _, _, reason := st.Lookup(f.k(c), f.img); e == nil {
			t.Fatalf("entry %d: %s", c, reason)
		}
	}
}

// TestStoreAppendTruncatesTornTail: a writer that died mid-append left
// half a record after a valid container. Another handle's Put cuts the
// torn bytes off and appends, whether it had read the container before
// the tear or opens it after (and so counts the torn record as dropped).
func TestStoreAppendTruncatesTornTail(t *testing.T) {
	f := newAppendFixture(t)
	path := filepath.Join(t.TempDir(), "s.hgcs")
	w := mustOpen(t, path)
	for c := uint64(0); c < 3; c++ {
		f.put(t, w, c, f.big)
	}
	other := mustOpen(t, path) // has read the three records
	clean := mustStat(t, path).Size()
	// tear appends one more record through a handle that then dies, and
	// cuts the file in the middle of that record. The Puts after a tear
	// append a record shorter than the torn bytes, so torn bytes that were
	// not cut off would survive behind it.
	tear := func() int64 {
		t.Helper()
		f.put(t, mustOpen(t, path), 99, f.big)
		full := mustStat(t, path).Size()
		torn := full - (full-clean)/2
		if err := os.Truncate(path, torn); err != nil {
			t.Fatal(err)
		}
		return torn
	}

	torn := tear()
	f.put(t, other, 3, f.small)
	f.wantHolds(t, path, 0, 1, 2, 3)
	if got := mustStat(t, path).Size(); got >= torn {
		t.Fatalf("container is %d bytes after the append, the torn one was %d: torn bytes kept", got, torn)
	}

	clean = mustStat(t, path).Size()
	tear()
	late := mustOpen(t, path)
	if late.Dropped() != 1 {
		t.Fatalf("a handle opened after the tear drops %d records, want 1", late.Dropped())
	}
	f.put(t, late, 4, f.small)
	f.wantHolds(t, path, 0, 1, 2, 3, 4)
}

// TestStoreAppendReadsOtherHandlesTail: two handles Put different keys in
// turn; each flush reads the record the other appended, and the file is
// only ever appended to.
func TestStoreAppendReadsOtherHandlesTail(t *testing.T) {
	f := newAppendFixture(t)
	path := filepath.Join(t.TempDir(), "s.hgcs")
	a, b := mustOpen(t, path), mustOpen(t, path)
	const n = 4
	var codes []uint64
	var first os.FileInfo
	for i := uint64(0); i < n; i++ {
		for h, st := range []*hgstore.Store{a, b} {
			c := uint64(h)<<32 | i
			f.put(t, st, c, f.big)
			codes = append(codes, c)
			if st.Len() != len(codes) {
				t.Fatalf("handle %d holds %d entries after %d Puts: it missed the other's tail", h, st.Len(), len(codes))
			}
			fi := mustStat(t, path)
			if first == nil {
				first = fi
			} else if !os.SameFile(first, fi) {
				t.Fatal("a flush replaced the container instead of appending")
			}
		}
	}
	f.wantHolds(t, path, codes...)
}

// TestStoreOpenCompactsDeadRecords: one key Put N times appends N
// records; the next Open, finding N-1 dead records against one live one,
// compacts the container back to the single record.
func TestStoreOpenCompactsDeadRecords(t *testing.T) {
	f := newAppendFixture(t)
	path := filepath.Join(t.TempDir(), "s.hgcs")
	st := mustOpen(t, path)
	f.put(t, st, 1, f.big)
	one, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 1; i < n; i++ {
		f.put(t, st, 1, f.big)
	}
	rec := int64(len(one)) - 6 // the header is "HGCS", the version and the kind
	if got, want := mustStat(t, path).Size(), int64(len(one))+(n-1)*rec; got != want {
		t.Fatalf("%d Puts of one key: container is %d bytes, want %d", n, got, want)
	}
	f.wantHolds(t, path, 1) // this Open compacts
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(compacted) != string(one) {
		t.Fatalf("compacted container is %d bytes, want the one-record %d", len(compacted), len(one))
	}
}

// TestStoreRescansReplacedFile: handle A has read a container, another
// handle's Open compacts it by rename, and the compacted file is laid out
// differently (the dead records before A's offset are gone, so A's offset
// falls inside a record). A's next Put must rescan the new file instead
// of reading and writing at its stale offset.
func TestStoreRescansReplacedFile(t *testing.T) {
	f := newAppendFixture(t)
	path := filepath.Join(t.TempDir(), "s.hgcs")
	a := mustOpen(t, path)
	f.put(t, a, 1, f.small)
	f.put(t, a, 2, f.small)
	f.put(t, a, 1, f.small) // A has read three records, one dead
	before := mustStat(t, path)

	c := mustOpen(t, path)
	f.put(t, c, 1, f.small)
	f.put(t, c, 1, f.small)
	f.put(t, c, 3, f.big)
	f.put(t, c, 1, f.small) // seven records: three live, four dead

	mustOpen(t, path) // compacts to 1, 2, 3
	after := mustStat(t, path)
	if os.SameFile(before, after) {
		t.Fatal("Open did not replace the container")
	}
	if after.Size() <= before.Size() {
		t.Fatalf("compacted container (%d bytes) does not extend past A's offset (%d)", after.Size(), before.Size())
	}

	f.put(t, a, 4, f.small)
	f.wantHolds(t, path, 1, 2, 3, 4)
}

// TestStoreFileModeStable: the container's mode is the same whether an
// append or a compaction wrote it last — 0600 for a container the store
// created, and whatever mode the container had otherwise.
func TestStoreFileModeStable(t *testing.T) {
	f := newAppendFixture(t)
	path := filepath.Join(t.TempDir(), "s.hgcs")
	mode := func() os.FileMode { return mustStat(t, path).Mode().Perm() }
	// compact makes the next Open compact: five more records of key 1
	// leave more dead records than the (at most three) live ones.
	compact := func(st *hgstore.Store) {
		before := mustStat(t, path)
		for i := 0; i < 5; i++ {
			f.put(t, st, 1, f.small)
		}
		mustOpen(t, path)
		if os.SameFile(before, mustStat(t, path)) {
			t.Fatal("Open did not compact")
		}
	}

	st := mustOpen(t, path)
	f.put(t, st, 1, f.small) // creates the container
	if m := mode(); m != 0o600 {
		t.Fatalf("new container mode %v, want 0600", m)
	}
	f.put(t, st, 2, f.small) // appends
	if m := mode(); m != 0o600 {
		t.Fatalf("mode after an append %v, want 0600", m)
	}
	compact(st)
	if m := mode(); m != 0o600 {
		t.Fatalf("mode after a compaction %v, want 0600", m)
	}

	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	st = mustOpen(t, path)
	f.put(t, st, 3, f.small)
	if m := mode(); m != 0o640 {
		t.Fatalf("mode after an append %v, want 0640", m)
	}
	compact(st)
	if m := mode(); m != 0o640 {
		t.Fatalf("mode after a compaction %v, want 0640", m)
	}
}
