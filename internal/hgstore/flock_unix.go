//go:build unix

package hgstore

// Cross-process serialisation of the container's reads and writes. The
// in-process mutex only protects one *Store; two processes sharing a store
// file (the hgserved daemon plus an hglift -store run, or two concurrent
// CLI runs) used to race each other through a fixed <path>.tmp and a
// blind whole-container overwrite — the later rename silently dropped the
// earlier process's entries. An advisory flock on a sidecar lock file
// closes the race: whoever holds it owns the container, from reading what
// others appended to the fsync of its own append or compaction.
//
// The lock lives on <path>.lock rather than the container itself because
// a compaction replaces the container by rename: a lock taken on the old
// inode would not exclude a writer that already renamed a new file into
// place. The sidecar is created once and never renamed, so its inode is
// stable for every process.

import (
	"fmt"
	"os"
	"syscall"
)

// fileLock holds an acquired advisory lock.
type fileLock struct {
	f *os.File
}

// acquireFileLock blocks until the exclusive advisory lock on path's
// sidecar lock file is held. The lock is per open-file-description, so two
// *Store handles in one process exclude each other the same way two
// processes do.
func acquireFileLock(path string) (*fileLock, error) {
	f, err := os.OpenFile(path+lockSuffix, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hgstore: lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("hgstore: flock %s: %w", f.Name(), err)
	}
	return &fileLock{f: f}, nil
}

// release drops the lock. Closing the descriptor releases the flock; the
// explicit unlock first keeps the window tight when the close is delayed
// by the finaliser path.
func (l *fileLock) release() {
	syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN)
	l.f.Close()
}
