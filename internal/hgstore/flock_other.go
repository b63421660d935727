//go:build !unix

package hgstore

// Fallback for platforms without flock: the sidecar file is still created
// (so tooling sees the same on-disk shape) but provides no cross-process
// exclusion — two writers may append at one offset, or one may compact
// while another appends, and lose each other's records. Every record is
// checksummed, so the damage reads back as dropped records (misses):
// the degradation is lost entries, never a wrong hit.

import (
	"fmt"
	"os"
)

// fileLock holds the (advisory-only) sidecar handle.
type fileLock struct {
	f *os.File
}

// acquireFileLock opens the sidecar without real exclusion.
func acquireFileLock(path string) (*fileLock, error) {
	f, err := os.OpenFile(path+lockSuffix, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hgstore: lock: %w", err)
	}
	return &fileLock{f: f}, nil
}

// release closes the sidecar handle.
func (l *fileLock) release() { l.f.Close() }
