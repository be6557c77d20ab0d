//go:build (linux || darwin) && !nommap

package gio

import (
	"os"
	"syscall"
)

// mmapSupported selects the mapped scan path at build time. The nommap tag
// forces the portable ReadAt fallback on platforms that do have mmap, so CI
// can compile and test the fallback without cross-building.
const mmapSupported = true

// mapMem maps size bytes of f read-only and shared. The mapping observes
// the page cache directly, which is the whole point: a sequential scan then
// touches each file page exactly once with no intermediate copy.
func mapMem(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapMem releases a mapMem mapping.
func unmapMem(data []byte) error {
	return syscall.Munmap(data)
}
