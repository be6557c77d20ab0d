//go:build linux && !nommap

package gio

import (
	"os"
	"syscall"
)

// fadvDontNeed is POSIX_FADV_DONTNEED; the constant is not exported by
// package syscall.
const fadvDontNeed = 4

// DropPageCache asks the kernel to evict the file's pages from the page
// cache (posix_fadvise DONTNEED). Benchmarks use it to approximate a cold
// first read without root access to /proc/sys/vm/drop_caches; it is a hint,
// so a nil return means "requested", not "evicted". The file is fsynced
// first: DONTNEED skips dirty pages, and a file just written (Writer.Close
// does not fsync) would otherwise stay resident. On platforms without
// fadvise it reports ErrPageCacheCtl.
func DropPageCache(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return err
	}
	// package syscall has no Fadvise wrapper; SYS_FADVISE64 is defined for
	// every linux GOARCH.
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); errno != 0 {
		return errno
	}
	return nil
}
