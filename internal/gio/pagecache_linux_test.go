//go:build linux && !nommap

package gio

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/plrg"
)

// residentPages maps the file at path and counts the pages mincore reports
// resident, out of all its pages. Mapping faults nothing in.
func residentPages(t *testing.T, path string) (resident, total int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(data)
	vec := make([]byte, (len(data)+os.Getpagesize()-1)/os.Getpagesize())
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatal(errno)
	}
	for _, b := range vec {
		resident += int(b & 1)
	}
	return resident, len(vec)
}

// TestDropPageCacheEvictsFreshFile writes a graph with WriteGraph, which
// does not fsync, and requires DropPageCache to leave none of its pages
// resident: DONTNEED skips dirty pages, so the cold benchmark rows read a
// warm file unless the eviction writes them back first. The control is a
// file fsynced before the same call; if even its pages stay resident, the
// filesystem ignores the hint and nothing can be measured here.
func TestDropPageCacheEvictsFreshFile(t *testing.T) {
	dir := t.TempDir()
	control := filepath.Join(dir, "control.bin")
	cf, err := os.Create(control)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := cf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := DropPageCache(control); err != nil {
		t.Fatal(err)
	}
	if resident, total := residentPages(t, control); resident > 0 {
		t.Skipf("the filesystem ignores POSIX_FADV_DONTNEED: %d of %d pages of an fsynced file stay resident", resident, total)
	}

	path := filepath.Join(dir, "g.adj")
	if err := WriteGraph(path, plrg.PowerLawN(20000, 2.0, 1), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := DropPageCache(path); err != nil {
		t.Fatal(err)
	}
	if resident, total := residentPages(t, path); resident > 0 {
		t.Fatalf("%d of %d pages of a freshly written graph stay resident after DropPageCache", resident, total)
	}
}
