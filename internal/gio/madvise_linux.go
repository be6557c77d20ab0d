//go:build linux && !nommap

package gio

import "syscall"

// adviseSequential hints the kernel that the mapping will be read front to
// back, enabling aggressive readahead. Best effort: scan correctness never
// depends on it.
func adviseSequential(data []byte) {
	_ = syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
}
