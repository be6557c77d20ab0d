//go:build darwin && !nommap

package gio

// adviseSequential is a no-op on darwin, where package syscall has no
// Madvise: the readahead hint is best effort, and scan correctness never
// depends on it.
func adviseSequential(data []byte) {}
