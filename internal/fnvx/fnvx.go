// Package fnvx is an allocation-free FNV-1a hash primitive for the
// data plane's hot path (router sticky assignment, whose user→arm
// mapping must be the same in every process). The stdlib hash/fnv forces
// a heap-allocated hash.Hash64; these helpers fold bytes and strings
// into a plain uint64 instead.
package fnvx

// Offset64 is the FNV-1a 64-bit offset basis.
const Offset64 uint64 = 14695981039346656037

// Prime64 is the FNV-1a 64-bit prime.
const Prime64 uint64 = 1099511628211

// String folds s into h.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= Prime64
	}
	return h
}

// Byte folds one byte into h.
func Byte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= Prime64
	return h
}
