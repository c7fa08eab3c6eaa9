package consensus

import (
	"bytes"
	"maps"
	"slices"

	"repro/internal/xcrypto"
)

// Map iteration order is randomized per range statement, so any loop whose
// effects can observe order (message emission, arbitrary-element choice)
// walks sorted keys instead; the determinism lint flags the raw ranges.
// Ordered key types use slices.Sorted(maps.Keys(m)) in place; digests, which
// are arrays, need the comparison below.

// sortedDigests returns the keys of a digest-keyed map in lexicographic
// order.
func sortedDigests[V any](m map[[xcrypto.DigestLen]byte]V) [][xcrypto.DigestLen]byte {
	return slices.SortedFunc(maps.Keys(m), func(a, b [xcrypto.DigestLen]byte) int {
		return bytes.Compare(a[:], b[:])
	})
}
