package consensus

import (
	"bytes"
	"cmp"
	"maps"
	"slices"

	"repro/internal/xcrypto"
)

// Map iteration order is randomized per range statement, so any loop whose
// effects can observe order (message emission, arbitrary-element choice)
// walks sorted keys instead; the determinism lint flags the raw ranges.
// Both helpers size the key slice up front: one allocation a call, on paths
// (certificate encoding) that run several times per slow-path request.

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := slices.AppendSeq(make([]K, 0, len(m)), maps.Keys(m))
	slices.Sort(keys)
	return keys
}

// sortedDigests returns the keys of a digest-keyed map in lexicographic
// order.
func sortedDigests[V any](m map[[xcrypto.DigestLen]byte]V) [][xcrypto.DigestLen]byte {
	keys := slices.AppendSeq(make([][xcrypto.DigestLen]byte, 0, len(m)), maps.Keys(m))
	slices.SortFunc(keys, func(a, b [xcrypto.DigestLen]byte) int { return bytes.Compare(a[:], b[:]) })
	return keys
}
