package app

import (
	"errors"
	"slices"

	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// This file is the application side of the sharded deployment: the
// key-to-shard hash and the multi-key body decoder behind the keyed stores'
// Router capability.

// ErrNoKey reports a request whose key cannot be extracted (malformed or an
// opcode the router does not know).
var ErrNoKey = errors.New("app: request has no routable key")

// ShardOfKey maps a key to one of `shards` partitions using the repo's
// xxhash (cheap, and independent of the SHA-256 protocol digests so routing
// cannot bias request fingerprints).
func ShardOfKey(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(xcrypto.ChecksumNoCharge(key) % uint64(shards))
}

// multiKeys appends to dst the keys of a multi-key request body (the opcode
// is already consumed); withVals skips the interleaved values of a write.
// The request must be fully consumed: it backs the writeFragmentKeys
// validation of the keyed stores, and a fragment Prepare votes yes on MUST
// be installable — trailing bytes that install would refuse have to be
// refused here too, or a half-valid prepare could commit a transaction
// that installs nothing on one shard.
func multiKeys(dst [][]byte, rd *wire.Reader, withVals bool) ([][]byte, error) {
	n, ok := readCount(rd, multiKeyMax)
	if !ok {
		return nil, ErrNoKey
	}
	keys := slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		keys = append(keys, rd.BytesView())
		if withVals {
			rd.BytesView() // value
		}
	}
	if rd.Done() != nil {
		return nil, ErrNoKey
	}
	return keys, nil
}
