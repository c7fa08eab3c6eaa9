package xcrypto

import "math/bits"

// xxHash64 implemented from the public specification. The paper's prototype
// uses xxHash for register and message-ring checksums; the Go standard
// library has no xxHash, so this is a from-scratch implementation (stdlib
// only, no dependencies). It is a non-cryptographic checksum: it detects
// torn RDMA reads and wire corruption, not adversarial collisions — exactly
// the role it plays in the paper (§6.1, §6.2).

const (
	prime64x1 uint64 = 0x9E3779B185EBCA87
	prime64x2 uint64 = 0xC2B2AE3D27D4EB4F
	prime64x3 uint64 = 0x165667B19E3779F9
	prime64x4 uint64 = 0x85EBCA77C2B2AE63
	prime64x5 uint64 = 0x27D4EB2F165667C5
)

// XXHash64 computes the 64-bit xxHash of data with the given seed. It takes
// a string as well, so a string is hashed in place, not copied.
func XXHash64[B ~[]byte | ~string](data B, seed uint64) uint64 {
	n := len(data)
	var h uint64

	if n >= 32 {
		v1 := seed + prime64x1 + prime64x2
		v2 := seed + prime64x2
		v3 := seed
		v4 := seed - prime64x1
		for len(data) >= 32 {
			v1 = round64(v1, le64(data[0:8]))
			v2 = round64(v2, le64(data[8:16]))
			v3 = round64(v3, le64(data[16:24]))
			v4 = round64(v4, le64(data[24:32]))
			data = data[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound64(h, v1)
		h = mergeRound64(h, v2)
		h = mergeRound64(h, v3)
		h = mergeRound64(h, v4)
	} else {
		h = seed + prime64x5
	}

	h += uint64(n)

	for len(data) >= 8 {
		h ^= round64(0, le64(data[0:8]))
		h = bits.RotateLeft64(h, 27)*prime64x1 + prime64x4
		data = data[8:]
	}
	if len(data) >= 4 {
		h ^= uint64(le32(data[0:4])) * prime64x1
		h = bits.RotateLeft64(h, 23)*prime64x2 + prime64x3
		data = data[4:]
	}
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i]) * prime64x5
		h = bits.RotateLeft64(h, 11) * prime64x1
	}

	h ^= h >> 33
	h *= prime64x2
	h ^= h >> 29
	h *= prime64x3
	h ^= h >> 32
	return h
}

func round64(acc, input uint64) uint64 {
	acc += input * prime64x2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime64x1
}

func mergeRound64(acc, val uint64) uint64 {
	val = round64(0, val)
	acc ^= val
	return acc*prime64x1 + prime64x4
}

func le64[B ~[]byte | ~string](b B) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32[B ~[]byte | ~string](b B) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
