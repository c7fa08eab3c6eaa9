package app

import "repro/internal/wire"

// This file is the application-side support for cross-shard execution:
// the fragment selectors and the shared merge routine behind every
// Fragmenter's Fragment and Merge.

// subsetKeys decodes a multi-read body (count + keys; the opcode is
// already consumed) and selects the keys at keyIdx, bounds-checked. The
// decoded keys and the selection share *buf, the application's scratch,
// and are valid until its next use.
func subsetKeys(buf *[][]byte, rd *wire.Reader, keyIdx []int) ([][]byte, error) {
	keys, err := multiKeys((*buf)[:0], rd, false)
	if err != nil {
		return nil, err
	}
	n := len(keys)
	for _, i := range keyIdx {
		if i < 0 || i >= n {
			return nil, ErrNoKey
		}
		keys = append(keys, keys[i])
	}
	*buf = keys
	return keys[n:], nil
}

// subsetPairs decodes a multi-write body and selects the pairs at keyIdx,
// bounds-checked. As in subsetKeys the pairs share *buf, and every key and
// value is a view of the request.
func subsetPairs(buf *[]Pair, rd *wire.Reader, keyIdx []int) ([]Pair, error) {
	pairs, ok := decodePairs((*buf)[:0], rd)
	if !ok || rd.Done() != nil {
		return nil, ErrNoKey
	}
	n := len(pairs)
	for _, i := range keyIdx {
		if i < 0 || i >= n {
			return nil, ErrNoKey
		}
		pairs = append(pairs, pairs[i])
	}
	*buf = pairs
	return pairs[n:], nil
}

// KeyedRead is one key's answer in a multi-read result.
type KeyedRead struct {
	Found bool
	Value []byte // nil if not Found
}

// AppendKeyedReads decodes a multi-read result (multiRead's shape: status
// byte, uvarint count, then per key a Bool(found) and, if found, a Bytes
// value) and appends one entry per key to dst. A found entry's Value aliases
// res, which the caller owns: nothing is copied. It returns the status: a
// failed read's own, StatusBadReq if malformed, with dst unextended.
func AppendKeyedReads(dst []KeyedRead, res []byte) ([]KeyedRead, uint8) {
	if len(res) == 0 {
		return dst, StatusBadReq
	}
	if res[0] != StatusOK {
		return dst, res[0]
	}
	rd := wire.NewReader(res[1:])
	n := rd.Uvarint()
	if n > uint64(rd.Remaining()) { // every entry takes at least a byte
		return dst, StatusBadReq
	}
	out := dst
	for i := uint64(0); i < n; i++ {
		found := rd.Bool()
		var v []byte
		if found {
			v = rd.BytesView()
		}
		out = append(out, KeyedRead{Found: found, Value: v})
	}
	if rd.Done() != nil {
		return dst, StatusBadReq
	}
	return out, StatusOK
}

// mergeKeyedReads reassembles per-leg multi-read responses into the
// response one shard holding every key would have produced. Every
// transactional app answers multi-reads through multiRead, so the merge is
// shared too (it IS each app's Fragmenter.Merge). legKeys[i] lists the
// original key indices leg i served; the total key count is
// derived from it. If any leg failed, the first failing leg's status (in
// leg order, which is ascending shard order) is returned, so the merged
// outcome is deterministic. The entries are decoded into *scratch, which the
// caller keeps, as views of their legs (cleared before it returns), so each
// value is copied once, into the result, which is the merge's one
// allocation.
func mergeKeyedReads(scratch *[]KeyedRead, legs [][]byte, legKeys [][]int) []byte {
	nKeys := 0
	for _, idx := range legKeys {
		nKeys += len(idx)
	}
	// One array: the merged entries, then room for one leg's.
	if cap(*scratch) < 2*nKeys {
		*scratch = make([]KeyedRead, 2*nKeys)
	}
	defer clear((*scratch)[:2*nKeys])
	merged := (*scratch)[:nKeys]
	// Malformed legs merge to the generic StatusBadReq: it is the only
	// error byte that means "failure" in every app's status namespace (an
	// RKV-style RErr, 3, would read as KVStored to a KV client).
	for li, res := range legs {
		reads, status := AppendKeyedReads(merged[nKeys:], res)
		if status != StatusOK {
			return []byte{status}
		}
		if len(reads) != len(legKeys[li]) {
			return []byte{StatusBadReq}
		}
		for pos, e := range reads {
			idx := legKeys[li][pos]
			if idx < 0 || idx >= nKeys {
				return []byte{StatusBadReq}
			}
			merged[idx] = e
		}
	}
	size := 1 + wire.UvarintLen(uint64(nKeys))
	for _, e := range merged {
		size++
		if e.Found {
			size += wire.BytesLen(len(e.Value))
		}
	}
	w := wire.WriterOn(make([]byte, 0, size))
	w.U8(StatusOK)
	w.Uvarint(uint64(nKeys))
	for _, e := range merged {
		w.Bool(e.Found)
		if e.Found {
			w.Bytes(e.Value)
		}
	}
	return w.Finish()
}
