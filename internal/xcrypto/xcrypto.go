// Package xcrypto is the cryptographic substrate of the uBFT reproduction.
// It wraps the standard library's ed25519 (standing in for ed25519-dalek)
// and HMAC-SHA256 (standing in for BLAKE3 keyed hashing), implements
// xxHash64 from scratch for checksums, and charges calibrated virtual-time
// costs on the simulated process performing each operation. Signatures are
// REAL: a forged or corrupted signature genuinely fails verification, so
// Byzantine tests exercise true cryptographic rejection, while the virtual
// clock advances by dalek-class costs from internal/latmodel.
//
// A verdict is computed once per Registry and reused: a Registry keeps the
// (signer, message, signature) triples it found valid in a fixed table of
// 1024 entries, and a later check of a triple still there skips the ed25519
// computation. Every check still charges its full virtual cost, so the table
// saves host CPU only. Only valid verdicts are kept, so a forged signature
// is computed, and refused, every time.
//
// A Registry draws every key seed when it is made, in id order, and derives a
// key pair from its seed at that key's first signature, check or PublicKey
// (once, however many goroutines race to it). A deployment whose fast path
// signs nothing derives no key at set-up, and the keys, signatures and table
// entries are the ones an up-front derivation made.
//
// A signature a Registry's own key makes enters the table when it is made:
// the Registry derives each public key from its private key, and an ed25519
// signature made with a private key verifies under that public key, so a
// signature it made is valid by construction, and a check of it computes
// nothing. A simulated deployment
// shares one Registry, so no check of an honest signature computes there; a
// node of a real deployment skips only its own. The table's key covers the
// signer ID, the message and the signature, so a copy with any of them
// changed misses and is computed.
//
// A signature a Signer makes is carved from a block that Signer owns
// (wire.Slab), so signing costs one allocation per block of 64 signatures, not
// one per signature. A returned Signature has cap == len, so an append to it
// reallocates instead of writing into the next signature of the block, and
// nothing writes to it once returned.
//
// A certificate (Cert, cert.go) is f+1 or more signatures by distinct group
// members over one payload, kept as its canonical wire bytes: a decoded one
// is a view of the frame it arrived in. The share collector (Shares) that
// gathered one writes it once: appended straight into the message that
// carries it (Shares.AppendCert), or encoded on its own for a certificate a
// process keeps (Shares.Cert).
//
// What a process signs is one of five statements (statement.go), each built
// by its one encoder into a fixed-size Statement that stays on the caller's
// stack, and each opening with a domain byte no other statement uses.
package xcrypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sync"

	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ProcID identifies a process in the key registry (replicas and clients).
// It aliases ids.ID so network-layer and crypto-layer identities are one
// namespace.
type ProcID = ids.ID

// Signature is an ed25519 signature (64 bytes).
type Signature []byte

// SigLen is the length of a signature in bytes.
const SigLen = ed25519.SignatureSize

// DigestLen is the length of a message fingerprint in bytes (paper §7.6:
// a 32 B cryptographic hash).
const DigestLen = sha256.Size

// verifiedEntries is the size of a Registry's table of valid verdicts
// (32 KiB of keys). An evicted verdict costs host time, never a verdict.
const verifiedEntries = 1024

// Registry holds the pre-published public keys of all processes (paper
// §2.4: "processes can sign messages using their private key and verify
// unforgeable signatures using the pre-published public keys"), and the
// verdicts its signers have found valid. One Registry may serve every
// process of a simulated deployment, so the table is guarded.
type Registry struct {
	keys map[ProcID]*key

	mu       sync.Mutex
	scratch  []byte                             // the bytes a key is hashed from; as long as the longest message checked
	verified [verifiedEntries][sha256.Size]byte // direct-mapped keys of valid triples
	computed uint64
	reused   uint64
}

// key is one process's key pair, derived from its seed at its first use.
type key struct {
	seed [ed25519.SeedSize]byte
	once sync.Once
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// derive makes the key pair on the first call; later calls return at once.
func (k *key) derive() *key {
	k.once.Do(func() {
		k.priv = ed25519.NewKeyFromSeed(k.seed[:])
		k.pub = k.priv.Public().(ed25519.PublicKey)
	})
	return k
}

// NewRegistry deterministically draws a key seed for each id in ids from
// seed, so simulations are reproducible. A key pair is derived from its seed
// at its first use (package doc).
func NewRegistry(seed int64, ids []ProcID) *Registry {
	r := &Registry{keys: make(map[ProcID]*key, len(ids))}
	rng := rand.New(rand.NewSource(seed))
	for _, id := range ids {
		k := new(key)
		if _, err := io.ReadFull(rng, k.seed[:]); err != nil {
			panic(err) // math/rand never errors
		}
		r.keys[id] = k
	}
	return r
}

// Signer returns the signing handle for id. It panics if id is unknown:
// asking for a missing key is always a harness bug.
func (r *Registry) Signer(id ProcID) *Signer {
	k, ok := r.keys[id]
	if !ok {
		panic(fmt.Sprintf("xcrypto: no key registered for process %d", id))
	}
	return &Signer{id: id, key: k, reg: r}
}

// PublicKey returns the public key of id (nil if unknown).
func (r *Registry) PublicKey(id ProcID) ed25519.PublicKey {
	if k, ok := r.keys[id]; ok {
		return k.derive().pub
	}
	return nil
}

// Verifications returns how many checks this Registry answered with an
// ed25519 computation and how many from its table of valid verdicts. A check
// refused before either (unknown signer, wrong signature length) counts in
// neither.
func (r *Registry) Verifications() (computed, reused uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.computed, r.reused
}

// entry returns the table slot of the triple (from, msg, sig) and the key
// that marks it valid there: SHA-256 over from ‖ len(msg) ‖ msg ‖ sig. The
// caller holds r.mu.
func (r *Registry) entry(from ProcID, msg []byte, sig Signature) (*[sha256.Size]byte, [sha256.Size]byte) {
	b := binary.LittleEndian.AppendUint64(r.scratch[:0], uint64(from))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(msg)))
	r.scratch = append(append(b, msg...), sig...)
	key := sha256.Sum256(r.scratch)
	return &r.verified[binary.LittleEndian.Uint16(key[:])%verifiedEntries], key
}

// signed records a signature the Registry's own key for from just made over
// msg as valid, so no check of it ever computes.
func (r *Registry) signed(from ProcID, msg []byte, sig Signature) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, key := r.entry(from, msg, sig)
	*entry = key
}

// verify reports whether sig is from's signature over msg. It computes the
// verdict only for a triple the table does not hold, and stores only a valid
// one.
func (r *Registry) verify(from ProcID, msg []byte, sig Signature) bool {
	k, ok := r.keys[from]
	if !ok || len(sig) != ed25519.SignatureSize {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, key := r.entry(from, msg, sig)
	if *entry == key {
		r.reused++
		return true
	}
	r.computed++
	if !ed25519.Verify(k.derive().pub, msg, sig) {
		return false
	}
	*entry = key
	return true
}

// Signer signs on behalf of one process and verifies against the registry.
// Its signatures are carved from blocks it owns and its background jobs
// are reused, so a Signer, unlike its Registry, is not safe for concurrent
// use: each process has its own.
type Signer struct {
	id   ProcID
	key  *key
	reg  *Registry
	slab wire.Slab // the blocks its signatures are carved from
	jobs wire.FreeList[Job]
}

// ID returns the process the signer signs for.
func (s *Signer) ID() ProcID { return s.id }

// Sign produces a real ed25519 signature over msg and charges the
// calibrated signing cost (plus crypto-pool dispatch) to p. The signature
// enters the Registry's table of valid verdicts (see the package doc). It is
// carved from a block the Signer owns, cap == len, and is never written.
func (s *Signer) Sign(p *sim.Proc, msg []byte) Signature {
	p.Charge(latmodel.SignCost + latmodel.CryptoDispatchCost)
	return s.sign(msg)
}

// sign makes the signature into the Signer's slab and records it as valid.
// ed25519.Sign's own result does not escape, so it stays on the stack.
func (s *Signer) sign(msg []byte) Signature {
	sig := Signature(s.slab.Take(SigLen))
	copy(sig, ed25519.Sign(s.key.derive().priv, msg))
	s.reg.signed(s.id, msg, sig)
	return sig
}

// SignBg signs msg on the pool process (a crypto thread pool running on
// other cores, as in the paper's prototype, which relegates bookkeeping
// signatures to a background task) and hands round, its Sig set, to done on
// the main process without blocking it.
func (s *Signer) SignBg(pool, main *sim.Proc, msg []byte, round Job, done func(*Job)) {
	j := s.job(main, round, done)
	j.Sig = s.sign(msg)
	pool.ExecH(latmodel.SignCost+latmodel.CryptoDispatchCost, j)
}

// VerifyBg verifies round.Sig, round.From's signature over msg, on the pool
// process and hands round, its OK set to the verdict, to done on the main
// process without blocking it. Like Verify, it charges the full cost
// whether or not the verdict is reused.
func (s *Signer) VerifyBg(pool, main *sim.Proc, msg []byte, round Job, done func(*Job)) {
	j := s.job(main, round, done)
	j.OK = s.reg.verify(j.From, msg, j.Sig)
	pool.ExecH(latmodel.VerifyCost+latmodel.CryptoDispatchCost, j)
}

// Job is one SignBg or VerifyBg. Its exported fields name the round it
// belongs to, so the caller's done func is bound once rather than made per
// call. A job is its own sim.Handler and fires twice: on the pool, when its
// cost is paid, and then on the main process, where done runs. The Signer
// takes the job back once done returns, so done keeps no pointer to it.
type Job struct {
	ID     uint64          // the summary id or checkpoint sequence number
	From   ProcID          // the signer of the share VerifyBg checks
	Digest [DigestLen]byte // the checkpoint state's digest
	State  []byte          // the summary state a SignBg share covers
	Val    string          // the summary state a VerifyBg share covers, as Shares holds it
	Sig    Signature       // the signature made (SignBg) or checked (VerifyBg)
	OK     bool            // VerifyBg's verdict

	s      *Signer
	main   *sim.Proc
	done   func(*Job)
	onMain bool
}

// job returns a free job holding round, bound for done on main.
func (s *Signer) job(main *sim.Proc, round Job, done func(*Job)) *Job {
	j := s.jobs.Get()
	if j == nil {
		j = new(Job)
	}
	*j = round
	j.s, j.main, j.done = s, main, done
	return j
}

// Fire moves the job from the pool to the main process, and there completes
// it.
func (j *Job) Fire() {
	if !j.onMain {
		j.onMain = true
		j.main.DeliverH(j)
		return
	}
	s := j.s
	j.done(j)
	*j = Job{}
	s.jobs.Put(j)
}

// Verify checks that sig is from's signature over msg, charging the
// verification cost to p. It returns false for unknown signers, malformed
// or forged signatures. The verdict is computed once per Registry and
// reused (see the package doc), but p is charged on every call, so virtual
// time is the same as if every call had computed it.
func (s *Signer) Verify(p *sim.Proc, from ProcID, msg []byte, sig Signature) bool {
	p.Charge(latmodel.VerifyCost + latmodel.CryptoDispatchCost)
	return s.reg.verify(from, msg, sig)
}

// Digest returns a 32-byte cryptographic fingerprint of msg, charging the
// hashing cost to p. Fingerprints are what CTBcast stores in disaggregated
// memory instead of full messages (paper §7.6).
func Digest(p *sim.Proc, msg []byte) [DigestLen]byte {
	p.Charge(latmodel.DigestCost(len(msg)))
	return sha256.Sum256(msg)
}

// Checksum returns the xxHash64 checksum of data, charging cost to p.
// This is the torn-read/corruption detector of registers and message rings.
func Checksum(p *sim.Proc, data []byte) uint64 {
	p.Charge(latmodel.ChecksumCost(len(data)))
	return XXHash64(data, 0)
}

// ChecksumNoCharge computes the checksum without charging virtual time;
// used when the cost is accounted at a coarser granularity.
func ChecksumNoCharge(data []byte) uint64 { return XXHash64(data, 0) }

// DigestNoCharge fingerprints msg without charging virtual time; used when
// the caller accounts hashing cost at a coarser granularity.
func DigestNoCharge(msg []byte) [DigestLen]byte { return sha256.Sum256(msg) }

// KeyedMAC is a reusable HMAC-SHA256 state bound to one key. hmac.Reset
// restores the keyed initial state, so steady-state operation re-derives
// neither the key schedule nor the inner/outer pads; Verify additionally
// computes the expected tag into a scratch buffer instead of allocating.
// Not safe for concurrent use (one per simulated process, like the
// enclaves it models).
type KeyedMAC struct {
	mac     hash.Hash
	scratch [sha256.Size]byte
}

// NewKeyedMAC binds a reusable HMAC state to key.
func NewKeyedMAC(key []byte) *KeyedMAC {
	return &KeyedMAC{mac: hmac.New(sha256.New, key)}
}

// MAC computes the tag over msg, charging keyed-hash cost to p. The tag is
// freshly allocated (callers embed tags in retained messages).
func (k *KeyedMAC) MAC(p *sim.Proc, msg []byte) []byte {
	p.Charge(latmodel.HMACCost(len(msg)))
	k.mac.Reset()
	k.mac.Write(msg)
	return k.mac.Sum(nil)
}

// Verify checks tag over msg in constant time, without heap-allocating the
// expected tag.
func (k *KeyedMAC) Verify(p *sim.Proc, msg, tag []byte) bool {
	p.Charge(latmodel.HMACCost(len(msg)))
	k.mac.Reset()
	k.mac.Write(msg)
	sum := k.mac.Sum(k.scratch[:0])
	return hmac.Equal(sum, tag)
}
