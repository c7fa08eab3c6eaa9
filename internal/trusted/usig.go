// Package trusted simulates the SGX-based trusted component that MinBFT
// and the paper's §7.4 non-equivocation comparison rely on: a USIG (Unique
// Sequential Identifier Generator) enclave holding a monotonically
// increasing counter and a secret shared among all enclaves. Each
// invocation charges the enclave-access latency the paper measured on real
// SGX hardware (7–12.5 us, §7.4) — exactly how the paper itself emulated
// SGX on its RDMA testbed.
package trusted

import (
	"repro/internal/ids"
	"repro/internal/latmodel"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// UI is a unique sequential identifier: an unforgeable binding of a
// message to (process, counter).
type UI struct {
	Counter uint64
	MAC     []byte
}

// Secret is the symmetric key shared by all enclaves of one deployment.
// In real SGX it is provisioned via remote attestation; here the cluster
// assembler distributes it.
type Secret []byte

// NewSecret derives a deployment secret from a seed.
func NewSecret(seed int64) Secret {
	w := wire.NewWriter(16)
	w.I64(seed)
	w.I64(seed ^ 0x5F5F5F5F)
	d := xcrypto.DigestNoCharge(w.Finish())
	return Secret(d[:])
}

// USIG is one process's enclave instance.
type USIG struct {
	owner   ids.ID
	secret  Secret
	counter uint64
	proc    *sim.Proc
	// km is the enclave's keyed-hash state: one HMAC key schedule derived
	// at provisioning time and reused for every invocation.
	km *xcrypto.KeyedMAC
	// ui is the buffer every invocation encodes its UI payload into.
	ui [uiPayloadLen]byte

	// Invocations counts enclave calls (diagnostics / Fig 10 accounting).
	Invocations uint64
}

// NewUSIG creates the enclave for owner on the given process.
func NewUSIG(owner ids.ID, secret Secret, proc *sim.Proc) *USIG {
	return &USIG{owner: owner, secret: secret, proc: proc, km: xcrypto.NewKeyedMAC(secret)}
}

// Counter returns the current counter value (last assigned).
func (u *USIG) Counter() uint64 { return u.counter }

// uiPayloadLen is the length of a UI payload: owner, counter, digest.
const uiPayloadLen = 8 + 8 + xcrypto.DigestLen

// uiPayload encodes the bytes a UI binds, (owner, counter, msg's digest),
// into u.ui.
func (u *USIG) uiPayload(owner ids.ID, counter uint64, msg []byte) []byte {
	dg := xcrypto.DigestNoCharge(msg)
	w := wire.WriterOn(u.ui[:0])
	w.I64(int64(owner))
	w.U64(counter)
	w.Raw(dg[:])
	return w.Finish()
}

// CreateUI binds msg to the next counter value. Charges one enclave
// access.
func (u *USIG) CreateUI(msg []byte) UI {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	u.counter++
	return UI{Counter: u.counter, MAC: u.km.MAC(u.proc, u.uiPayload(u.owner, u.counter, msg))}
}

// VerifyUI checks that ui binds msg to (from, ui.Counter). Charges one
// enclave access (verification happens inside the enclave because the
// secret never leaves it).
func (u *USIG) VerifyUI(from ids.ID, msg []byte, ui UI) bool {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	return u.km.Verify(u.proc, u.uiPayload(from, ui.Counter, msg), ui.MAC)
}

// Authenticate produces a counterless enclave MAC over msg (used for
// replies and other messages that need authentication but no sequencing).
// Charges one enclave access.
func (u *USIG) Authenticate(msg []byte) []byte {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	return u.km.MAC(u.proc, u.uiPayload(u.owner, 0, msg))
}

// VerifyAuth checks a counterless enclave MAC from a peer. Charges one
// enclave access.
func (u *USIG) VerifyAuth(from ids.ID, msg, mac []byte) bool {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	return u.km.Verify(u.proc, u.uiPayload(from, 0, msg), mac)
}

// EncodeUI serializes a UI.
func EncodeUI(w *wire.Writer, ui UI) {
	w.U64(ui.Counter)
	w.Bytes(ui.MAC)
}

// DecodeUI parses a UI.
func DecodeUI(rd *wire.Reader) UI {
	return UI{Counter: rd.U64(), MAC: rd.Bytes()}
}
