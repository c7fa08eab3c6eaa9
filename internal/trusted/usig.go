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

	// Invocations counts enclave calls (diagnostics / Fig 10 accounting).
	Invocations uint64
}

// NewUSIG creates the enclave for owner on the given process.
func NewUSIG(owner ids.ID, secret Secret, proc *sim.Proc) *USIG {
	return &USIG{owner: owner, secret: secret, proc: proc, km: xcrypto.NewKeyedMAC(secret)}
}

// Counter returns the current counter value (last assigned).
func (u *USIG) Counter() uint64 { return u.counter }

func appendUIPayload(w *wire.Writer, owner ids.ID, counter uint64, msg []byte) {
	dg := xcrypto.DigestNoCharge(msg)
	w.I64(int64(owner))
	w.U64(counter)
	w.Raw(dg[:])
}

// CreateUI binds msg to the next counter value. Charges one enclave
// access.
func (u *USIG) CreateUI(msg []byte) UI {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	u.counter++
	w := wire.GetWriter(64)
	appendUIPayload(w, u.owner, u.counter, msg)
	mac := u.km.MAC(u.proc, w.Finish())
	wire.PutWriter(w)
	return UI{Counter: u.counter, MAC: mac}
}

// VerifyUI checks that ui binds msg to (from, ui.Counter). Charges one
// enclave access (verification happens inside the enclave because the
// secret never leaves it).
func (u *USIG) VerifyUI(from ids.ID, msg []byte, ui UI) bool {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	w := wire.GetWriter(64)
	appendUIPayload(w, from, ui.Counter, msg)
	ok := u.km.Verify(u.proc, w.Finish(), ui.MAC)
	wire.PutWriter(w)
	return ok
}

// Authenticate produces a counterless enclave MAC over msg (used for
// replies and other messages that need authentication but no sequencing).
// Charges one enclave access.
func (u *USIG) Authenticate(msg []byte) []byte {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	w := wire.GetWriter(64)
	appendUIPayload(w, u.owner, 0, msg)
	mac := u.km.MAC(u.proc, w.Finish())
	wire.PutWriter(w)
	return mac
}

// VerifyAuth checks a counterless enclave MAC from a peer. Charges one
// enclave access.
func (u *USIG) VerifyAuth(from ids.ID, msg, mac []byte) bool {
	u.Invocations++
	u.proc.Charge(latmodel.EnclaveCost(len(msg)))
	w := wire.GetWriter(64)
	appendUIPayload(w, from, 0, msg)
	ok := u.km.Verify(u.proc, w.Finish(), mac)
	wire.PutWriter(w)
	return ok
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
