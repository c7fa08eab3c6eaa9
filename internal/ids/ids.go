// Package ids defines the process identifier type shared by every layer of
// the reproduction (network nodes, replicas, clients, memory nodes, key
// registry). Keeping it in a leaf package avoids dependency cycles between
// the crypto, network and protocol layers.
package ids

import "fmt"

// ID identifies a simulated process. Replicas, clients and memory nodes
// share one namespace.
type ID int

// None is the sentinel "no process" value.
const None ID = -1

// String renders the ID for diagnostics.
func (i ID) String() string {
	if i == None {
		return "p(none)"
	}
	return fmt.Sprintf("p%d", int(i))
}

// Others returns procs without self, in order: the peers a member of procs
// sends to.
func Others(procs []ID, self ID) []ID {
	out := make([]ID, 0, len(procs))
	for _, p := range procs {
		if p != self {
			out = append(out, p)
		}
	}
	return out
}
