package nettrans

import (
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/transport"
)

// AddrTable is a concurrency-safe id -> listen-address map, the peer table
// backing Options.Resolve. Static in multi-process deployments (parsed
// from the -peers flag); filled dynamically by PerNodeFabric in-process.
type AddrTable struct {
	mu sync.RWMutex
	m  map[ids.ID]string
}

// NewAddrTable creates a table preloaded with entries (nil is fine).
func NewAddrTable(entries map[ids.ID]string) *AddrTable {
	t := &AddrTable{m: make(map[ids.ID]string)}
	for id, addr := range entries {
		t.m[id] = addr
	}
	return t
}

// Set registers (or replaces) a node's address.
func (t *AddrTable) Set(id ids.ID, addr string) {
	t.mu.Lock()
	t.m[id] = addr
	t.mu.Unlock()
}

// Resolve looks a node up (the Options.Resolve function).
func (t *AddrTable) Resolve(id ids.ID) (string, bool) {
	t.mu.RLock()
	addr, ok := t.m[id]
	t.mu.RUnlock()
	return addr, ok
}

// PerNodeFabric gives every endpoint its own Net — its own TCP listener
// and links — on one shared host loop. cluster.Build over a PerNodeFabric
// therefore runs a complete uBFT cluster inside one process with every
// message crossing a real socket: the integration-test configuration
// (and the -race workhorse) for the socket backend.
type PerNodeFabric struct {
	host  *Host
	opts  Options
	table *AddrTable

	mu   sync.Mutex
	nets map[ids.ID]*Net
}

// NewPerNodeFabric creates the fabric; opts.ListenAddr is the bind pattern
// for every per-node listener (default "127.0.0.1:0") and opts.Resolve is
// managed internally.
func NewPerNodeFabric(h *Host, opts Options) *PerNodeFabric {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	f := &PerNodeFabric{host: h, opts: opts, table: NewAddrTable(nil), nets: make(map[ids.ID]*Net)}
	f.opts.Resolve = f.table.Resolve
	return f
}

// Engine implements transport.Fabric.
func (f *PerNodeFabric) Engine() *sim.Engine { return f.host.Engine() }

// Net returns the attachment created for id (nil if absent).
func (f *PerNodeFabric) Net(id ids.ID) *Net {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nets[id]
}

// NewEndpoint implements transport.Fabric: a fresh listener per node,
// registered in the shared table.
func (f *PerNodeFabric) NewEndpoint(id ids.ID, name string) (transport.Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.nets[id]; dup {
		return nil, fmt.Errorf("nettrans: duplicate node %v", id)
	}
	n, err := Listen(f.host, f.opts)
	if err != nil {
		return nil, err
	}
	ep, err := n.NewEndpoint(id, name)
	if err != nil {
		n.Close()
		return nil, err
	}
	f.nets[id] = n
	f.table.Set(id, n.Addr())
	return ep, nil
}

// Close tears down every attachment.
func (f *PerNodeFabric) Close() {
	f.mu.Lock()
	nets := make([]*Net, 0, len(f.nets))
	for _, n := range f.nets {
		nets = append(nets, n)
	}
	f.mu.Unlock()
	for _, n := range nets {
		n.Close()
	}
}
