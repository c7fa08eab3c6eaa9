package cluster

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/baselines/minbft"
	"repro/internal/baselines/mu"
	"repro/internal/baselines/unrepl"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trusted"
	"repro/internal/xcrypto"
)

// Unrepl is an assembled unreplicated deployment (1 server, 1 client).
type Unrepl struct {
	Eng    *sim.Engine
	Net    *simnet.Network
	Server *unrepl.Server
	Client *unrepl.Client
	App    app.StateMachine
}

// NewUnrepl builds the unreplicated baseline.
func NewUnrepl(seed int64, newApp func() app.StateMachine) *Unrepl {
	if newApp == nil {
		newApp = func() app.StateMachine { return app.NewFlip() }
	}
	u := &Unrepl{Eng: sim.NewEngine(seed)}
	u.Net = simnet.New(u.Eng, simnet.RDMAOptions())
	srt := router.New(u.Net.AddNode(0, "server"))
	crt := router.New(u.Net.AddNode(clientIDBase, "client"))
	u.App = newApp()
	u.Server = unrepl.NewServer(srt, u.App)
	u.Client = unrepl.NewClient(crt, 0)
	return u
}

// InvokeSync submits a request and runs until the response arrives; it
// fails as UBFT.InvokeSync does.
func (u *Unrepl) InvokeSync(payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error) {
	return SyncInvoke(u.Eng, maxWait, func(done func([]byte, sim.Duration)) error {
		u.Client.Invoke(payload, done)
		return nil
	})
}

// Mu is an assembled Mu deployment (2f+1 replicas, 1 client).
type Mu struct {
	Eng      *sim.Engine
	Net      *simnet.Network
	Replicas []*mu.Replica
	Apps     []app.StateMachine
	Client   *mu.Client
	IDs      []ids.ID
}

// MuOptions configures the Mu baseline.
type MuOptions struct {
	Seed             int64
	F                int // default 1
	NewApp           func() app.StateMachine
	HeartbeatTimeout sim.Duration
}

// NewMu builds the Mu baseline cluster.
func NewMu(opts MuOptions) *Mu {
	if opts.F == 0 {
		opts.F = 1
	}
	if opts.NewApp == nil {
		opts.NewApp = func() app.StateMachine { return app.NewFlip() }
	}
	m := &Mu{Eng: sim.NewEngine(opts.Seed)}
	m.Net = simnet.New(m.Eng, simnet.RDMAOptions())
	n := 2*opts.F + 1
	for i := 0; i < n; i++ {
		m.IDs = append(m.IDs, ids.ID(i))
	}
	for i, id := range m.IDs {
		rt := router.New(m.Net.AddNode(id, fmt.Sprintf("mu%d", i)))
		a := opts.NewApp()
		m.Apps = append(m.Apps, a)
		m.Replicas = append(m.Replicas, mu.NewReplica(mu.Config{
			Self:             id,
			Replicas:         m.IDs,
			App:              a,
			HeartbeatTimeout: opts.HeartbeatTimeout,
		}, rt))
	}
	crt := router.New(m.Net.AddNode(clientIDBase, "client"))
	m.Client = mu.NewClient(crt, m.IDs)
	return m
}

// Stop tears down replica timers.
func (m *Mu) Stop() {
	for _, r := range m.Replicas {
		r.Stop()
	}
}

// InvokeSync submits a request and runs until the response arrives; it
// fails as UBFT.InvokeSync does.
func (m *Mu) InvokeSync(payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error) {
	return SyncInvoke(m.Eng, maxWait, func(done func([]byte, sim.Duration)) error {
		m.Client.Invoke(payload, done)
		return nil
	})
}

// MinBFT is an assembled MinBFT deployment over kernel-bypass TCP.
type MinBFT struct {
	Eng      *sim.Engine
	Net      *simnet.Network
	Replicas []*minbft.Replica
	Apps     []app.StateMachine
	Client   *minbft.Client
	IDs      []ids.ID
}

// MinBFTOptions configures the MinBFT baseline.
type MinBFTOptions struct {
	Seed   int64
	F      int // default 1
	Mode   minbft.Mode
	NewApp func() app.StateMachine
}

// NewMinBFT builds the MinBFT baseline cluster.
func NewMinBFT(opts MinBFTOptions) *MinBFT {
	if opts.F == 0 {
		opts.F = 1
	}
	if opts.NewApp == nil {
		opts.NewApp = func() app.StateMachine { return app.NewFlip() }
	}
	m := &MinBFT{Eng: sim.NewEngine(opts.Seed)}
	m.Net = simnet.New(m.Eng, simnet.TCPOptions())
	n := 2*opts.F + 1
	for i := 0; i < n; i++ {
		m.IDs = append(m.IDs, ids.ID(i))
	}
	clientID := ids.ID(clientIDBase)
	secret := trusted.NewSecret(opts.Seed + 7)
	reg := xcrypto.NewRegistry(opts.Seed+8, append(append([]ids.ID{}, m.IDs...), clientID))
	for i, id := range m.IDs {
		rt := router.New(m.Net.AddNode(id, fmt.Sprintf("minbft%d", i)))
		a := opts.NewApp()
		m.Apps = append(m.Apps, a)
		m.Replicas = append(m.Replicas, minbft.NewReplica(minbft.Config{
			Self:     id,
			Replicas: m.IDs,
			F:        opts.F,
			Mode:     opts.Mode,
			App:      a,
		}, minbft.Deps{RT: rt, Secret: secret, Registry: reg}))
	}
	crt := router.New(m.Net.AddNode(clientID, "client"))
	m.Client = minbft.NewClient(crt, m.IDs, opts.F, opts.Mode, secret, reg)
	return m
}

// InvokeSync submits a request and runs until the response arrives; it
// fails as UBFT.InvokeSync does.
func (m *MinBFT) InvokeSync(payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error) {
	return SyncInvoke(m.Eng, maxWait, func(done func([]byte, sim.Duration)) error {
		m.Client.Invoke(payload, done)
		return nil
	})
}
