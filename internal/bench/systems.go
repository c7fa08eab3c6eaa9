package bench

import (
	"repro/internal/app"
	"repro/internal/baselines/minbft"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/ctbcast"
	"repro/internal/sim"
)

// System abstracts "a deployed service a client can invoke" so the same
// runner drives uBFT and every baseline.
type System interface {
	Invoke(payload []byte, done func(result []byte, latency sim.Duration))
	Engine() *sim.Engine
	// Stop tears down background timers so engines drain.
	Stop()
}

// --- uBFT -------------------------------------------------------------

type ubftSystem struct{ c *cluster.UBFT }

// NewUBFTSystem deploys uBFT with the given options.
func NewUBFTSystem(opts cluster.Options) System {
	return &ubftSystem{c: cluster.NewUBFT(opts)}
}

func (s *ubftSystem) Invoke(p []byte, done func([]byte, sim.Duration)) {
	s.c.Clients[0].Invoke(p, done)
}
func (s *ubftSystem) Engine() *sim.Engine { return s.c.Eng }
func (s *ubftSystem) Stop()               { s.c.Stop() }

// NewUBFTFast deploys uBFT in its production fast-path configuration.
func NewUBFTFast(seed int64, newApp func() app.StateMachine) System {
	return NewUBFTSystem(cluster.Options{Seed: seed, NewApp: newApp})
}

// NewUBFTSlow deploys uBFT pinned to its slow path (failure-suspicion
// mode: signed CTBcast, Certify/Commit).
func NewUBFTSlow(seed int64, newApp func() app.StateMachine) System {
	return NewUBFTSystem(cluster.Options{
		Seed:            seed,
		NewApp:          newApp,
		DisableFastPath: true,
		CTBMode:         ctbcast.SlowOnly,
	})
}

// NewUBFTNoEcho deploys uBFT with the §5.4 echo round switched off (the
// no-echo-round ablation): the leader proposes and followers endorse
// without waiting for the client's direct request copy.
func NewUBFTNoEcho(seed int64) System {
	c, err := cluster.BuildWithDefenses(cluster.Options{Seed: seed}, consensus.Defenses{NoEchoWait: true})
	if err != nil {
		panic(err)
	}
	return &ubftSystem{c: c}
}

// --- Unreplicated -----------------------------------------------------

type unreplSystem struct{ c *cluster.Unrepl }

// NewUnreplSystem deploys the unreplicated baseline.
func NewUnreplSystem(seed int64, newApp func() app.StateMachine) System {
	return &unreplSystem{c: cluster.NewUnrepl(seed, newApp)}
}

func (s *unreplSystem) Invoke(p []byte, done func([]byte, sim.Duration)) { s.c.Client.Invoke(p, done) }
func (s *unreplSystem) Engine() *sim.Engine                              { return s.c.Eng }
func (s *unreplSystem) Stop()                                            {}

// --- Mu ---------------------------------------------------------------

type muSystem struct{ c *cluster.Mu }

// NewMuSystem deploys the Mu baseline.
func NewMuSystem(seed int64, newApp func() app.StateMachine) System {
	return &muSystem{c: cluster.NewMu(cluster.MuOptions{Seed: seed, NewApp: newApp})}
}

func (s *muSystem) Invoke(p []byte, done func([]byte, sim.Duration)) { s.c.Client.Invoke(p, done) }
func (s *muSystem) Engine() *sim.Engine                              { return s.c.Eng }
func (s *muSystem) Stop()                                            { s.c.Stop() }

// --- MinBFT -----------------------------------------------------------

type minbftSystem struct{ c *cluster.MinBFT }

// NewMinBFTSystem deploys the MinBFT baseline in the given variant.
func NewMinBFTSystem(seed int64, mode minbft.Mode, newApp func() app.StateMachine) System {
	return &minbftSystem{c: cluster.NewMinBFT(cluster.MinBFTOptions{Seed: seed, Mode: mode, NewApp: newApp})}
}

func (s *minbftSystem) Invoke(p []byte, done func([]byte, sim.Duration)) { s.c.Client.Invoke(p, done) }
func (s *minbftSystem) Engine() *sim.Engine                              { return s.c.Eng }
func (s *minbftSystem) Stop()                                            {}
