package cluster_test

import (
	"errors"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// syncDriver is one synchronous driver under the failure contract: how to
// invoke it, and how to leave its engine nothing to run (background timers
// stopped, the client's process crashed).
type syncDriver struct {
	invoke func(payload []byte, maxWait sim.Duration) ([]byte, sim.Duration, error)
	starve func()
}

func crashClient(net *simnet.Network, id ids.ID) { net.Node(id).Proc().Crash() }

// TestInvokeSyncDistinguishesTimeoutFromStall holds every synchronous driver
// to one failure contract: a live deployment given too little time returns
// ErrTimeout, one whose engine runs dry returns ErrStalled, and a failed call
// returns a nil result and zero latency.
func TestInvokeSyncDistinguishesTimeoutFromStall(t *testing.T) {
	drivers := []struct {
		name  string
		build func() syncDriver
	}{
		{"UBFT", func() syncDriver {
			u := cluster.NewUBFT(cluster.Options{Seed: 1, NewApp: func() app.StateMachine { return app.NewKV(0) }})
			t.Cleanup(u.Stop)
			return syncDriver{
				invoke: func(p []byte, w sim.Duration) ([]byte, sim.Duration, error) { return u.InvokeSync(0, p, w) },
				starve: func() { u.Stop(); crashClient(u.Net, u.ClientIDs[0]) },
			}
		}},
		{"shard.Deployment", func() syncDriver {
			d := shard.New(shard.Options{Seed: 1, Shards: 2, NewApp: func(int) app.StateMachine { return app.NewKV(0) }})
			t.Cleanup(d.Stop)
			return syncDriver{
				invoke: func(p []byte, w sim.Duration) ([]byte, sim.Duration, error) { return d.InvokeSync(0, p, w) },
				starve: func() { d.Stop(); crashClient(d.Net, d.ClientIDs[0]) },
			}
		}},
		{"Unrepl", func() syncDriver {
			u := cluster.NewUnrepl(1, func() app.StateMachine { return app.NewKV(0) })
			return syncDriver{invoke: u.InvokeSync, starve: func() { crashClient(u.Net, cluster.BaselineClient) }}
		}},
		{"Mu", func() syncDriver {
			m := cluster.NewMu(cluster.MuOptions{Seed: 1, NewApp: func() app.StateMachine { return app.NewKV(0) }})
			t.Cleanup(m.Stop)
			return syncDriver{invoke: m.InvokeSync, starve: func() { m.Stop(); crashClient(m.Net, cluster.BaselineClient) }}
		}},
		{"MinBFT", func() syncDriver {
			m := cluster.NewMinBFT(cluster.MinBFTOptions{Seed: 1, NewApp: func() app.StateMachine { return app.NewKV(0) }})
			return syncDriver{invoke: m.InvokeSync, starve: func() { crashClient(m.Net, cluster.BaselineClient) }}
		}},
	}
	set := app.EncodeKVSet([]byte("k"), []byte("v"))
	for _, dr := range drivers {
		build := dr.build
		t.Run(dr.name, func(t *testing.T) {
			d := build()
			if res, lat, err := d.invoke(set, sim.Microsecond); res != nil || lat != 0 || !errors.Is(err, cluster.ErrTimeout) {
				t.Errorf("too little time: res=%v lat=%v err=%v, want nil, 0, ErrTimeout", res, lat, err)
			}
			d = build()
			d.starve()
			if res, lat, err := d.invoke(set, sim.Second); res != nil || lat != 0 || !errors.Is(err, cluster.ErrStalled) {
				t.Errorf("empty engine: res=%v lat=%v err=%v, want nil, 0, ErrStalled", res, lat, err)
			}
			if res, _, err := build().invoke(set, 50*sim.Millisecond); err != nil || len(res) != 1 || res[0] != app.KVStored {
				t.Errorf("healthy deployment: res=%v err=%v", res, err)
			}
		})
	}
	// A request the shard layer cannot route fails with the routing error
	// and is never submitted.
	t.Run("shard routing error", func(t *testing.T) {
		d := shard.New(shard.Options{Seed: 1, Shards: 2, NewApp: func(int) app.StateMachine { return app.NewKV(0) }})
		defer d.Stop()
		garbage := []byte("not a KV request")
		_, want := shard.Route(d.Groups[0].Apps[0], garbage, 2)
		res, lat, err := d.InvokeSync(0, garbage, 50*sim.Millisecond)
		if want == nil || err == nil || err.Error() != want.Error() || res != nil || lat != 0 || d.Client(0).Pending() != 0 {
			t.Fatalf("unroutable request: res=%v lat=%v err=%v pending=%d, want nil, 0, %v, 0", res, lat, err, d.Client(0).Pending(), want)
		}
	})
}
