// Command ubft-node runs one member of a uBFT deployment as its own OS
// process over the real-socket transport: a replica, a memory node or a
// client host. Every process of a deployment must be started with the same
// shape flags (-f, -fm, -memnodes, -clients, -seed, -window, -tail, -app)
// and the same static -peers table; identities, keys and
// consensus configuration are derived deterministically from them, so no
// coordination service is involved.
//
// A 3-replica (f=1), 2-memory-node deployment on one machine:
//
//	PEERS='0=127.0.0.1:4000,1=127.0.0.1:4001,2=127.0.0.1:4002,100=127.0.0.1:4100,101=127.0.0.1:4101,200=127.0.0.1:4200'
//	ubft-node -role replica -index 0 -listen 127.0.0.1:4000 -memnodes 2 -peers "$PEERS" &
//	ubft-node -role replica -index 1 -listen 127.0.0.1:4001 -memnodes 2 -peers "$PEERS" &
//	ubft-node -role replica -index 2 -listen 127.0.0.1:4002 -memnodes 2 -peers "$PEERS" &
//	ubft-node -role memnode -index 0 -listen 127.0.0.1:4100 -memnodes 2 -peers "$PEERS" &
//	ubft-node -role memnode -index 1 -listen 127.0.0.1:4101 -memnodes 2 -peers "$PEERS" &
//
// The node runs until SIGINT/SIGTERM. When its stdin is a pipe it also
// exits at EOF there, so a fleet spawned by a launcher that holds the
// pipes dies with it; any other stdin (the `&` jobs above, nohup, systemd)
// is not watched. SIGUSR1 prints one progress line to stderr (view,
// recovery state, completed rejoins, slot progress, stall report,
// transport counters) and the node keeps serving. wallclock.LaunchLocal
// does all of the above automatically; `go run ./bench -workload net-kv-d8`
// measures such a fleet.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/wallclock"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run serves as the node args describe until the node is told to stop, and
// returns the exit status: 2 for a flag error and 1 for a node that cannot
// start (one line on stderr each, nothing bound), 0 for -h (the flag list)
// and after a clean stop.
func run(args []string, stderr io.Writer) int {
	var cfg wallclock.NodeConfig
	fs := flag.NewFlagSet("ubft-node", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are reported below, in one line
	cfg.RegisterFlags(fs)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		fs.SetOutput(stderr)
		fs.PrintDefaults()
		return 0
	case err != nil:
		fmt.Fprintln(stderr, "ubft-node:", err)
		return 2
	}
	if err := wallclock.RunNode(cfg); err != nil {
		fmt.Fprintln(stderr, "ubft-node:", err)
		return 1
	}
	return 0
}
