package cluster

import "repro/internal/ids"

// BaselineClient is the node NewUnrepl, NewMu and NewMinBFT put their one
// client on.
const BaselineClient = ids.ID(clientIDBase)
