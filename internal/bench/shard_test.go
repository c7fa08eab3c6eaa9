package bench

import "testing"

// TestShardScalingLinear is the acceptance gate of the horizontal-scaling
// work: 4 shards on the same fabric must deliver at least 3x the decided-
// requests-per-virtual-second of 1 shard (ideal is 4x; the allowance
// covers pipeline fill/drain edges at small sample counts).
func TestShardScalingLinear(t *testing.T) {
	const perShard, depth = 120, 4
	one := ShardScaling(1, 1, depth, perShard)
	four := ShardScaling(1, 4, depth, perShard)

	if one.Completed != perShard || four.Completed != 4*perShard {
		t.Fatalf("incomplete runs: S1 %d/%d, S4 %d/%d", one.Completed, perShard, four.Completed, 4*perShard)
	}
	if one.OpsPerSec <= 0 {
		t.Fatalf("S=1 throughput %v", one.OpsPerSec)
	}
	speedup := four.OpsPerSec / one.OpsPerSec
	t.Logf("S=1: %.1f kops, S=4: %.1f kops, speedup %.2fx (decided %d vs %d)",
		one.OpsPerSec/1000, four.OpsPerSec/1000, speedup, one.Decided, four.Decided)
	if speedup < 3.0 {
		t.Fatalf("S=4 speedup %.2fx < 3x over S=1", speedup)
	}
	// A slot carries what queued behind the previous one: at most the
	// pipeline depth, so every group must have decided its share of slots.
	if four.Decided < 4*perShard/depth {
		t.Fatalf("S=4 decided only %d slots, want >= %d", four.Decided, 4*perShard/depth)
	}
}
