package ubft

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/nettrans"
	"repro/internal/shard"
)

// TestSettableValues pins the settable values ROADMAP item 9 counts: the
// fields of the option structs and the parameters of the client
// constructors. A value is added or removed together with item 9's count.
func TestSettableValues(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"cluster.Options fields", reflect.TypeFor[cluster.Options]().NumField(), 14},
		{"consensus.Config fields", reflect.TypeFor[consensus.Config]().NumField(), 13},
		{"consensus.Mode fields", reflect.TypeFor[consensus.Mode]().NumField(), 3},
		{"shard.Options fields", reflect.TypeFor[shard.Options]().NumField(), 7},
		{"nettrans.Options fields", reflect.TypeFor[nettrans.Options]().NumField(), 2},
		{"cluster.MemberSpec fields", reflect.TypeFor[cluster.MemberSpec]().NumField(), 3},
		{"consensus.NewClient parameters", reflect.TypeOf(consensus.NewClient).NumIn(), 2},
		{"consensus.NewMultiClient parameters", reflect.TypeOf(consensus.NewMultiClient).NumIn(), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, but ROADMAP item 9 counts %d: update item 9's settable values with the change", c.what, c.got, c.want)
		}
	}
}
