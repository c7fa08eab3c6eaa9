package ids

import "testing"

func TestString(t *testing.T) {
	if got := ID(7).String(); got != "p7" {
		t.Fatalf("String = %q", got)
	}
	if got := None.String(); got != "p(none)" {
		t.Fatalf("None.String = %q", got)
	}
}

func TestNoneIsDistinct(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if ID(i) == None {
			t.Fatalf("valid id %d collides with None", i)
		}
	}
}

func TestOthers(t *testing.T) {
	procs := []ID{3, 1, 2}
	got := Others(procs, 1)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("Others = %v, want [p3 p2] in the given order", got)
	}
	if len(Others(procs, 9)) != 3 || len(procs) != 3 {
		t.Fatal("Others dropped a member that is not self, or touched its argument")
	}
}
