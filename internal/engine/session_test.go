package engine

import (
	"testing"

	"djstar/internal/sched"
)

// TestResolveKeepsBaseFuseOptions checks that a spec enabling fusion
// keeps the fusion tuning of the base config.
func TestResolveKeepsBaseFuseOptions(t *testing.T) {
	base := fastConfig(sched.NameSequential, 1)
	base.Fuse.MaxLen = 3
	base.Fuse.MaxCostUS = 40
	c := SessionSpec{Fuse: true}.Resolve(base)
	if !c.FusePlan {
		t.Fatal("Fuse: true did not enable FusePlan")
	}
	if c.Fuse.MaxLen != 3 || c.Fuse.MaxCostUS != 40 {
		t.Fatalf("Fuse options = %+v, want the base's MaxLen 3, MaxCostUS 40", c.Fuse)
	}
	if base.FusePlan {
		t.Fatal("Resolve mutated the base config")
	}
}
