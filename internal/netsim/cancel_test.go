package netsim

import (
	"math"
	"testing"

	"corral/internal/des"
)

func TestCancelReleasesBandwidth(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var tLong des.Time
	// Two flows share the 8 Gbps uplink; the short one is canceled at
	// t=0.25s, after which the long one runs at full uplink speed.
	// Long: 8 Gb total. Phase 1 (0..0.25s) at 4 Gbps -> 1 Gb done.
	// Phase 2 at 8 Gbps -> 7 Gb / 8 Gbps = 0.875s. Total 1.125s.
	victim := n.Start(0, 4, 100*gbps, 0, 1, func(*Flow) { t.Fatal("canceled flow completed") })
	n.Start(1, 5, 8*gbps, 0, 2, func(*Flow) { tLong = sim.Now() })
	sim.At(0.25, func() { n.Cancel(victim) })
	sim.Run()
	if math.Abs(float64(tLong)-1.125) > 1e-6 {
		t.Fatalf("long flow finished at %v, want 1.125s", tLong)
	}
	if !victim.Canceled() {
		t.Fatal("victim not marked canceled")
	}
}

func TestCancelAccountsPartialBytes(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	// Cross-rack flow at 8 Gbps, canceled after 0.5s -> 4 Gb sent.
	f := n.Start(0, 4, 100*gbps, 0, 3, nil)
	sim.At(0.5, func() { n.Cancel(f) })
	sim.Run()
	want := 4 * gbps
	if math.Abs(n.CrossRackBytes()-want) > 1e3 {
		t.Fatalf("cross-rack bytes after cancel = %g, want %g", n.CrossRackBytes(), want)
	}
	if math.Abs(n.CrossRackBytesByJob(3)-want) > 1e3 {
		t.Fatalf("per-job accounting = %g, want %g", n.CrossRackBytesByJob(3), want)
	}
}

func TestCancelLoopbackSuppressesCallback(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	fired := false
	f := n.Start(2, 2, 1e9, 0, 1, func(*Flow) { fired = true })
	n.Cancel(f)
	sim.Run()
	if fired {
		t.Fatal("canceled loopback callback fired")
	}
}

func TestCancelIdempotentAndNil(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	n.Cancel(nil) // must not panic
	f := n.Start(0, 1, 1e9, 0, 1, nil)
	n.Cancel(f)
	n.Cancel(f)
	sim.Run()
	if n.ActiveFlows() != 0 {
		t.Fatal("canceled flow still active")
	}
}

func TestCancelAfterCompletionIsNoop(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	completed := false
	f := n.Start(0, 1, 1e6, 0, 1, func(*Flow) { completed = true })
	sim.Run()
	if !completed {
		t.Fatal("flow did not complete")
	}
	before := n.TotalBytes()
	n.Cancel(f)
	sim.Run()
	//corralvet:ok floateq exact identity intended: a late cancel must leave the byte accounting untouched, not merely close
	if n.TotalBytes() != before {
		t.Fatal("late cancel changed accounting")
	}
}

func TestLinkBytesAccounting(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	cl := testCluster(t)
	n.Start(0, 4, 1e9, 0, 1, nil)
	sim.Run()
	up := n.LinkBytes(cl.MachineUplink(0))
	if math.Abs(up-1e9) > 1e3 {
		t.Fatalf("uplink carried %g bytes, want 1e9", up)
	}
	rackUp := n.LinkBytes(cl.RackUplink(0))
	if math.Abs(rackUp-1e9) > 1e3 {
		t.Fatalf("rack uplink carried %g bytes, want 1e9", rackUp)
	}
	// Untouched link carried nothing.
	if got := n.LinkBytes(cl.MachineUplink(9)); got != 0 {
		t.Fatalf("idle link carried %g bytes", got)
	}
}
