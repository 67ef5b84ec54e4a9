package topology

import (
	"testing"
	"testing/quick"
)

const gbps = 1e9 / 8 // bytes/sec

func paperConfig() Config {
	return Config{
		Racks:            7,
		MachinesPerRack:  30,
		SlotsPerMachine:  8,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"paper", func(c *Config) {}, true},
		{"zero racks", func(c *Config) { c.Racks = 0 }, false},
		{"zero machines", func(c *Config) { c.MachinesPerRack = 0 }, false},
		{"zero slots", func(c *Config) { c.SlotsPerMachine = 0 }, false},
		{"zero nic", func(c *Config) { c.NICBandwidth = 0 }, false},
		{"undersubscribed", func(c *Config) { c.Oversubscription = 0.5 }, false},
		{"negative background", func(c *Config) { c.BackgroundPerRack = -1 }, false},
		{"background swallows uplink", func(c *Config) { c.BackgroundPerRack = c.RackUplinkCapacity() }, false},
		{"partial background", func(c *Config) { c.BackgroundPerRack = c.RackUplinkCapacity() / 2 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := paperConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestDerivedSizes(t *testing.T) {
	cfg := paperConfig()
	if got := cfg.Machines(); got != 210 {
		t.Errorf("Machines = %d, want 210", got)
	}
	if got := cfg.Slots(); got != 210*8 {
		t.Errorf("Slots = %d, want %d", got, 210*8)
	}
	// 30 machines x 10Gbps / 5 = 60 Gbps, the paper's rack uplink.
	if got := cfg.RackUplinkCapacity(); got != 60*gbps {
		t.Errorf("RackUplinkCapacity = %g, want %g", got, 60*gbps)
	}
}

func TestRackOfAndRanges(t *testing.T) {
	c := MustNew(paperConfig())
	if got := c.RackOf(0); got != 0 {
		t.Errorf("RackOf(0) = %d", got)
	}
	if got := c.RackOf(29); got != 0 {
		t.Errorf("RackOf(29) = %d, want 0", got)
	}
	if got := c.RackOf(30); got != 1 {
		t.Errorf("RackOf(30) = %d, want 1", got)
	}
	lo, hi := c.MachinesInRack(2)
	if lo != 60 || hi != 90 {
		t.Errorf("MachinesInRack(2) = [%d,%d), want [60,90)", lo, hi)
	}
	if !c.SameRack(60, 89) || c.SameRack(59, 60) {
		t.Error("SameRack boundary behavior wrong")
	}
}

func TestPathIntraMachine(t *testing.T) {
	c := MustNew(paperConfig())
	path, cross := c.Path(5, 5)
	if path != nil || cross {
		t.Fatalf("Path(5,5) = %v cross=%v, want nil,false", path, cross)
	}
}

func TestPathIntraRack(t *testing.T) {
	c := MustNew(paperConfig())
	path, cross := c.Path(1, 2)
	if cross {
		t.Fatal("intra-rack path marked cross-rack")
	}
	if len(path) != 2 {
		t.Fatalf("intra-rack path has %d links, want 2", len(path))
	}
	if path[0] != c.MachineUplink(1) || path[1] != c.MachineDownlink(2) {
		t.Fatalf("intra-rack path = %v", path)
	}
	for _, id := range path {
		if c.IsRackBoundary(id) {
			t.Errorf("link %d wrongly marked rack boundary", id)
		}
	}
}

func TestPathCrossRack(t *testing.T) {
	c := MustNew(paperConfig())
	path, cross := c.Path(0, 200)
	if !cross {
		t.Fatal("cross-rack path not marked cross-rack")
	}
	if len(path) != 4 {
		t.Fatalf("cross-rack path has %d links, want 4", len(path))
	}
	want := []LinkID{c.MachineUplink(0), c.RackUplink(0), c.RackDownlink(c.RackOf(200)), c.MachineDownlink(200)}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
	boundaries := 0
	for _, id := range path {
		if c.IsRackBoundary(id) {
			boundaries++
		}
	}
	if boundaries != 2 {
		t.Fatalf("cross-rack path crosses %d boundary links, want 2", boundaries)
	}
}

func TestLinkCapacities(t *testing.T) {
	cfg := paperConfig()
	cfg.BackgroundPerRack = 30 * gbps
	c := MustNew(cfg)
	links := c.Links()
	up := links[c.MachineUplink(7)]
	//corralvet:ok floateq exact identity intended: the uplink capacity is copied from the config, not computed
	if up.Capacity != cfg.NICBandwidth {
		t.Errorf("machine uplink capacity = %g, want %g", up.Capacity, cfg.NICBandwidth)
	}
	ru := links[c.RackUplink(3)]
	if ru.Capacity != 30*gbps {
		t.Errorf("rack uplink capacity with background = %g, want %g", ru.Capacity, 30*gbps)
	}
}

func TestLinkCount(t *testing.T) {
	c := MustNew(paperConfig())
	want := 2*210 + 2*7
	if got := c.NumLinks(); got != want {
		t.Fatalf("NumLinks = %d, want %d", got, want)
	}
}

// Property: every valid machine pair yields a path whose links exist, with
// cross-rack flagged iff racks differ.
func TestQuickPaths(t *testing.T) {
	c := MustNew(paperConfig())
	n := c.Config.Machines()
	f := func(a, b uint16) bool {
		src, dst := int(a)%n, int(b)%n
		path, cross := c.Path(src, dst)
		if cross != (c.RackOf(src) != c.RackOf(dst)) {
			return false
		}
		for _, id := range path {
			if int(id) < 0 || int(id) >= c.NumLinks() {
				return false
			}
		}
		if src == dst && path != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteStorage(t *testing.T) {
	cfg := paperConfig()
	cfg.RemoteStorageBandwidth = 20 * gbps
	c := MustNew(cfg)
	link, ok := c.StorageLink()
	if !ok {
		t.Fatal("storage link missing")
	}
	if c.IsRackBoundary(link) {
		t.Fatal("storage interconnect misclassified as rack boundary")
	}
	if got := c.Links()[link].Capacity; got != 20*gbps {
		t.Fatalf("storage capacity = %g, want %g", got, 20*gbps)
	}
	path := c.StoragePath(35) // machine 35 is in rack 1
	want := []LinkID{link, c.RackDownlink(1), c.MachineDownlink(35)}
	if len(path) != 3 {
		t.Fatalf("storage path %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("storage path = %v, want %v", path, want)
		}
	}
}

func TestNoRemoteStorageByDefault(t *testing.T) {
	c := MustNew(paperConfig())
	if _, ok := c.StorageLink(); ok {
		t.Fatal("storage link present without configuration")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StoragePath without storage did not panic")
		}
	}()
	c.StoragePath(0)
}

func TestNegativeRemoteStorageRejected(t *testing.T) {
	cfg := paperConfig()
	cfg.RemoteStorageBandwidth = -1
	if cfg.Validate() == nil {
		t.Fatal("negative storage bandwidth accepted")
	}
}
