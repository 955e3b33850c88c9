package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestDefaultMatchesTable2(t *testing.T) {
	c := Default()
	if c.L1.SizeBytes != 32<<10 || c.L1.Ways != 8 || c.L1.LatencyCycles != 2 {
		t.Errorf("L1 = %+v, want 32KB 8-way 2-cycle", c.L1)
	}
	if c.L2.SizeBytes != 512<<10 || c.L2.LatencyCycles != 16 {
		t.Errorf("L2 = %+v, want 512KB 16-cycle", c.L2)
	}
	if c.L3.SizeBytes != 4<<20 || c.L3.LatencyCycles != 30 {
		t.Errorf("L3 = %+v, want 4MB 30-cycle", c.L3)
	}
	if c.CounterCache.SizeBytes != 256<<10 || c.CounterCache.LatencyCycles != 8 {
		t.Errorf("counter cache = %+v, want 256KB 8-cycle", c.CounterCache)
	}
	if c.MemBytes != 8<<30 || c.Banks != 8 {
		t.Errorf("memory = %d bytes %d banks, want 8GB 8 banks", c.MemBytes, c.Banks)
	}
	if c.WriteQueueEntries != 32 {
		t.Errorf("write queue = %d entries, want 32", c.WriteQueueEntries)
	}
	if c.AESCycles != 24 {
		t.Errorf("AES latency = %d, want 24 cycles", c.AESCycles)
	}
	// 63 ns reads and 300 ns writes at 2 GHz.
	if c.ReadCycles != 126 || c.WriteCycles != 600 {
		t.Errorf("PCM latency = %d/%d cycles, want 126/600", c.ReadCycles, c.WriteCycles)
	}
}

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s            Scheme
		encrypted    bool
		writeThrough bool
		cwc          bool
		placement    Placement
		name         string
	}{
		{Unsec, false, false, false, SingleBank, "Unsec"},
		{WB, true, false, false, SingleBank, "WB"},
		{WT, true, true, false, SingleBank, "WT"},
		{WTCWC, true, true, true, SingleBank, "WT+CWC"},
		{WTXBank, true, true, false, XBank, "WT+XBank"},
		{SuperMem, true, true, true, XBank, "SuperMem"},
	}
	for _, c := range cases {
		if got := c.s.Encrypted(); got != c.encrypted {
			t.Errorf("%v.Encrypted() = %v, want %v", c.s, got, c.encrypted)
		}
		if got := c.s.WriteThrough(); got != c.writeThrough {
			t.Errorf("%v.WriteThrough() = %v, want %v", c.s, got, c.writeThrough)
		}
		if got := c.s.CWC(); got != c.cwc {
			t.Errorf("%v.CWC() = %v, want %v", c.s, got, c.cwc)
		}
		if got := c.s.CounterPlacement(); got != c.placement {
			t.Errorf("%v.CounterPlacement() = %v, want %v", c.s, got, c.placement)
		}
		if got := c.s.String(); got != c.name {
			t.Errorf("Scheme.String() = %q, want %q", got, c.name)
		}
	}
}

func TestAllSchemesOrder(t *testing.T) {
	all := AllSchemes()
	want := []Scheme{Unsec, WB, WT, WTCWC, WTXBank, SuperMem}
	if len(all) != len(want) {
		t.Fatalf("AllSchemes() has %d entries, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("AllSchemes()[%d] = %v, want %v", i, all[i], want[i])
		}
	}
}

func TestOverrides(t *testing.T) {
	c := Default().WithScheme(WT)
	if c.Placement() != SingleBank || c.CWC() {
		t.Fatalf("WT should default to SingleBank without CWC")
	}
	p := SameBank
	cwc := true
	c.PlacementOverride = &p
	c.CWCOverride = &cwc
	if c.Placement() != SameBank {
		t.Errorf("placement override ignored: got %v", c.Placement())
	}
	if !c.CWC() {
		t.Errorf("CWC override ignored")
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "cores"},
		{"negative ways", func(c *Config) { c.L1.Ways = -1 }, "positive"},
		{"non-pow2 sets", func(c *Config) { c.L2.SizeBytes = 3 * (c.L2.Ways * LineSize) }, "power of two"},
		{"odd size", func(c *Config) { c.L3.SizeBytes = c.L3.Ways*LineSize + 7 }, "divisible"},
		{"zero memory", func(c *Config) { c.MemBytes = 0 }, "capacity"},
		{"unaligned memory", func(c *Config) { c.MemBytes = PageSize + 64 }, "multiple"},
		{"three banks", func(c *Config) { c.Banks = 3 }, "power of two"},
		{"one bank", func(c *Config) { c.Banks = 1 }, "power of two >= 2"},
		{"five banks", func(c *Config) { c.Banks = 5 }, "power of two"},
		{"128 banks", func(c *Config) { c.Banks = 128 }, "limit of 64"},
		{"zero wq", func(c *Config) { c.WriteQueueEntries = 0 }, "write queue"},
		{"one-entry wq", func(c *Config) { c.WriteQueueEntries = 1 }, "data+counter pair"},
		{"zero write latency", func(c *Config) { c.WriteCycles = 0 }, "service"},
		{"zero retry limit", func(c *Config) { c.ReadRetryLimit = 0 }, "retry limit"},
		{"huge retry limit", func(c *Config) { c.ReadRetryLimit = 1000 }, "retry limit"},
		{"negative quarantine", func(c *Config) { c.BankQuarantineThreshold = -1 }, "quarantine"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate() accepted invalid config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
	c := Default()
	c.Banks = MaxBanks
	if err := c.Validate(); err != nil {
		t.Errorf("%d banks rejected: %v", MaxBanks, err)
	}
}

func TestCacheSets(t *testing.T) {
	cc := CacheConfig{SizeBytes: 256 << 10, Ways: 8}
	if got := cc.Sets(); got != 512 {
		t.Errorf("256KB 8-way: Sets() = %d, want 512", got)
	}
}

func TestLineAndPageConstants(t *testing.T) {
	if LineSize != 64 || PageSize != 4096 || LinesPerPage != 64 {
		t.Fatalf("line/page constants changed: %d %d %d", LineSize, PageSize, LinesPerPage)
	}
}

func TestPlacementString(t *testing.T) {
	if SingleBank.String() != "SingleBank" || SameBank.String() != "SameBank" || XBank.String() != "XBank" {
		t.Error("placement names wrong")
	}
	if !strings.Contains(Placement(99).String(), "99") {
		t.Error("unknown placement should include numeric value")
	}
	if !strings.Contains(Scheme(42).String(), "42") {
		t.Error("unknown scheme should include numeric value")
	}
}

func TestValidateRejectsUnregisteredScheme(t *testing.T) {
	cfg := Default()
	cfg.Scheme = Scheme(99)
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted an unregistered scheme")
	}
	if !strings.Contains(err.Error(), "registry") {
		t.Errorf("error %q should point at the scheme registry", err)
	}
	// Every registered scheme validates with the default config.
	for _, s := range ExtendedSchemes() {
		if err := Default().WithScheme(s).Validate(); err != nil {
			t.Errorf("%v: Validate() = %v", s, err)
		}
	}
}
