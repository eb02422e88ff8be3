// Package batfish substitutes for Batfish (NSDI'15) in the roles the paper
// uses it for: producing parse warnings for syntax checking, answering
// "Search Route Policies" queries symbolically, and simulating the entire
// BGP control plane as the final global check (§4.1). Go has no Batfish
// bindings, so the suite is also exposed over a REST wrapper (subpackage
// rest, served by cmd/batfishd).
package batfish

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cisco"
	"repro/internal/juniper"
	"repro/internal/netcfg"
)

// DetectVendor guesses the configuration dialect from its shape: Junos
// configurations are brace-structured, IOS configurations are line based.
func DetectVendor(text string) netcfg.Vendor {
	braces := strings.Count(text, "{") + strings.Count(text, "}")
	if braces >= 2 && strings.Contains(text, ";") {
		return netcfg.VendorJuniper
	}
	return netcfg.VendorCisco
}

// ParseConfig parses a configuration in either dialect.
func ParseConfig(text string) (*netcfg.Device, []netcfg.ParseWarning) {
	if DetectVendor(text) == netcfg.VendorJuniper {
		return juniper.Parse(text)
	}
	return cisco.Parse(text)
}

// CheckSyntax returns all parse and lint warnings for a configuration in
// either dialect — the paper's syntax-verifier stage (Figure 3).
func CheckSyntax(text string) []netcfg.ParseWarning {
	if DetectVendor(text) == netcfg.VendorJuniper {
		return juniper.Check(text)
	}
	return cisco.Check(text)
}

// ParseAndCheck parses a configuration once, in either dialect, and
// returns the complete parse product: the device, the parse warnings, and
// the full syntax-check warnings. This is the single-parse feed for
// netcfg.ParseCache — one parse per configuration revision serves the
// syntax, topology, local-policy, and simulation stages alike.
func ParseAndCheck(text string) *netcfg.Parsed {
	var p netcfg.Parsed
	if DetectVendor(text) == netcfg.VendorJuniper {
		p.Device, p.ParseWarnings, p.CheckWarnings = juniper.ParseAndCheck(text)
	} else {
		p.Device, p.ParseWarnings, p.CheckWarnings = cisco.ParseAndCheck(text)
	}
	return &p
}

// NewParseCache returns a shared parse cache over both dialects, keyed by
// the configuration text, so each revision is parsed exactly once per
// cache no matter how many verifier stages inspect it.
func NewParseCache() *netcfg.ParseCache {
	return netcfg.NewParseCache(ParseAndCheck)
}

// Snapshot is a set of parsed device configurations, keyed by hostname —
// the folder the paper's Composer assembles "for Batfish".
type Snapshot struct {
	Devices  map[string]*netcfg.Device
	Warnings map[string][]netcfg.ParseWarning
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Devices:  make(map[string]*netcfg.Device),
		Warnings: make(map[string][]netcfg.ParseWarning),
	}
}

// AddConfig parses and adds one configuration under the given name.
func (s *Snapshot) AddConfig(name, text string) {
	dev, warns := ParseConfig(text)
	if dev.Hostname == "" {
		dev.Hostname = name
	}
	s.Devices[name] = dev
	s.Warnings[name] = warns
}

// DeviceNames returns the device names in sorted order.
func (s *Snapshot) DeviceNames() []string {
	names := make([]string, 0, len(s.Devices))
	for n := range s.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoadSnapshot reads every *.cfg file in a directory into a snapshot, the
// device name being the file basename without extension.
func LoadSnapshot(dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading snapshot directory: %w", err)
	}
	s := NewSnapshot()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cfg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", e.Name(), err)
		}
		s.AddConfig(strings.TrimSuffix(e.Name(), ".cfg"), string(data))
	}
	if len(s.Devices) == 0 {
		return nil, fmt.Errorf("no *.cfg files in %s", dir)
	}
	return s, nil
}
