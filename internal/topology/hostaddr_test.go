package topology

import (
	"fmt"
	"testing"

	"repro/internal/netcfg"
)

// refHostAddr is hostAddr as two fmt.Sscanf calls wrote it.
func refHostAddr(s string) (uint32, int, error) {
	var ip string
	var length int
	if _, err := fmt.Sscanf(s, "%31s", &ip); err != nil {
		return 0, 0, err
	}
	slash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return 0, 0, fmt.Errorf("address %q missing /len", s)
	}
	addr, err := netcfg.ParseIP(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(s[slash+1:], "%d", &length); err != nil {
		return 0, 0, fmt.Errorf("address %q has invalid length", s)
	}
	return addr, length, nil
}

func checkHostAddr(t *testing.T, s string) {
	addr, length, err := hostAddr(s)
	refAddr, refLength, refErr := refHostAddr(s)
	if addr != refAddr || length != refLength || (err == nil) != (refErr == nil) ||
		(err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("hostAddr(%q) = %#x, %d, %v; Sscanf reference %#x, %d, %v",
			s, addr, length, err, refAddr, refLength, refErr)
	}
}

var hostAddrSeeds = []string{
	"10.0.0.1/24", "", "   ", "\t\n", " \r\n10.0.0.1/24", "\n10.0.0.1/24", " 10.0.0.1/24",
	"10.0.0.1", "10.0.0.1/", "10.0.0.1/ 24", "10.0.0.1/\n24", "10.0.0.1/+24", "10.0.0.1/-3",
	"10.0.0.1/33", "10.0.0.1/24 trailing", "10.0.0.1/24x", "10.0.0.1/+", "10.0.0.1/99999999999999999999",
	"10.0.0.256/24", "+10.0.0.1/24", "\xff/1", "1.2.3.4/ 1",
}

// TestHostAddrMatchesSscanf: hostAddr takes and refuses what the
// fmt.Sscanf form took and refused, with the same values and errors.
func TestHostAddrMatchesSscanf(t *testing.T) {
	for _, s := range hostAddrSeeds {
		checkHostAddr(t, s)
	}
}

func FuzzHostAddr(f *testing.F) {
	for _, s := range hostAddrSeeds {
		f.Add(s)
	}
	f.Fuzz(checkHostAddr)
}
