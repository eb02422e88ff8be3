package netcfg

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refParseIP is ParseIP as strings.Split and strconv.Atoi wrote it, less
// the sign Atoi admits: the reference the digit scanner must agree with.
func refParseIP(s string) (uint32, error) {
	parts := strings.Split(strings.TrimSpace(s), ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("invalid IPv4 address %q", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := refAtoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("invalid IPv4 address %q", s)
		}
		v = v<<8 | uint32(n)
	}
	return v, nil
}

// refParseCommunity is ParseCommunity as strconv.Atoi wrote it, less the
// sign.
func refParseCommunity(s string) (Community, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, fmt.Errorf("community %q missing ':'", s)
	}
	high, err := refAtoi(s[:colon])
	if err != nil || high < 0 || high > 0xffff {
		return 0, fmt.Errorf("invalid community %q", s)
	}
	low, err := refAtoi(s[colon+1:])
	if err != nil || low < 0 || low > 0xffff {
		return 0, fmt.Errorf("invalid community %q", s)
	}
	return NewCommunity(uint16(high), uint16(low)), nil
}

// refParseHostPrefix is ParseHostPrefix as strconv.Atoi wrote it, less
// the sign.
func refParseHostPrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("prefix %q missing /len", s)
	}
	addr, err := refParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	length, err := refAtoi(s[slash+1:])
	if err != nil || length < 0 || length > 32 {
		return Prefix{}, fmt.Errorf("invalid prefix length in %q", s)
	}
	return Prefix{Addr: addr, Len: length}, nil
}

// refParsePrefix is ParsePrefix as strconv.Atoi wrote it, less the sign.
func refParsePrefix(s string) (Prefix, error) {
	p, err := refParseHostPrefix(s)
	if err != nil {
		return Prefix{}, err
	}
	return NewPrefix(p.Addr, p.Len), nil
}

// refAtoi is strconv.Atoi refusing a leading sign.
func refAtoi(s string) (int, error) {
	if strings.HasPrefix(s, "+") || strings.HasPrefix(s, "-") {
		return 0, fmt.Errorf("signed number %q", s)
	}
	return strconv.Atoi(s)
}

// checkScan holds ScanDecimal(s, max) to strconv.ParseUint on the run of
// digits that starts s: the same value and rest when that run is non-empty
// and worth at most max, a refusal otherwise.
func checkScan(t *testing.T, s string, max uint32) {
	t.Helper()
	digits := len(s) - len(strings.TrimLeft(s, "0123456789"))
	want, err := strconv.ParseUint(s[:digits], 10, 64)
	wantOK := digits > 0 && err == nil && want <= uint64(max)
	n, rest, ok := ScanDecimal(s, max)
	switch {
	case ok != wantOK:
		t.Fatalf("ScanDecimal(%q, %d) ok = %v; reference %v (%d, %v)", s, max, ok, wantOK, want, err)
	case ok && (uint64(n) != want || rest != s[digits:]):
		t.Fatalf("ScanDecimal(%q, %d) = %d, %q; reference %d, %q", s, max, n, rest, want, s[digits:])
	case !ok && (n != 0 || rest != s):
		t.Fatalf("ScanDecimal(%q, %d) refused with %d, %q; want 0 and the whole text", s, max, n, rest)
	}
}

func sameResult[T comparable](t *testing.T, what, in string, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || got != want ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s(%q) = %v, %v; reference %v, %v", what, in, got, gotErr, want, wantErr)
	}
}

// checkText holds the parsers to their strconv references on s, and the
// formatters to their fmt forms on v and length, with both round trips.
func checkText(t *testing.T, s string, v uint32, length int) {
	ip, err := ParseIP(s)
	refIP, refErr := refParseIP(s)
	sameResult(t, "ParseIP", s, ip, err, refIP, refErr)
	c, err := ParseCommunity(s)
	refC, refErr := refParseCommunity(s)
	sameResult(t, "ParseCommunity", s, c, err, refC, refErr)
	pfx, err := ParsePrefix(s)
	refPfx, refErr := refParsePrefix(s)
	sameResult(t, "ParsePrefix", s, pfx, err, refPfx, refErr)
	host, err := ParseHostPrefix(s)
	refHost, refErr := refParseHostPrefix(s)
	sameResult(t, "ParseHostPrefix", s, host, err, refHost, refErr)
	checkScan(t, s, math.MaxUint32)
	checkScan(t, s, v)

	if got, want := FormatIP(v), fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xff, v>>8&0xff, v&0xff); got != want {
		t.Fatalf("FormatIP(%#x) = %q, want %q", v, got, want)
	}
	p := Prefix{Addr: v, Len: length}
	if got, want := p.String(), fmt.Sprintf("%s/%d", FormatIP(v), length); got != want {
		t.Fatalf("Prefix%+v.String() = %q, want %q", p, got, want)
	}
	if got, want := string(p.Append([]byte("x"))), "x"+p.String(); got != want {
		t.Fatalf("Prefix%+v.Append = %q, want %q", p, got, want)
	}
	if got, want := p.MaskString(), FormatIP(Mask(length)); got != want {
		t.Fatalf("MaskString(%d) = %q, want %q", length, got, want)
	}
	if got, want := p.WildcardString(), FormatIP(^Mask(length)); got != want {
		t.Fatalf("WildcardString(%d) = %q, want %q", length, got, want)
	}
	comm := Community(v)
	if got, want := comm.String(), fmt.Sprintf("%d:%d", v>>16, v&0xffff); got != want {
		t.Fatalf("Community(%#x).String() = %q, want %q", v, got, want)
	}
	if got, err := ParseIP(FormatIP(v)); err != nil || got != v {
		t.Fatalf("ParseIP(FormatIP(%#x)) = %#x, %v", v, got, err)
	}
	if got, err := ParseCommunity(comm.String()); err != nil || got != comm {
		t.Fatalf("ParseCommunity(%q) = %v, %v", comm.String(), got, err)
	}
}

// numberSeeds are texts at the scanners' edges: signs, leading zeros,
// overflow (of 32 bits too), spaces, and stray separators.
var numberSeeds = []string{
	"", "1.2.3.4", " 10.0.0.1\t", "255.255.255.255", "256.0.0.0", "0255.0.0.00001",
	"000000000000000000000001.2.3.4", "99999999999999999999.1.2.3", "1.2.3", "1.2.3.4.",
	"1..2.3", "+1.2.3.4", "-0.1.2.3", "1.+2.3.4", "1.2.3.-4", "1. 2.3.4", " 1.2.3.4",
	"100:1", "0:0", "65535:65535", "65536:1", "100:65536", "+100:-0", "-1:1", "100:+1",
	"00100:0001", "100:1:2", ":1", "100:", " 100:1", "a:b",
	"10.0.0.0/8", "10.0.0.0/+8", "10.0.0.0/-0", "+10.0.0.0/8", "1.2.3.4/32", "1.2.3.4/33",
	"1.2.3.4/", "1.2.3.4/008", "1.2.3.4/99999999999999999999", "/8", "1.2.3.4/8/8", " 1.2.3.4/8",
	"4294967295", "4294967296", "4294967297", "4294967301", "99999999999", "42949672950",
	"0004294967295x", "429496729", "18446744073709551617",
	"10.0.0.1/24", "10.0.0.1/ 24", "10.0.0.1/24junk", "10.0.0.1/99", " \r\n10.0.0.1/24",
}

func TestNumberTextMatchesReference(t *testing.T) {
	for i, s := range numberSeeds {
		checkText(t, s, uint32(i)*0x9e3779b9, i%40-4)
	}
}

// FuzzNumberText holds ParseIP, ParseCommunity, ParsePrefix,
// ParseHostPrefix and ScanDecimal (under math.MaxUint32 and under v) to
// the strconv references above on arbitrary text, and FormatIP,
// Prefix.String and Append, MaskString, WildcardString and
// Community.String to their fmt forms on arbitrary values, round trips
// included.
func FuzzNumberText(f *testing.F) {
	for i, s := range numberSeeds {
		f.Add(s, uint32(i)*0x9e3779b9, int8(i%40-4))
	}
	f.Fuzz(func(t *testing.T, s string, v uint32, length int8) {
		checkText(t, s, v, int(length))
	})
}

// TestParseRejectsSigns: IOS and Junos take no sign in an address, a
// community or a prefix length, and strconv.Atoi used to let one through.
func TestParseRejectsSigns(t *testing.T) {
	for _, s := range []string{"+1.2.3.4", "-0.1.2.3", "1.2.+3.4", "10.0.0.-1"} {
		if v, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) = %#x, want an error", s, v)
		}
	}
	for _, s := range []string{"+100:-0", "+100:1", "100:+1", "-0:0"} {
		if c, err := ParseCommunity(s); err == nil {
			t.Errorf("ParseCommunity(%q) = %v, want an error", s, c)
		}
	}
	for _, s := range []string{"10.0.0.0/+8", "10.0.0.0/-0", "+10.0.0.0/8"} {
		if p, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) = %v, want an error", s, p)
		}
	}
}
