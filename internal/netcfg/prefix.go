// Package netcfg defines the vendor-neutral intermediate representation (IR)
// shared by every other module in the repository: devices, interfaces, BGP and
// OSPF processes, prefix lists, community lists, and route policies, together
// with concrete route announcements and a reference evaluator for route
// policies.
//
// Both the Cisco and Juniper front ends parse into this IR; Campion diffs two
// IR devices; the Batfish substitute evaluates IR route policies; and the
// simulated LLM plans its output (and its injected errors) as IR mutations.
package netcfg

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 prefix: a 32-bit address plus a prefix length.
// Only the top Len bits of Addr are significant; constructors normalize the
// remaining bits to zero so Prefix values are comparable with ==.
type Prefix struct {
	Addr uint32
	Len  int
}

// Mask returns the network mask implied by the prefix length.
func Mask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - length)
}

// NewPrefix builds a normalized prefix from an address and length.
func NewPrefix(addr uint32, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & Mask(length), Len: length}
}

// ParseIP parses a dotted-quad IPv4 address into its 32-bit value. Each
// part is one or more ASCII digits (leading zeros allowed) worth at most
// 255; a sign is not a digit, so "+1.2.3.4" is refused as IOS refuses it.
func ParseIP(s string) (uint32, error) {
	rest := strings.TrimSpace(s)
	var v uint32
	for i := 0; i < 4; i++ {
		if i > 0 {
			if rest == "" || rest[0] != '.' {
				return 0, fmt.Errorf("invalid IPv4 address %q", s)
			}
			rest = rest[1:]
		}
		n, tail, ok := ScanDecimal(rest, 255)
		if !ok {
			return 0, fmt.Errorf("invalid IPv4 address %q", s)
		}
		v = v<<8 | n
		rest = tail
	}
	if rest != "" {
		return 0, fmt.Errorf("invalid IPv4 address %q", s)
	}
	return v, nil
}

// ScanDecimal reads the run of ASCII digits that starts s, and returns its
// value and the rest of s. ok is false when the run is empty or its value
// exceeds max. A sign is not a digit: the config front ends read every
// number through it, since IOS and Junos take none where they take a
// number. The sum is kept in 64 bits, so it cannot wrap before it is
// compared with max, whatever max is.
func ScanDecimal(s string, max uint32) (n uint32, rest string, ok bool) {
	var sum uint64
	i := 0
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		sum = sum*10 + uint64(s[i]-'0')
		if sum > uint64(max) {
			return 0, s, false
		}
	}
	return uint32(sum), s[i:], i > 0
}

// AppendIP appends the dotted quad of a 32-bit value to dst.
func AppendIP(dst []byte, v uint32) []byte {
	dst = appendOctet(dst, v>>24)
	dst = append(dst, '.')
	dst = appendOctet(dst, v>>16&0xff)
	dst = append(dst, '.')
	dst = appendOctet(dst, v>>8&0xff)
	dst = append(dst, '.')
	return appendOctet(dst, v&0xff)
}

// appendOctet appends b (at most 255) in decimal.
func appendOctet(dst []byte, b uint32) []byte {
	switch {
	case b >= 100:
		return append(dst, byte('0'+b/100), byte('0'+b/10%10), byte('0'+b%10))
	case b >= 10:
		return append(dst, byte('0'+b/10), byte('0'+b%10))
	default:
		return append(dst, byte('0'+b))
	}
}

// FormatIP renders a 32-bit value as a dotted quad.
func FormatIP(v uint32) string {
	var buf [15]byte
	return string(AppendIP(buf[:0], v))
}

// ParsePrefix parses "a.b.c.d/len" notation into a normalized prefix;
// the length is digits only, at most 32.
func ParsePrefix(s string) (Prefix, error) {
	p, err := ParseHostPrefix(s)
	if err != nil {
		return Prefix{}, err
	}
	return NewPrefix(p.Addr, p.Len), nil
}

// ParseHostPrefix parses "a.b.c.d/len" as ParsePrefix does, but keeps the
// host bits: the form of an interface address, a host address with its
// subnet length (Interface.Address).
func ParseHostPrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("prefix %q missing /len", s)
	}
	addr, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	length, rest, ok := ScanDecimal(s[slash+1:], 32)
	if !ok || rest != "" {
		return Prefix{}, fmt.Errorf("invalid prefix length in %q", s)
	}
	return Prefix{Addr: addr, Len: int(length)}, nil
}

// MustPrefix is ParsePrefix that panics on error; intended for tests and
// compiled-in example data.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Append appends the prefix in "a.b.c.d/len" form to dst.
func (p Prefix) Append(dst []byte) []byte {
	dst = append(AppendIP(dst, p.Addr), '/')
	return strconv.AppendInt(dst, int64(p.Len), 10)
}

// String renders the prefix in "a.b.c.d/len" form.
func (p Prefix) String() string {
	var buf [18]byte
	return string(p.Append(buf[:0]))
}

// Contains reports whether q falls inside p (q at least as long as p and
// matching p's significant bits).
func (p Prefix) Contains(q Prefix) bool {
	return q.Len >= p.Len && q.Addr&Mask(p.Len) == p.Addr
}

// ContainsIP reports whether the host address is inside the prefix.
func (p Prefix) ContainsIP(ip uint32) bool {
	return ip&Mask(p.Len) == p.Addr
}

// MaskString renders the prefix length as a dotted-quad netmask
// (e.g. 24 -> "255.255.255.0"), as used in Cisco interface syntax.
func (p Prefix) MaskString() string {
	return FormatIP(Mask(p.Len))
}

// WildcardString renders the inverted mask used by Cisco OSPF network
// statements (e.g. /24 -> "0.0.0.255").
func (p Prefix) WildcardString() string {
	return FormatIP(^Mask(p.Len))
}

// Network returns the prefix covering the subnet that contains this prefix's
// address with the given length.
func (p Prefix) Network(length int) Prefix {
	return NewPrefix(p.Addr, length)
}

// Community is a BGP standard community encoded as high<<16|low.
type Community uint32

// NewCommunity builds a community from its high and low 16-bit halves.
func NewCommunity(high, low uint16) Community {
	return Community(uint32(high)<<16 | uint32(low))
}

// ParseCommunity parses "high:low" notation. Each half is one or more
// ASCII digits worth at most 65535, with no sign.
func ParseCommunity(s string) (Community, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, fmt.Errorf("community %q missing ':'", s)
	}
	high, rest, ok := ScanDecimal(s[:colon], 0xffff)
	if !ok || rest != "" {
		return 0, fmt.Errorf("invalid community %q", s)
	}
	low, rest, ok := ScanDecimal(s[colon+1:], 0xffff)
	if !ok || rest != "" {
		return 0, fmt.Errorf("invalid community %q", s)
	}
	return NewCommunity(uint16(high), uint16(low)), nil
}

// MustCommunity is ParseCommunity that panics on error.
func MustCommunity(s string) Community {
	c, err := ParseCommunity(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Append appends the community in "high:low" form to dst.
func (c Community) Append(dst []byte) []byte {
	dst = append(strconv.AppendUint(dst, uint64(c>>16), 10), ':')
	return strconv.AppendUint(dst, uint64(c&0xffff), 10)
}

// String renders the community in "high:low" form.
func (c Community) String() string {
	var buf [11]byte
	return string(c.Append(buf[:0]))
}
