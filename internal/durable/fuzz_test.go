package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzOpenPack writes arbitrary bytes into a cache directory as a pack and
// opens it. Open must not panic, must allocate in proportion to the file,
// must quarantine a pack that fails verification without serving any of
// its keys, and must serve a valid pack's entries byte for byte. Each
// input is tried twice: as it is, named by its last 32 bytes, which
// exercises the checksum and name checks; and resealed with the true
// checksum of the rest, which lets mutations reach the framing and the
// entry count.
func FuzzOpenPack(f *testing.F) {
	valid, _ := encodePack([]Entry{testEntry("a"), testEntry("b"), testEntry("a")})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[packHeader+sha256.Size+2] ^= 0x40 // a payload length byte
	f.Add(flipped)
	// A few dozen bytes whose header claims 2^60 entries.
	oversized, _ := encodePack(nil)
	binary.BigEndian.PutUint64(oversized[len(packMagic):], 1<<60)
	f.Add(reseal(oversized))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOpenPack(t, data)
		checkOpenPack(t, reseal(data))
	})
}

// reseal replaces data's last 32 bytes with the SHA-256 of the rest.
func reseal(data []byte) []byte {
	if len(data) < sha256.Size {
		return data
	}
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(bytes.Clone(body), sum[:]...)
}

func checkOpenPack(t *testing.T, data []byte) {
	dir := t.TempDir()
	name := "short" + packSuffix
	if len(data) >= sha256.Size {
		name = hex.EncodeToString(data[len(data)-sha256.Size:]) + packSuffix
	}
	if err := os.MkdirAll(filepath.Join(dir, "packs"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "packs", name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, valid := referencePack(name, data)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+32*len(data)); grew > limit {
		t.Fatalf("Open of a %d-byte pack allocated %d bytes, limit %d", len(data), grew, limit)
	}
	if !valid {
		if st := c.Stats(); st.Corrupt != 1 {
			t.Fatalf("invalid pack: corrupt counter = %d, want 1", st.Corrupt)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("invalid pack still in the live tree")
		}
		for _, e := range entries {
			if _, ok := c.Get(e.Key); ok {
				t.Fatalf("invalid pack answered for %x", e.Key[:4])
			}
		}
		return
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Fatalf("valid pack counted corrupt: %+v", st)
	}
	seen := map[[sha256.Size]byte]bool{}
	for _, e := range entries {
		if seen[e.Key] {
			continue // the first copy of a key answers for it
		}
		seen[e.Key] = true
		got, ok := c.Get(e.Key)
		if !ok || !bytes.Equal(got, e.Payload) {
			t.Fatalf("valid pack entry %x: ok=%v got %q, want %q", e.Key[:4], ok, got, e.Payload)
		}
	}
}

// referencePack decodes a pack independently of decodePack. It returns
// the entries the framing yields, as far as it holds, and whether the
// whole pack is valid: magic number, checksum, name, exact framing and
// entry count.
func referencePack(name string, data []byte) ([]Entry, bool) {
	const magic, head = "CSYNPACK", 16
	if len(data) < head+sha256.Size {
		return nil, false
	}
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	valid := string(body[:len(magic)]) == magic &&
		bytes.Equal(sum[:], data[len(body):]) &&
		name == hex.EncodeToString(sum[:])+".pack"
	var entries []Entry
	off := head
	for off < len(body) {
		if len(body)-off < sha256.Size+4 {
			valid = false
			break
		}
		var e Entry
		copy(e.Key[:], body[off:])
		n := int(binary.BigEndian.Uint32(body[off+sha256.Size:]))
		off += sha256.Size + 4
		if n > len(body)-off {
			entries = append(entries, e)
			valid = false
			break
		}
		e.Payload = body[off : off+n]
		off += n
		entries = append(entries, e)
	}
	return entries, valid && binary.BigEndian.Uint64(body[len(magic):head]) == uint64(len(entries))
}
