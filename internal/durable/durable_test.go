package durable

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

// testEntry is a JSON entry keyed by its name.
func testEntry(name string) Entry {
	payload, _ := json.Marshal(map[string]string{"name": name})
	return Entry{Key: testKey(name), Payload: payload}
}

// packPath is where a Put of entries lands.
func packPath(dir string, entries ...Entry) string {
	_, name := encodePack(entries)
	return filepath.Join(dir, "packs", name)
}

// packFiles lists the pack directory, temp files included.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "packs", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func mustOpen(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPut(t *testing.T, c *Cache, entries ...Entry) {
	t.Helper()
	if _, err := c.Put(entries...); err != nil {
		t.Fatal(err)
	}
}

// requireServes checks that c answers every entry byte for byte.
func requireServes(t *testing.T, c *Cache, entries ...Entry) {
	t.Helper()
	for _, e := range entries {
		got, ok := c.Get(e.Key)
		if !ok {
			t.Fatalf("miss for %x", e.Key[:4])
		}
		if string(got) != string(e.Payload) {
			t.Fatalf("payload for %x = %q, want %q", e.Key[:4], got, e.Payload)
		}
	}
}

// requireMisses checks that c answers none of the keys.
func requireMisses(t *testing.T, c *Cache, keys ...[sha256.Size]byte) {
	t.Helper()
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			t.Fatalf("hit for %x, want a miss", k[:4])
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	e := Entry{Key: testKey("k1"), Payload: []byte(`{"verified":true,"findings":null}`)}
	requireMisses(t, c, e.Key)
	n, err := c.Put(e)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(packPath(c.Dir(), e)); err != nil || info.Size() != int64(n) {
		t.Fatalf("pack on disk: %v (err=%v), Put reported %d bytes", info, err, n)
	}
	requireServes(t, c, e)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// One Put is one pack, however many entries it carries.
	batch := []Entry{testEntry("a"), testEntry("b"), testEntry("c")}
	mustPut(t, c, batch...)
	if files := packFiles(t, c.Dir()); len(files) != 2 {
		t.Fatalf("pack files = %v, want 2", files)
	}
	requireServes(t, c, batch...)
	if st := c.Stats(); st.Writes != 4 {
		t.Fatalf("writes = %d, want 4 entries", st.Writes)
	}
}

func TestRejectsNonJSONPayload(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	if _, err := c.Put(testEntry("ok"), Entry{Key: testKey("k"), Payload: []byte("not json")}); err == nil {
		t.Fatal("expected error for non-JSON payload")
	}
	if files := packFiles(t, c.Dir()); len(files) != 0 {
		t.Fatalf("rejected Put left %v", files)
	}
}

// A second Cache over the same directory — a different process, as far as
// the on-disk format is concerned — must see entries the first one wrote.
func TestSharedAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	c1 := mustOpen(t, dir, Options{})
	e := Entry{Key: testKey("shared"), Payload: []byte(`"result"`)}
	mustPut(t, c1, e)
	requireServes(t, mustOpen(t, dir, Options{}), e)
}

// TestSharedWhileOpen covers two caches open on one directory at once:
// what one Puts, the other serves after its own next Put.
func TestSharedWhileOpen(t *testing.T) {
	dir := t.TempDir()
	c1 := mustOpen(t, dir, Options{})
	c2 := mustOpen(t, dir, Options{})
	a, b := testEntry("from c1"), testEntry("from c2")
	mustPut(t, c1, a)
	requireMisses(t, c2, a.Key) // Get does no I/O
	mustPut(t, c2, b)
	requireServes(t, c2, a, b)
	requireMisses(t, c1, b.Key)
	mustPut(t, c1, testEntry("another"))
	requireServes(t, c1, a, b)
}

// Corruption in any form — truncation, bit flips, a pack under another
// pack's name — must quarantine the damaged pack at the next Open, read as
// misses, and leave the cache serving.
func TestCorruptEntryQuarantined(t *testing.T) {
	victim, other := testEntry("victim"), testEntry("other")
	cases := []struct {
		name    string
		corrupt func(t *testing.T, c *Cache) (damaged string)
	}{
		{"truncated", func(t *testing.T, c *Cache) string {
			path := packPath(c.Dir(), victim)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
		{"bit-flip", func(t *testing.T, c *Cache) string {
			path := packPath(c.Dir(), victim)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte inside the payload, ahead of the trailer: the
			// framing still holds but the checksum fails.
			data[len(data)-sha256.Size-3] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
		{"wrong-key", func(t *testing.T, c *Cache) string {
			// A pack renamed to another pack's name fails the name check:
			// the name is the checksum of the content it should hold.
			mustPut(t, c, other)
			dest := packPath(c.Dir(), other)
			if err := os.Rename(packPath(c.Dir(), victim), dest); err != nil {
				t.Fatal(err)
			}
			return dest
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mustPut(t, mustOpen(t, dir, Options{}), victim)
			damaged := tc.corrupt(t, mustOpen(t, dir, Options{}))
			c := mustOpen(t, dir, Options{})
			requireMisses(t, c, victim.Key, other.Key)
			if st := c.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(damaged); !os.IsNotExist(err) {
				t.Fatal("corrupt pack still in the live tree")
			}
			q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
			if err != nil || len(q) != 1 {
				t.Fatalf("expected 1 quarantined file, got %v (err=%v)", q, err)
			}
			// The cache keeps working: a re-Put re-serves.
			mustPut(t, c, victim)
			requireServes(t, c, victim)
		})
	}
}

func TestNewerFormatVersionRefused(t *testing.T) {
	dir := t.TempDir()
	idx, _ := json.Marshal(index{Version: FormatVersion + 1})
	if err := os.WriteFile(filepath.Join(dir, "index.json"), idx, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("expected Open to refuse a newer format version")
	}
}

// TestOpenUpgradesVersion1 opens a directory in the one-file-per-entry
// layout: its entry tree goes, and the index moves to the current version.
// A version-3 index is still refused.
func TestOpenUpgradesVersion1(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "objects", "ab", "ab12.json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte(`{"version":1,"payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, dir, Options{})
	if _, err := os.Stat(filepath.Join(dir, "objects")); !os.IsNotExist(err) {
		t.Fatalf("version-1 entry tree survived the upgrade (err=%v)", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx index
	if err := json.Unmarshal(data, &idx); err != nil || idx.Version != 2 {
		t.Fatalf("index after upgrade = %s (err=%v), want version 2", data, err)
	}
	e := testEntry("after upgrade")
	mustPut(t, c, e)
	requireServes(t, mustOpen(t, dir, Options{}), e)

	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"version":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("expected Open to refuse a version-3 directory")
	}
}

// TestOpenKeepsForeignObjects points the cache at directories that hold
// an objects/ tree but no version-1 index: Open must leave that tree
// alone, since only a version-1 cache is known to own it.
func TestOpenKeepsForeignObjects(t *testing.T) {
	for _, tc := range []struct{ name, index string }{
		{"no index", ""},
		{"version 2", `{"version":2}`},
		{"torn index", "{torn"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			keep := filepath.Join(dir, "objects", "keep.txt")
			if err := os.MkdirAll(filepath.Dir(keep), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(keep, []byte("not cache data"), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.index != "" {
				if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(tc.index), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mustOpen(t, dir, Options{})
			if data, err := os.ReadFile(keep); err != nil || string(data) != "not cache data" {
				t.Fatalf("objects/keep.txt after Open: %q (err=%v)", data, err)
			}
		})
	}
}

func TestCorruptIndexQuarantinedAndRewritten(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("Open should survive a corrupt index: %v", err)
	}
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(q) != 1 {
		t.Fatalf("expected corrupt index quarantined, got %v", q)
	}
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx index
	if err := json.Unmarshal(data, &idx); err != nil || idx.Version != FormatVersion {
		t.Fatalf("index not rewritten: %s (err=%v)", data, err)
	}
}

// dirPackBytes sums the sizes of the pack files in dir.
func dirPackBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, f := range packFiles(t, dir) {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestEvictionSweep(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{MaxBytes: -1})
	// Ten ~300-byte packs with strictly increasing mtimes.
	base := time.Now().Add(-time.Hour)
	var entries []Entry
	for i := 0; i < 10; i++ {
		payload, _ := json.Marshal(map[string]string{"filler": fmt.Sprintf("%0256d", i)})
		e := Entry{Key: testKey(fmt.Sprintf("entry-%d", i)), Payload: payload}
		entries = append(entries, e)
		mustPut(t, c, e)
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(packPath(dir, e), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Bound the cache to roughly half its current size: the sweep must
	// evict the oldest packs first and keep the newest.
	c.maxBytes = dirPackBytes(t, dir) / 2
	evicted, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 || evicted >= 10 {
		t.Fatalf("evicted %d packs, want some but not all", evicted)
	}
	requireMisses(t, c, entries[0].Key)
	requireServes(t, c, entries[9])
	if _, err := os.Stat(packPath(dir, entries[0])); !os.IsNotExist(err) {
		t.Fatal("oldest pack survived the sweep")
	}
	if st := c.Stats(); st.Evicted != uint64(evicted) {
		t.Fatalf("evicted counter = %d, want %d", st.Evicted, evicted)
	}
}

// TestSharedKeySurvivesEviction loads two packs that share a key and
// evicts one of them, in either order: the other pack still serves the
// key, and only the evicted pack's own keys miss.
func TestSharedKeySurvivesEviction(t *testing.T) {
	shared, a, b := testEntry("shared"), testEntry("only in a"), testEntry("only in b")
	packA, packB := []Entry{shared, a}, []Entry{shared, b}
	for _, tc := range []struct {
		name         string
		oldest, kept []Entry
	}{
		{"evict a", packA, packB},
		{"evict b", packB, packA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir, Options{MaxBytes: -1})
			mustPut(t, c, packA...)
			mustPut(t, c, packB...)
			old := time.Now().Add(-time.Hour)
			if err := os.Chtimes(packPath(dir, tc.oldest...), old, old); err != nil {
				t.Fatal(err)
			}
			// A bound that fits one pack but not both evicts the oldest.
			info, err := os.Stat(packPath(dir, tc.kept...))
			if err != nil {
				t.Fatal(err)
			}
			c.maxBytes = info.Size()
			if evicted, err := c.Sweep(); err != nil || evicted != 1 {
				t.Fatalf("Sweep evicted %d packs (err=%v), want 1", evicted, err)
			}
			requireServes(t, c, tc.kept...)
			requireMisses(t, c, tc.oldest[1].Key)
			// The last copy going takes the key with it.
			c.maxBytes = 0
			if evicted, err := c.Sweep(); err != nil || evicted != 1 {
				t.Fatalf("second Sweep evicted %d packs (err=%v), want 1", evicted, err)
			}
			requireMisses(t, c, shared.Key, a.Key, b.Key)
		})
	}
}

// TestPutEnforcesBound keeps a long-lived cache inside MaxBytes: Put runs
// the sweep once the loaded packs outgrow the bound, not only Open.
func TestPutEnforcesBound(t *testing.T) {
	const bound = 4096
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{MaxBytes: bound})
	var last Entry
	for i := 0; i < 100; i++ {
		last = testEntry(fmt.Sprintf("entry-%d", i))
		mustPut(t, c, last)
	}
	if got := dirPackBytes(t, dir); got > bound {
		t.Fatalf("cache holds %d bytes after 100 Puts, bound %d", got, bound)
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Fatal("no pack was evicted")
	}
	c.mu.RLock()
	indexed := c.bytes
	c.mu.RUnlock()
	if indexed > bound {
		t.Fatalf("index holds %d bytes of packs, bound %d", indexed, bound)
	}
	requireServes(t, c, last)
}

func TestStaleTempsSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	litter := filepath.Join(dir, "packs", ".durable-tmp-12345")
	if err := os.WriteFile(litter, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	ageTemps(t, filepath.Join(dir, "packs"))
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
}

// TestOpenKeepsLiveTemps opens a cache directory in which another process
// is writing a pack: the temp file it just created in packs/ must survive
// Open, so that process's rename still lands, while a temp file older than
// staleTempAge is swept.
func TestOpenKeepsLiveTemps(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	live := filepath.Join(dir, "packs", ".durable-tmp-live")
	stale := filepath.Join(dir, "packs", ".durable-tmp-stale")
	for _, f := range []string{live, stale} {
		if err := os.WriteFile(f, []byte("in flight"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("Open removed a live writer's temp file: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("a stale temp file survived Open")
	}
}

// ageTemps backdates every temp file in dir past staleTempAge, as time
// does to the litter of a writer that died.
func ageTemps(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, tmpPattern))
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	for _, m := range matches {
		if err := os.Chtimes(m, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// errKilled simulates the writer dying at a syscall boundary.
var errKilled = errors.New("killed at boundary")

// TestWriteAtomicKilledAtEveryBoundary is the checkpoint-atomicity
// satellite: the writer is killed before each syscall in turn, and the
// reader must see either the previous contents or the new contents —
// never a torn file, never a missing file when one existed before.
func TestWriteAtomicKilledAtEveryBoundary(t *testing.T) {
	prev := []byte(`{"checkpoint":"previous","iteration":3}`)
	next := []byte(`{"checkpoint":"next","iteration":4,"extra":"longer than before"}`)
	for stage := StageCreate; stage <= StageRename; stage++ {
		t.Run(stage.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "checkpoint.json")
			if err := WriteFileAtomic(path, prev, 0o644); err != nil {
				t.Fatal(err)
			}
			killAt := stage
			err := WriteFileAtomicHook(path, next, 0o644, func(s WriteStage) error {
				if s == killAt {
					return errKilled
				}
				return nil
			})
			if !errors.Is(err, errKilled) {
				t.Fatalf("expected kill error, got %v", err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("checkpoint vanished after kill at %v: %v", stage, rerr)
			}
			if string(got) != string(prev) {
				t.Fatalf("kill at %v left torn/partial contents: %q", stage, got)
			}
			// After the crash, a sweep clears the litter once it is
			// stale, and a retry completes the write.
			ageTemps(t, dir)
			RemoveStaleTemps(dir)
			if err := WriteFileAtomic(path, next, 0o644); err != nil {
				t.Fatal(err)
			}
			got, _ = os.ReadFile(path)
			if string(got) != string(next) {
				t.Fatalf("retry after kill did not land: %q", got)
			}
		})
	}
	// Killing after the rename (StageDone) means the new file is already
	// in place — the reader sees the new contents.
	t.Run("done", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "checkpoint.json")
		if err := WriteFileAtomic(path, prev, 0o644); err != nil {
			t.Fatal(err)
		}
		err := WriteFileAtomicHook(path, next, 0o644, func(s WriteStage) error {
			if s == StageDone {
				return errKilled
			}
			return nil
		})
		if !errors.Is(err, errKilled) {
			t.Fatalf("expected kill error, got %v", err)
		}
		got, _ := os.ReadFile(path)
		if string(got) != string(next) {
			t.Fatalf("kill after rename should leave new contents, got %q", got)
		}
	})
}

// TestPackWriteKilledAtEveryBoundary kills a Put before each syscall of
// its pack write in turn, and after the rename: once the killed write's
// litter is stale, a fresh Open must serve all of the pack's entries or
// none, and leave no litter behind.
func TestPackWriteKilledAtEveryBoundary(t *testing.T) {
	entries := []Entry{testEntry("one"), testEntry("two"), testEntry("three")}
	for stage := StageCreate; stage <= StageDone; stage++ {
		t.Run(stage.String(), func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir, Options{})
			killAt := stage
			_, err := c.put(entries, func(s WriteStage) error {
				if s == killAt {
					return errKilled
				}
				return nil
			})
			if !errors.Is(err, errKilled) {
				t.Fatalf("expected kill error, got %v", err)
			}
			ageTemps(t, filepath.Join(dir, "packs"))
			fresh := mustOpen(t, dir, Options{})
			served := 0
			for _, e := range entries {
				if got, ok := fresh.Get(e.Key); ok {
					if string(got) != string(e.Payload) {
						t.Fatalf("kill at %v served %q for %x", stage, got, e.Key[:4])
					}
					served++
				}
			}
			want := 0
			if stage == StageDone {
				want = len(entries) // the rename landed
			}
			if served != want {
				t.Fatalf("kill at %v: fresh Open served %d of %d entries, want %d",
					stage, served, len(entries), want)
			}
			for _, f := range packFiles(t, dir) {
				if filepath.Ext(f) != packSuffix {
					t.Fatalf("kill at %v left %s after the next Open", stage, f)
				}
			}
		})
	}
}

// TestConcurrentPutGet hammers two caches on one directory from several
// goroutines each: Puts publish and scan, Gets read the index, and the
// race detector watches both.
func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{mustOpen(t, dir, Options{}), mustOpen(t, dir, Options{})}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(c *Cache, w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := testEntry(fmt.Sprintf("c-%d", i%10))
				if _, err := c.Put(e, testEntry(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(e.Key); !ok || string(got) != string(e.Payload) {
					t.Errorf("own Put not served: ok=%v got=%q", ok, got)
					return
				}
			}
		}(caches[w%2], w)
	}
	wg.Wait()
	requireServes(t, mustOpen(t, dir, Options{}), testEntry("c-0"), testEntry("w7-49"))
}
