// Package durable is the crash-survival layer of the verification engine:
// a disk-backed, content-addressed result cache shareable across processes,
// and the atomic file-write primitive the engine's checkpoints are built
// on. Both are designed around one invariant — a reader never observes a
// torn file. Packs and checkpoints are written to a temporary file in the
// destination directory, synced, and renamed into place; POSIX rename
// atomicity guarantees any concurrent (or post-crash) reader sees either
// the previous complete file or the new complete file, never a prefix.
//
// The cache stores JSON payloads keyed by a 32-byte content hash (the
// engine keys verification results by sha256 over the check's inputs, see
// suite.Key). Each Put publishes its entries together as one immutable
// pack file, packs/<sha256>.pack: a magic number, the entry count, each
// entry's key, length and payload, and a SHA-256 trailer over everything
// before it, which also names the file. Open loads and verifies every
// pack into an in-memory index, so Get reads nothing from disk. The index
// holds the pack bytes themselves, so MaxBytes bounds the cache's memory
// as well as its directory. A pack that fails its checksum, framing or
// name check — truncated by a dying filesystem, bit-flipped, hand-edited
// or renamed — is quarantined and its keys read as misses, so a damaged
// cache degrades to recomputation instead of poisoning results or
// crashing the run.
//
// Processes sharing a directory see each other's packs at their own next
// Put, which lists the directory and loads the packs it has not seen. The
// on-disk format is versioned through an index file: a version-1
// directory, which kept one file per entry under objects/, is upgraded by
// deleting that tree (it holds only cache data), and a directory written
// by a newer, incompatible layout is refused at Open (the caller degrades
// to memory-only), never reused or silently clobbered.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FormatVersion is the on-disk layout version. Bump it when the pack or
// index format changes incompatibly; Open refuses directories written by a
// newer version so an old binary cannot corrupt a new cache.
const FormatVersion = 2

// WriteStage names one syscall boundary of an atomic file write, in
// order. The fault-injection tests kill the writer at every stage and
// assert a reader only ever sees the previous file or the new one.
type WriteStage int

// Atomic-write stages, in execution order.
const (
	StageCreate WriteStage = iota // temp file about to be created
	StageWrite                    // payload about to be written to the temp file
	StageSync                     // temp file about to be fsynced
	StageRename                   // temp file about to be renamed into place
	StageDone                     // rename completed
)

// String names the stage.
func (s WriteStage) String() string {
	switch s {
	case StageCreate:
		return "create"
	case StageWrite:
		return "write"
	case StageSync:
		return "sync"
	case StageRename:
		return "rename"
	case StageDone:
		return "done"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// tmpPattern marks the temporary files of in-flight atomic writes so
// crash litter is recognizable and sweepable.
const tmpPattern = ".durable-tmp-*"

// WriteFileAtomic writes data to path so that a concurrent reader — or a
// reader after a mid-write crash — sees either the file's previous
// contents or the new contents in full, never a torn mixture: the data
// goes to a temporary file in the destination directory, is fsynced, and
// is renamed into place.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteFileAtomicHook(path, data, perm, nil)
}

// WriteFileAtomicHook is WriteFileAtomic with a fault-injection seam: hook
// (when non-nil) is called immediately before each syscall boundary, and a
// hook error abandons the write right there — exactly the state a process
// killed at that boundary leaves behind. Tests drive it to prove the
// old-or-new invariant at every stage; production callers pass nil.
func WriteFileAtomicHook(path string, data []byte, perm os.FileMode, hook func(WriteStage) error) error {
	step := func(s WriteStage) error {
		if hook == nil {
			return nil
		}
		return hook(s)
	}
	dir := filepath.Dir(path)
	if err := step(StageCreate); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Any abandoned path below leaves only the recognizable temp file; the
	// destination is untouched until the rename.
	if err := step(StageWrite); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := step(StageSync); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := step(StageRename); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return step(StageDone)
}

// staleTempAge is the age past which RemoveStaleTemps treats a temp file
// as abandoned. A write renames its temp file into place milliseconds
// after creating it, so a temp file this old belongs to a writer that
// died; a younger one may be another live process's in-flight write to a
// shared cache directory.
const staleTempAge = time.Hour

// RemoveStaleTemps deletes abandoned atomic-write temp files in dir — the
// litter of writers killed mid-write — once they are older than
// staleTempAge. It never touches completed files, nor a temp file a live
// writer may still rename.
func RemoveStaleTemps(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, tmpPattern))
	for _, m := range matches {
		if info, err := os.Lstat(m); err == nil && time.Since(info.ModTime()) > staleTempAge {
			os.Remove(m)
		}
	}
}

// Options tunes a cache.
type Options struct {
	// MaxBytes bounds the total size of the cache's packs, in its
	// directory and in memory alike (the index holds the pack bytes).
	// Open, and every Put that takes the loaded packs past the bound, run
	// the eviction sweep, which removes least-recently-used packs until
	// the directory fits. 0 applies DefaultMaxBytes; negative disables
	// eviction.
	MaxBytes int64
}

// DefaultMaxBytes bounds a cache directory, and each process's index of
// it, at 256 MiB unless the caller says otherwise — large enough for
// hundreds of full-size runs, small enough that an unattended long-lived
// fleet cannot fill a disk.
const DefaultMaxBytes = 256 << 20

// Stats are a cache's counters since Open.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   uint64
	Misses uint64
	// Writes counts entries stored by successful Puts.
	Writes uint64
	// Corrupt counts packs whose checksum, framing or name failed
	// verification; each was quarantined and its keys read as misses.
	Corrupt uint64
	// Evicted counts packs removed by eviction sweeps.
	Evicted uint64
}

// Entry is one cached payload and the content address it is stored under.
type Entry struct {
	Key     [sha256.Size]byte
	Payload []byte
}

// Pack layout: packMagic, the entry count as a big-endian uint64, then
// per entry its key, its payload length as a big-endian uint32 and the
// payload, then the SHA-256 of everything before the trailer.
const (
	packMagic    = "CSYNPACK"
	packSuffix   = ".pack"
	packHeader   = len(packMagic) + 8
	entryHeader  = sha256.Size + 4
	packOverhead = packHeader + sha256.Size
)

// encodePack lays entries out as one pack and returns it with the file
// name its trailer gives it.
func encodePack(entries []Entry) ([]byte, string) {
	size := packOverhead
	for _, e := range entries {
		size += entryHeader + len(e.Payload)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, packMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.Key[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Payload)))
		buf = append(buf, e.Payload...)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), hex.EncodeToString(sum[:]) + packSuffix
}

// decodePack verifies the pack read from the file called name — magic
// number, checksum, name, framing and entry count — and returns its
// entries, whose payloads alias data.
func decodePack(name string, data []byte) ([]Entry, error) {
	if len(data) < packOverhead || string(data[:len(packMagic)]) != packMagic {
		return nil, errors.New("not a pack")
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, errors.New("checksum mismatch")
	}
	if name != hex.EncodeToString(sum[:])+packSuffix {
		return nil, errors.New("file name does not match the checksum")
	}
	return packEntries(body)
}

// packEntries splits a pack's body (everything before the trailer) into
// its entries. The count in the header comes from the file, so nothing is
// sized from it: the entry slice grows with the bytes actually present.
func packEntries(body []byte) ([]Entry, error) {
	count := binary.BigEndian.Uint64(body[len(packMagic):packHeader])
	var entries []Entry
	for rest := body[packHeader:]; len(rest) > 0; {
		if len(rest) < entryHeader {
			return nil, errors.New("truncated entry header")
		}
		var e Entry
		copy(e.Key[:], rest)
		n := binary.BigEndian.Uint32(rest[sha256.Size:])
		rest = rest[entryHeader:]
		if uint64(n) > uint64(len(rest)) {
			return nil, errors.New("entry overruns the pack")
		}
		e.Payload, rest = rest[:n:n], rest[n:]
		entries = append(entries, e)
	}
	if count != uint64(len(entries)) {
		return nil, fmt.Errorf("header counts %d entries, pack holds %d", count, len(entries))
	}
	return entries, nil
}

// Cache is a disk-backed, content-addressed payload store, safe for
// concurrent use by goroutines and — thanks to atomic pack writes — by
// independent processes sharing the directory (cosynth and cofuzz runs
// mounting one cache all stay warm across restarts).
// Writers of the same key race benignly: entries are content-addressed,
// so every copy of a key holds the same result.
type Cache struct {
	dir      string
	maxBytes int64

	// Counters are obs instruments from birth; SetMetrics adopts them
	// into a registry without losing counts (Open's initial load and
	// sweep may already have counted by the time a registry is bound).
	hits    *obs.Counter
	misses  *obs.Counter
	writes  *obs.Counter
	corrupt *obs.Counter
	evicted *obs.Counter

	// scanMu serializes every change to the set of loaded packs: a Put
	// indexing its own pack, directory scans and eviction. Its holders
	// read packs and bytes without mu. Get and a Put's file write never
	// take it.
	scanMu sync.Mutex

	// mu guards the index for Get: every loaded pack by file name, each
	// key's payload, and the loaded packs' total size.
	mu    sync.RWMutex
	packs map[string]*pack
	index map[[sha256.Size]byte]slot
	bytes int64
}

// pack is one loaded pack file.
type pack struct {
	name string
	size int64
	// keys are the distinct keys the pack holds.
	keys [][sha256.Size]byte
	// touched records that a hit has freshened the file's mtime, which
	// the eviction sweep orders by; once per process is enough.
	touched atomic.Bool
}

// slot is one indexed key: its payload, aliasing the pack's bytes, and
// the pack holding it. Older loaded packs that hold the same key chain
// behind it in alt, so dropping one copy leaves the key served by the
// next.
type slot struct {
	payload []byte
	pack    *pack
	alt     *slot
}

// index is the versioned marker at the cache root. Reading it is how Open
// decides whether the directory's layout is one this binary understands.
type index struct {
	Version int `json:"version"`
}

// Open opens (creating if needed) a durable cache rooted at dir and loads
// every pack it holds. A root whose index declares a newer format version
// is refused — the caller should degrade to running without the disk
// tier. A corrupted index is quarantined and rewritten: packs carry their
// own checksums, so a fresh index over existing packs is safe. Opening
// also deletes a version-1 entry tree, clears temp files older than
// staleTempAge and runs one eviction sweep.
func Open(dir string, opts Options) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	c := &Cache{
		dir: dir, maxBytes: opts.MaxBytes,
		hits: &obs.Counter{}, misses: &obs.Counter{}, writes: &obs.Counter{},
		corrupt: &obs.Counter{}, evicted: &obs.Counter{},
		packs: map[string]*pack{}, index: map[[sha256.Size]byte]slot{},
	}
	if c.maxBytes == 0 {
		c.maxBytes = DefaultMaxBytes
	}
	idxPath := filepath.Join(dir, "index.json")
	data, err := os.ReadFile(idxPath)
	switch {
	case err == nil:
		var idx index
		if jerr := json.Unmarshal(data, &idx); jerr != nil || idx.Version <= 0 {
			// A torn or hand-damaged index: quarantine it and start a fresh
			// one. The packs stand on their own checksums.
			c.quarantine(idxPath)
		} else if idx.Version > FormatVersion {
			return nil, fmt.Errorf("durable: %s is format version %d, this binary speaks %d",
				dir, idx.Version, FormatVersion)
		} else if idx.Version == 1 {
			// Version 1 kept one file per entry under objects/. Nothing
			// reads them any more, and they hold only cache data.
			if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
				return nil, fmt.Errorf("durable: removing the version-1 entries: %w", err)
			}
		}
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := os.MkdirAll(c.packDir(), 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	idxData, _ := json.Marshal(index{Version: FormatVersion})
	if err := WriteFileAtomic(idxPath, append(idxData, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("durable: writing index: %w", err)
	}
	RemoveStaleTemps(dir)
	RemoveStaleTemps(c.packDir())
	if _, err := c.Sweep(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// packDir is the directory holding the packs.
func (c *Cache) packDir() string { return filepath.Join(c.dir, "packs") }

// SetMetrics adopts the cache's counters into a metrics registry (nil is
// a no-op), preserving counts already accumulated. The disk tier's
// telemetry never changes what it serves.
func (c *Cache) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("cosynth_durable_hits_total", c.hits)
	reg.RegisterCounter("cosynth_durable_misses_total", c.misses)
	reg.RegisterCounter("cosynth_durable_writes_total", c.writes)
	reg.RegisterCounter("cosynth_durable_corrupt_total", c.corrupt)
	reg.RegisterCounter("cosynth_durable_evicted_total", c.evicted)
}

// Stats returns the counters since Open.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Value(),
		Misses:  c.misses.Value(),
		Writes:  c.writes.Value(),
		Corrupt: c.corrupt.Value(),
		Evicted: c.evicted.Value(),
	}
}

// quarantine moves a damaged file out of the live tree (into
// <root>/quarantine/) so it stops answering lookups but stays available
// for post-mortem. Removal is the fallback when the move itself fails —
// a file that can be neither trusted nor moved must not keep serving.
func (c *Cache) quarantine(path string) {
	qdir := filepath.Join(c.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		return
	}
	dest := filepath.Join(qdir, fmt.Sprintf("%d-%s", time.Now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dest); err != nil {
		os.Remove(path)
	}
}

// Get returns the payload stored under key, answered from the in-memory
// index without I/O. The returned slice aliases the pack's bytes: callers
// must not modify it. The first hit on a pack in this process freshens
// the pack file's mtime, so the eviction sweep's LRU order tracks use.
func (c *Cache) Get(key [sha256.Size]byte) ([]byte, bool) {
	c.mu.RLock()
	s, ok := c.index[key]
	c.mu.RUnlock()
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	if s.pack.touched.CompareAndSwap(false, true) {
		// Best-effort: an unsupported Chtimes loses recency, nothing else.
		now := time.Now()
		_ = os.Chtimes(filepath.Join(c.packDir(), s.pack.name), now, now)
	}
	return s.payload, true
}

// Put publishes entries as one pack and returns the pack's size; no
// entries write nothing. The write is atomic (temp file, fsync, rename),
// so concurrent readers — in this process or another sharing the
// directory — never observe a partial pack. Put then loads the packs
// other processes published since this cache last listed the directory,
// and runs the eviction sweep once the loaded packs exceed MaxBytes.
// Payloads must be valid JSON (the engine stores JSON-encoded
// verification results); anything else is rejected up front.
func (c *Cache) Put(entries ...Entry) (int, error) {
	return c.put(entries, nil)
}

// put is Put with WriteFileAtomicHook's fault-injection seam.
func (c *Cache) put(entries []Entry, hook func(WriteStage) error) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	for _, e := range entries {
		if !json.Valid(e.Payload) {
			return 0, fmt.Errorf("durable: payload for %x is not valid JSON", e.Key[:4])
		}
		if uint64(len(e.Payload)) > math.MaxUint32 {
			return 0, fmt.Errorf("durable: payload for %x is too large", e.Key[:4])
		}
	}
	data, name := encodePack(entries)
	if err := WriteFileAtomicHook(filepath.Join(c.packDir(), name), data, 0o644, hook); err != nil {
		return 0, fmt.Errorf("durable: writing pack: %w", err)
	}
	c.writes.Add(uint64(len(entries)))
	// Index the pack's own copy, not the caller's payloads. The body was
	// just encoded, so it frames correctly.
	stored, _ := packEntries(data[:len(data)-sha256.Size])
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	c.mu.Lock()
	c.add(name, int64(len(data)), stored)
	c.mu.Unlock()
	// The pack is durable; sharing and eviction are best-effort, and a
	// failed scan is retried at the next Put.
	if listed, err := c.refresh(); err == nil {
		c.evict(listed)
	}
	return len(data), nil
}

// refresh brings the index in line with the pack directory and returns
// the packs the listing found; c.scanMu must be held. It loads the packs
// this cache has not seen, quarantining any that fail verification, and
// forgets the ones another process evicted: every loaded pack was on disk
// before this listing began, so one missing from it is gone.
func (c *Cache) refresh() ([]os.DirEntry, error) {
	des, err := os.ReadDir(c.packDir())
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	type loaded struct {
		name    string
		size    int64
		entries []Entry
	}
	var fresh []loaded
	var listed []os.DirEntry
	names := make(map[string]bool, len(des))
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, packSuffix) {
			continue
		}
		listed = append(listed, de)
		names[name] = true
		if _, known := c.packs[name]; known {
			continue
		}
		path := filepath.Join(c.packDir(), name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue // evicted or quarantined since the listing
		}
		entries, err := decodePack(name, data)
		if err != nil {
			c.corrupt.Inc()
			c.quarantine(path)
			continue
		}
		fresh = append(fresh, loaded{name, int64(len(data)), entries})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, p := range c.packs {
		if !names[name] {
			c.drop(p)
		}
	}
	for _, l := range fresh {
		c.add(l.name, l.size, l.entries)
	}
	return listed, nil
}

// add indexes one verified pack; c.mu and c.scanMu must be held. A key
// that loaded packs already hold is served from this pack from now on,
// and the older copies chain behind it.
func (c *Cache) add(name string, size int64, entries []Entry) {
	if _, ok := c.packs[name]; ok {
		return
	}
	p := &pack{name: name, size: size}
	for _, e := range entries {
		s, ok := c.index[e.Key]
		if ok && s.pack == p {
			continue // a repeat within this pack: its first copy serves
		}
		next := slot{payload: e.Payload, pack: p}
		if ok {
			next.alt = &s
		}
		c.index[e.Key] = next
		p.keys = append(p.keys, e.Key)
	}
	c.packs[name] = p
	c.bytes += size
}

// drop forgets one pack; c.mu and c.scanMu must be held. Each of its keys
// falls back to the next loaded pack holding it, or leaves the index.
func (c *Cache) drop(p *pack) {
	for _, k := range p.keys {
		s := c.index[k]
		if rest := unchain(&s, p); rest != nil {
			c.index[k] = *rest
		} else {
			delete(c.index, k)
		}
	}
	delete(c.packs, p.name)
	c.bytes -= p.size
}

// unchain returns the slot chain s without p's copy.
func unchain(s *slot, p *pack) *slot {
	if s == nil {
		return nil
	}
	if s.pack == p {
		return s.alt
	}
	if rest := unchain(s.alt, p); rest != s.alt {
		return &slot{payload: s.payload, pack: s.pack, alt: rest}
	}
	return s
}

// Sweep enforces the size bound: it brings the index in line with the
// pack directory and, when the packs' total size exceeds MaxBytes,
// removes the least-recently-used packs (by mtime, which a pack's first
// hit in each process freshens) until the directory fits, and their keys
// leave the index. Returns how many packs were evicted. Safe to run
// concurrently with Get and Put — an evicted key simply becomes a miss.
func (c *Cache) Sweep() (int, error) {
	if c.maxBytes < 0 {
		return 0, nil
	}
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	listed, err := c.refresh()
	if err != nil {
		return 0, err
	}
	return c.evict(listed), nil
}

// evict removes least-recently-used packs until the loaded packs fit
// MaxBytes; c.scanMu must be held, and listed is the refresh listing the
// index was just brought in line with. Returns how many packs were
// evicted.
func (c *Cache) evict(listed []os.DirEntry) int {
	total := c.bytes
	if c.maxBytes < 0 || total <= c.maxBytes {
		return 0
	}
	type packFile struct {
		p     *pack
		mtime time.Time
	}
	var files []packFile
	for _, de := range listed {
		p, ok := c.packs[de.Name()]
		if !ok {
			continue // quarantined by the refresh
		}
		info, err := de.Info()
		if err != nil {
			continue // removed since the listing
		}
		files = append(files, packFile{p, info.ModTime()})
	}
	sort.Slice(files, func(a, b int) bool {
		if !files[a].mtime.Equal(files[b].mtime) {
			return files[a].mtime.Before(files[b].mtime)
		}
		return files[a].p.name < files[b].p.name
	})
	var gone []*pack
	evicted := 0
	for _, f := range files {
		if total <= c.maxBytes {
			break
		}
		err := os.Remove(filepath.Join(c.packDir(), f.p.name))
		if err == nil {
			evicted++
		} else if !os.IsNotExist(err) {
			continue
		}
		total -= f.p.size
		gone = append(gone, f.p)
	}
	c.mu.Lock()
	for _, p := range gone {
		c.drop(p)
	}
	c.mu.Unlock()
	c.evicted.Add(uint64(evicted))
	return evicted
}
