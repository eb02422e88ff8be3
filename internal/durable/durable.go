// Package durable is the crash-survival layer of the verification engine:
// a disk-backed, content-addressed result cache shareable across processes,
// and the atomic file-write primitive the engine's checkpoints are built
// on. Both are designed around one invariant — a reader never observes a
// torn file. Entries and checkpoints are written to a temporary file in
// the destination directory, synced, and renamed into place; POSIX rename
// atomicity guarantees any concurrent (or post-crash) reader sees either
// the previous complete file or the new complete file, never a prefix.
//
// The cache stores opaque payloads keyed by a 32-byte content hash (the
// engine keys verification results by sha256 over the check's inputs, see
// suite.Key). Every entry carries its own checksum; a corrupted entry —
// truncated by a dying filesystem, bit-flipped, or hand-edited — is
// detected on read, quarantined out of the object tree, and reported as a
// miss, so a damaged cache degrades to recomputation instead of poisoning
// results or crashing the run. The on-disk format is versioned through an
// index file: a cache directory written by a newer, incompatible layout is
// refused at Open (the caller degrades to memory-only), never reused or
// silently clobbered.
//
// Directories written before the stanza parse cache was removed still
// hold its "cfg-stanza" fragment entries. Nothing reads them any more, so
// they are never freshened and age out first under the size bound.
package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// FormatVersion is the on-disk layout version. Bump it when the entry or
// index format changes incompatibly; Open refuses directories written by a
// newer version so an old binary cannot corrupt a new cache.
const FormatVersion = 1

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

// RemoveStaleTemps deletes abandoned atomic-write temp files in dir — the
// litter of writers killed mid-write. It never touches completed files.
func RemoveStaleTemps(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, tmpPattern))
	for _, m := range matches {
		os.Remove(m)
	}
}

// Options tunes a cache.
type Options struct {
	// MaxBytes bounds the object tree's total payload size; the eviction
	// sweep (run at Open and on demand) removes least-recently-used
	// entries until the tree fits. 0 applies DefaultMaxBytes; negative
	// disables eviction.
	MaxBytes int64
}

// DefaultMaxBytes bounds a cache directory at 256 MiB unless the caller
// says otherwise — large enough for hundreds of full-size runs, small
// enough that an unattended long-lived fleet cannot fill a disk.
const DefaultMaxBytes = 256 << 20

// Stats are a cache's counters since Open.
type Stats struct {
	// Hits and Misses count Get outcomes. Corrupt entries count as misses
	// and additionally as Corrupt.
	Hits   uint64
	Misses uint64
	// Writes counts successful Puts.
	Writes uint64
	// Corrupt counts entries whose checksum or envelope failed
	// verification; each was quarantined and served as a miss.
	Corrupt uint64
	// Evicted counts entries removed by eviction sweeps.
	Evicted uint64
}

// Cache is a disk-backed, content-addressed payload store, safe for
// concurrent use by goroutines and — thanks to atomic entry writes — by
// independent processes sharing the directory (cosynth, cofuzz, and
// batfishd shards mounting one cache all stay warm across restarts).
// Writers of the same key race benignly: entries are content-addressed,
// so both write the same bytes and last-rename-wins is a no-op.
type Cache struct {
	dir      string
	maxBytes int64

	// Counters are obs instruments from birth; SetMetrics adopts them
	// into a registry without losing counts (Open's initial sweep may
	// already have evicted entries by the time a registry is bound).
	hits    *obs.Counter
	misses  *obs.Counter
	writes  *obs.Counter
	corrupt *obs.Counter
	evicted *obs.Counter

	// sweepMu serializes eviction sweeps; Get/Put never take it.
	sweepMu sync.Mutex
}

// index is the versioned marker at the cache root. Reading it is how Open
// decides whether the directory's layout is one this binary understands.
type index struct {
	Version int `json:"version"`
}

// entry is the on-disk envelope of one cached payload. The checksum covers
// the payload bytes alone; the key is recorded so a misplaced or renamed
// entry file cannot answer for the wrong content address.
type entry struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// Open opens (creating if needed) a durable cache rooted at dir. A root
// whose index declares a newer format version is refused — the caller
// should degrade to running without the disk tier. A corrupted index is
// quarantined and rewritten: the object tree's entries are individually
// checksummed, so a fresh index over existing entries is safe. Opening
// also clears abandoned temp files and runs one eviction sweep.
func Open(dir string, opts Options) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	c := &Cache{
		dir: dir, maxBytes: opts.MaxBytes,
		hits: &obs.Counter{}, misses: &obs.Counter{}, writes: &obs.Counter{},
		corrupt: &obs.Counter{}, evicted: &obs.Counter{},
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
			// one. The entries stand on their own checksums.
			c.quarantine(idxPath)
		} else if idx.Version > FormatVersion {
			return nil, fmt.Errorf("durable: %s is format version %d, this binary speaks %d",
				dir, idx.Version, FormatVersion)
		}
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("durable: %w", err)
	}
	idxData, _ := json.Marshal(index{Version: FormatVersion})
	if err := WriteFileAtomic(idxPath, append(idxData, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("durable: writing index: %w", err)
	}
	RemoveStaleTemps(dir)
	RemoveStaleTemps(filepath.Join(dir, "objects"))
	fans, _ := os.ReadDir(filepath.Join(dir, "objects"))
	for _, f := range fans {
		if f.IsDir() {
			RemoveStaleTemps(filepath.Join(dir, "objects", f.Name()))
		}
	}
	if _, err := c.Sweep(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

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

// entryPath fans entries over 256 subdirectories by the key's first byte,
// keeping any one directory's entry count filesystem-friendly.
func (c *Cache) entryPath(key [sha256.Size]byte) string {
	hexKey := hex.EncodeToString(key[:])
	return filepath.Join(c.dir, "objects", hexKey[:2], hexKey+".json")
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

// Get returns the payload stored under key. A missing entry is a plain
// miss; a damaged one — unreadable JSON, wrong envelope version, key
// mismatch, or checksum mismatch — is quarantined, counted, and reported
// as a miss, so corruption costs a recomputation, never a wrong answer.
func (c *Cache) Get(key [sha256.Size]byte) ([]byte, bool) {
	path := c.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Inc()
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != FormatVersion ||
		e.Key != hex.EncodeToString(key[:]) ||
		e.Sum != fmt.Sprintf("%x", sha256.Sum256(e.Payload)) {
		c.corrupt.Inc()
		c.misses.Inc()
		c.quarantine(path)
		return nil, false
	}
	c.hits.Inc()
	// Freshen the entry so the eviction sweep's LRU order tracks use, not
	// just creation. Best-effort: an unsupported Chtimes loses recency,
	// nothing else.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return e.Payload, true
}

// Put stores payload under key. The write is atomic (temp file + rename),
// so concurrent readers — in this process or another sharing the
// directory — never observe a partial entry. Payloads must be valid JSON
// (the engine stores JSON-encoded verification results); anything else is
// rejected up front rather than written as an entry Get would quarantine.
func (c *Cache) Put(key [sha256.Size]byte, payload []byte) error {
	if !json.Valid(payload) {
		return fmt.Errorf("durable: payload for %x is not valid JSON", key[:4])
	}
	path := c.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	e := entry{
		Version: FormatVersion,
		Key:     hex.EncodeToString(key[:]),
		Sum:     fmt.Sprintf("%x", sha256.Sum256(payload)),
		Payload: json.RawMessage(payload),
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return err
	}
	c.writes.Inc()
	return nil
}

// Sweep enforces the size bound: when the object tree's total size
// exceeds MaxBytes, the least-recently-used entries (by mtime, which Get
// freshens) are removed until it fits. Returns how many entries were
// evicted. Safe to run concurrently with Get/Put — a swept entry simply
// becomes a miss.
func (c *Cache) Sweep() (int, error) {
	if c.maxBytes < 0 {
		return 0, nil
	}
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	type fileInfo struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var total int64
	root := filepath.Join(c.dir, "objects")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		files = append(files, fileInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if total <= c.maxBytes {
		return 0, nil
	}
	sort.Slice(files, func(a, b int) bool {
		if !files[a].mtime.Equal(files[b].mtime) {
			return files[a].mtime.Before(files[b].mtime)
		}
		return files[a].path < files[b].path
	})
	evicted := 0
	for _, f := range files {
		if total <= c.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			evicted++
		}
	}
	c.evicted.Add(uint64(evicted))
	return evicted, nil
}
