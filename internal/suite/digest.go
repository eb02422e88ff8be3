package suite

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// TextDigest content-addresses one configuration text: the hex SHA-256 of
// its bytes. It is the per-revision identity everything digest-keyed in
// the pipeline shares: check keys (KeyD) and shard routing (ShardKeyD).
func TextDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// Digests memoizes TextDigest per distinct text, so a configuration
// revision is hashed once no matter how many checks and shard routings
// consult it. Safe for concurrent use. A nil *Digests is valid everywhere
// one is accepted and simply computes without memoizing.
type Digests struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewDigests returns an empty memo.
func NewDigests() *Digests {
	return &Digests{m: map[string]string{}}
}

// Of returns the memoized TextDigest of the text.
func (d *Digests) Of(text string) string {
	if d == nil {
		return TextDigest(text)
	}
	d.mu.RLock()
	v, ok := d.m[text]
	d.mu.RUnlock()
	if ok {
		return v
	}
	v = TextDigest(text)
	d.mu.Lock()
	d.m[text] = v
	d.mu.Unlock()
	return v
}

// Len reports how many distinct texts have been digested.
func (d *Digests) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.m)
}
