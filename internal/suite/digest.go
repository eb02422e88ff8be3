package suite

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
)

// TextDigest content-addresses one configuration text: the hex SHA-256 of
// its bytes. It is the per-revision identity everything digest-keyed in
// the pipeline shares: check keys (KeyD) and the REST client's routing.
func TextDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// Digests memoizes TextDigest per distinct text, so a configuration
// revision is hashed once no matter how many check keys and routings
// consult it, and each spec's and requirement's body digest per pointer.
// It is for one run, whose stages build their specs and requirements
// once and never change one a check points to, and it grows with the
// texts and pointers the run's checks hold. Safe for concurrent use. A
// nil *Digests is valid everywhere one is accepted and simply computes
// without memoizing.
type Digests struct {
	mu sync.RWMutex
	m  map[string]string
	// bodies memoizes bodyDigest per *topology.RouterSpec or
	// *lightyear.Requirement.
	bodies map[any]string
}

// NewDigests returns an empty memo.
func NewDigests() *Digests {
	return &Digests{m: map[string]string{}, bodies: map[any]string{}}
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

// body returns the digest of a spec or requirement, the hex SHA-256 of
// its JSON encoding (a stable serialization), memoized per pointer.
func (d *Digests) body(ptr any) string {
	if d == nil {
		return bodyDigest(ptr)
	}
	d.mu.RLock()
	v, ok := d.bodies[ptr]
	d.mu.RUnlock()
	if ok {
		return v
	}
	v = bodyDigest(ptr)
	d.mu.Lock()
	d.bodies[ptr] = v
	d.mu.Unlock()
	return v
}

func bodyDigest(ptr any) string {
	b, _ := json.Marshal(ptr)
	return TextDigest(string(b))
}

// Len reports how many distinct texts have been digested.
func (d *Digests) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.m)
}
