package rest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batfish"
	"repro/internal/lightyear"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// ringReplicas is the number of virtual nodes each shard contributes to
// the consistent-hash ring. More replicas smooth the key distribution;
// 64 keeps the ring small while staying within a few percent of even on
// realistic check populations.
const ringReplicas = 64

// shard is one batfishd endpoint of a ShardedClient, with its health flag
// and round-trip accounting.
type shard struct {
	endpoint string
	client   *Client

	dead     atomic.Bool
	batches  atomic.Int64 // batched round-trips attempted against this shard
	failures atomic.Int64 // transport failures observed (cumulative)
	streak   atomic.Int64 // consecutive transport failures; a success resets it
	batchNS  atomic.Int64 // cumulative latency of batched round-trips

	tracer *obs.Tracer // nil until SetObs; failover events only
}

// noteSuccess records a served request: the shard is demonstrably alive,
// so its consecutive-failure budget starts over. Without the reset a
// long run against a slightly flaky fleet would accumulate isolated
// timeouts until every shard crossed the budget and was failed over —
// the budget is meant to catch a shard that is failing now, not one that
// ever failed.
func (s *shard) noteSuccess() { s.streak.Store(0) }

// ShardStat is one shard's counters, for benchmarks and diagnostics.
type ShardStat struct {
	// Endpoint is the shard's base URL.
	Endpoint string
	// Calls is the total HTTP round-trips issued to the shard: batches
	// (per-check calls are one-check batches), global checks, searches,
	// and health probes alike.
	Calls int64
	// Batches is the number of batched round-trips attempted.
	Batches int64
	// Failures is the number of transport failures observed (cumulative;
	// the failover budget tracks the consecutive streak separately).
	Failures int64
	// Retries is the number of transport-layer retry attempts the shard's
	// client issued riding out transient faults.
	Retries int64
	// Latency is the cumulative wall-clock of the batched round-trips.
	Latency time.Duration
	// Dead reports the shard is currently failed over.
	Dead bool
}

// String renders the counters.
func (s ShardStat) String() string {
	state := "up"
	if s.Dead {
		state = "DEAD"
	}
	return fmt.Sprintf("%s: %d calls, %d batches (%v), %d failures, %d retries, %s",
		s.Endpoint, s.Calls, s.Batches, s.Latency, s.Failures, s.Retries, state)
}

// ringPoint is one virtual node: a position on the hash ring owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// ShardedClient fans the verification suite out over several batfishd
// endpoints. It implements core.Verifier and the engine's backend seam
// (suite.Backend): each CheckBatch partitions its checks over a
// consistent-hash ring keyed by suite.ShardKey — whole-config checks stick
// to one shard for parse locality, attachment-scoped checks spread
// independently — and issues the per-shard batches concurrently, so an
// iteration costs at most one round-trip per shard, in parallel.
//
// Failover: a transport-level failure (connection refused, connection
// died) triggers a health probe of the shard — a dead endpoint fails the
// probe and is failed over at once, while a slow-but-alive one (a client
// timeout on a loaded shard) is kept until it exhausts a small failure
// budget, so one timeout cannot cascade a loaded fleet into "all shards
// dead". A failed-over shard's checks re-hash onto the survivors: the
// ring walk skips dead shards, so the surviving assignment is exactly
// what the ring would have produced without the dead shard, and results
// are unchanged because every check is a pure function of its inputs.
// Served errors (bad request, semantic rejections) propagate instead:
// they would reproduce identically on any shard; a protocol-version
// mismatch is one of them. Health re-probes dead shards and revives the
// ones that answer. The per-check Verifier methods are one-check batches,
// so they route and fail over exactly like a prefetch.
//
// ShardedClient is safe for concurrent use.
type ShardedClient struct {
	batchChecker
	shards []*shard
	ring   []ringPoint
	// digests memoizes per-revision hashing for the ring's routing keys
	// (suite.ShardKeyD): a configuration is hashed once per revision no
	// matter how many checks route by it.
	digests *suite.Digests
}

// NewShardedClient returns a client fanning out over the given batfishd
// base URLs with default per-endpoint options.
func NewShardedClient(endpoints []string) (*ShardedClient, error) {
	return NewShardedClientOpts(endpoints, ClientOptions{})
}

// NewShardedClientOpts returns a sharded client with tuned per-endpoint
// transport options. Endpoints must be non-empty and distinct; an empty
// element is rejected loudly — a silently dropped element would quietly
// build a smaller ring than the operator asked for.
func NewShardedClientOpts(endpoints []string, opts ClientOptions) (*ShardedClient, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("sharded client: no endpoints")
	}
	seen := map[string]bool{}
	s := &ShardedClient{digests: suite.NewDigests()}
	for i, ep := range endpoints {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			return nil, fmt.Errorf("sharded client: endpoint %d of %d is empty", i+1, len(endpoints))
		}
		base := strings.TrimRight(ep, "/")
		if seen[base] {
			return nil, fmt.Errorf("sharded client: duplicate endpoint %q", ep)
		}
		seen[base] = true
		s.shards = append(s.shards, &shard{endpoint: base, client: NewClientOpts(base, opts)})
	}
	s.ring = buildRing(s.shards)
	s.batchChecker = batchChecker{batch: s.CheckBatch}
	return s, nil
}

// SplitEndpoints normalizes a repeatable, comma-separated endpoint flag
// into the endpoint list a sharded client is built from: every value may
// carry several comma-separated endpoints, whitespace is trimmed, and an
// empty element is a loud error rather than a silently smaller ring.
func SplitEndpoints(values []string) ([]string, error) {
	var out []string
	for _, v := range values {
		for _, ep := range strings.Split(v, ",") {
			ep = strings.TrimSpace(ep)
			if ep == "" {
				return nil, fmt.Errorf("empty endpoint element in %q", v)
			}
			out = append(out, ep)
		}
	}
	return out, nil
}

// buildRing places ringReplicas virtual nodes per shard on the hash ring.
func buildRing(shards []*shard) []ringPoint {
	ring := make([]ringPoint, 0, len(shards)*ringReplicas)
	for i, sh := range shards {
		for r := 0; r < ringReplicas; r++ {
			ring = append(ring, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s|%d", sh.endpoint, r)),
				shard: i,
			})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		// Tie-break on shard index so the ring order is deterministic even
		// in the (vanishing) event of a hash collision.
		return ring[a].shard < ring[b].shard
	})
	return ring
}

// hashKey is the ring's hash function: 64-bit FNV-1a, deterministic across
// processes so every client agrees on the assignment.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// shardFor walks the ring clockwise from the key's position to the first
// live shard. Skipping dead shards (rather than rebuilding the ring) makes
// failover minimal: only the dead shard's keys move, and they land exactly
// where the ring without that shard would have put them. Returns -1 when
// every shard is dead.
func (s *ShardedClient) shardFor(key string) int {
	h := hashKey(key)
	n := len(s.ring)
	start := sort.Search(n, func(i int) bool { return s.ring[i].hash >= h })
	for probed := 0; probed < n; probed++ {
		p := s.ring[(start+probed)%n]
		if !s.shards[p.shard].dead.Load() {
			return p.shard
		}
	}
	return -1
}

// Capabilities implements suite.Backend.
func (s *ShardedClient) Capabilities() suite.Capabilities {
	return suite.Capabilities{Batched: true}
}

// Calls returns the total HTTP round-trips issued across all shards.
func (s *ShardedClient) Calls() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.client.Calls()
	}
	return total
}

// Retries returns the transport-layer retry attempts summed across all
// shards — the fleet-wide counterpart of Client.Retries, so stats
// roll-ups see one number whichever backend is in play.
func (s *ShardedClient) Retries() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.client.Retries()
	}
	return total
}

// SetObs fans the registry and tracer out to every shard's client (each
// registers its counters under its own endpoint label) and arms the
// per-shard failover trace events.
func (s *ShardedClient) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	for _, sh := range s.shards {
		sh.client.SetObs(reg, tr)
		sh.tracer = tr
	}
}

// BytesSent returns the request-body bytes put on the wire across all
// shards.
func (s *ShardedClient) BytesSent() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.client.BytesSent()
	}
	return total
}

// Stats returns a snapshot of every shard's counters, in endpoint order.
func (s *ShardedClient) Stats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStat{
			Endpoint: sh.endpoint,
			Calls:    sh.client.Calls(),
			Batches:  sh.batches.Load(),
			Failures: sh.failures.Load(),
			Retries:  sh.client.Retries(),
			Latency:  time.Duration(sh.batchNS.Load()),
			Dead:     sh.dead.Load(),
		}
	}
	return out
}

// Health probes every shard, reviving dead shards that answer and marking
// unresponsive ones dead. It reports an error when no shard is healthy —
// the ring keeps serving as long as one survivor remains — or when any
// shard speaks another protocol version, which no failover can fix.
func (s *ShardedClient) Health() error {
	healthy := 0
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.client.Health(); err != nil {
			if errors.Is(err, errProtocolMismatch) {
				return fmt.Errorf("shard %s: %w", sh.endpoint, err)
			}
			sh.dead.Store(true)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", sh.endpoint, err)
			}
			continue
		}
		sh.dead.Store(false)
		healthy++
	}
	if healthy == 0 {
		return fmt.Errorf("sharded client: no healthy shards: %w", firstErr)
	}
	return nil
}

// maxTransportFailures is the per-shard consecutive-failure budget: a
// shard that keeps failing at the transport layer is failed over even
// when its health endpoint still answers, so a wedged shard cannot stall
// a run with endless retries. A served request resets the streak (see
// noteSuccess) — only failures with no success in between count.
const maxTransportFailures = 3

// noteTransportFailure records a transport failure and decides whether to
// fail the shard over. A quick health probe distinguishes a dead endpoint
// (probe fails → failed over immediately) from a slow-but-alive one — a
// client-side timeout on a big batch must not cascade a loaded fleet into
// "all shards dead" — but an alive shard that exhausts its consecutive
// failure budget is failed over anyway.
func (s *shard) noteTransportFailure() {
	s.failures.Add(1)
	if s.streak.Add(1) >= maxTransportFailures || s.client.Health() != nil {
		if !s.dead.Swap(true) && s.tracer != nil {
			s.tracer.Emit(obs.Event{Stage: obs.StageFailover, Shard: s.endpoint, Outcome: "dead"})
		}
	}
}

// CheckBatch implements suite.Backend: partition the checks over the ring,
// issue one batched round-trip per shard concurrently, and re-hash the
// work of any shard that fails at the transport layer onto the survivors
// until every check has a result or no shard remains.
func (s *ShardedClient) CheckBatch(ctx context.Context, checks []suite.Check) ([]suite.Result, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	out := make([]suite.Result, len(checks))
	// pending holds the original indices of checks still needing results;
	// each round assigns them to live shards, runs the per-shard batches
	// concurrently, and retries the transport casualties next round.
	pending := make([]int, len(checks))
	for i := range checks {
		pending[i] = i
	}
	for len(pending) > 0 {
		groups := map[int][]int{}
		for _, idx := range pending {
			si := s.shardFor(suite.ShardKeyD(checks[idx], s.digests))
			if si < 0 {
				return nil, fmt.Errorf("sharded client: all %d shards dead", len(s.shards))
			}
			groups[si] = append(groups[si], idx)
		}
		type groupOutcome struct {
			shard int
			idxs  []int
			err   error
		}
		outcomes := make([]groupOutcome, 0, len(groups))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for si, idxs := range groups {
			si, idxs := si, idxs
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh := s.shards[si]
				batch := make([]suite.Check, len(idxs))
				for j, idx := range idxs {
					batch[j] = checks[idx]
				}
				sh.batches.Add(1)
				start := time.Now()
				results, err := sh.client.CheckBatch(ctx, batch)
				sh.batchNS.Add(int64(time.Since(start)))
				if err == nil && len(results) != len(batch) {
					err = fmt.Errorf("shard %s: %d results for %d checks",
						sh.endpoint, len(results), len(batch))
				}
				if err == nil {
					for j, idx := range idxs {
						out[idx] = results[j]
					}
				}
				mu.Lock()
				outcomes = append(outcomes, groupOutcome{shard: si, idxs: idxs, err: err})
				mu.Unlock()
			}()
		}
		wg.Wait()
		// A cancelled or expired caller context surfaces as transport
		// errors on every in-flight request; that is the caller's doing,
		// not shard death — propagate it without failing anything over.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pending = pending[:0]
		for _, oc := range outcomes {
			switch {
			case oc.err == nil:
				s.shards[oc.shard].noteSuccess()
			case IsTransportError(oc.err):
				// The shard is down: fail it over and re-hash its checks
				// onto the survivors next round.
				s.shards[oc.shard].noteTransportFailure()
				pending = append(pending, oc.idxs...)
			default:
				// A served error reproduces on any shard; propagate.
				return nil, fmt.Errorf("shard %s: %w", s.shards[oc.shard].endpoint, oc.err)
			}
		}
		sort.Ints(pending)
	}
	return out, nil
}

// withFailover runs one per-shard call against the ring's live owner of
// key, failing dead shards over and retrying on the survivors — the
// failover loop of the calls that are not batches (global checks and
// searches).
func (s *ShardedClient) withFailover(key string, fn func(c *Client) error) error {
	for {
		si := s.shardFor(key)
		if si < 0 {
			return fmt.Errorf("sharded client: all %d shards dead", len(s.shards))
		}
		err := fn(s.shards[si].client)
		if err == nil {
			s.shards[si].noteSuccess()
			return nil
		}
		if !IsTransportError(err) {
			return err
		}
		s.shards[si].noteTransportFailure()
	}
}

// globalKey routes whole-network calls: they have no single config, so
// they hash on the topology name, which spreads different topologies
// across shards. The check itself is stateless, so any shard answers it
// identically; failover simply moves it to the next live owner.
func globalKey(t *topology.Topology) string {
	if t == nil {
		return ""
	}
	return "global|" + t.Name
}

// GlobalNoTransit implements core.Verifier, with the ring's failover.
func (s *ShardedClient) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	var res *lightyear.GlobalResult
	err := s.withFailover(globalKey(t), func(client *Client) error {
		var callErr error
		res, callErr = client.GlobalNoTransit(t, configs)
		return callErr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Search asks a SearchRoutePolicies question, routed like the config's
// other whole-config checks (by the revision's digest), so it lands on
// the shard that already parsed the revision.
func (s *ShardedClient) Search(config string, q batfish.SearchQuery) (batfish.SearchResult, error) {
	var res batfish.SearchResult
	err := s.withFailover(s.digests.Of(config), func(client *Client) error {
		var callErr error
		res, callErr = client.Search(config, q)
		return callErr
	})
	if err != nil {
		return batfish.SearchResult{}, err
	}
	return res, nil
}

// WarmScenario builds the named family's reference registry once and
// hands it to every shard's client (see Client.WarmScenario). It makes no
// request and returns the number of registered bodies.
func (s *ShardedClient) WarmScenario(scenario string, seed int64) (int, error) {
	reg, err := buildScenarioRegistry(scenario)
	if err != nil {
		return 0, err
	}
	for _, sh := range s.shards {
		sh.client.refs.Store(reg)
	}
	return reg.size(), nil
}
