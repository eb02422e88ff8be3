// Package repro is COSYNTH: a reproduction of "What do LLMs need to
// Synthesize Correct Router Configurations?" (HotNets 2023) as a Go
// library.
//
// The paper proposes Verified Prompt Programming (VPP): pair an LLM with a
// suite of network-configuration verifiers, convert verifier findings into
// natural-language correction prompts automatically (a "humanizer"), and
// measure leverage — automated prompts per human prompt.
//
// # Architecture: one pipeline, many stages
//
// Both use cases run on a single stage-driven repair engine
// (internal/core). A pipeline is a declarative list of stages, each a
// verifier pass that lists its checks against the current configurations
// and turns a check's result into a Finding — its stable identity,
// target configuration, and humanized rectification prompt. The shared
// RunPipeline driver executes Figure 3's loop over any stage list: find
// the first finding, prompt the model, bill the finding's attempt budget,
// punt to the human oracle when the budget is exhausted, stop when every
// stage is clean. Stage order encodes the paper's masking order (syntax
// before structure before semantics, §3.1).
//
//   - Translation (§3) composes two stages: Batfish-style syntax
//     checking, then Campion-style semantic diffing.
//   - Synthesis (§4) composes three: per-router syntax, the topology
//     verifier, and the Lightyear-style local-policy checker — followed
//     by the whole-network BGP simulation as the global check.
//
// # The per-attachment spec model
//
// The unit of specification is the external attachment point — a
// (router, neighbor) pair — not the router. Topology dictionaries list
// attachments first-class: external neighbors may carry an attachment
// ordinal (topology.NeighborSpec.Attachment) that keys the community
// tag, the ISP subnet, and the stub AS, and every derived obligation
// (lightyear.Requirement) carries an AttachmentRef identity naming the
// router, the peer, and the flow direction it constrains. Community
// allocation follows the same precedence everywhere
// (lightyear.Attachment.Community): the attachment ordinal when the
// dictionary declares one, the legacy router index on pre-attachment
// generated graphs, the peer AS on hand-built dictionaries. Because tags
// are per attachment, a router may be homed to any number of ISPs — each
// attachment gets its own ingress tagging policy, its own egress filter,
// and obligations against every other attachment including its
// same-router siblings — and customers may attach anywhere, in any
// number.
//
// The derivation (internal/lightyear.SpecFor) keeps the paper's
// hub-centric specification for the Figure 4 star (tag and filter at R1,
// byte-identical to the seed) and uses the attachment-point
// specification for every other graph: each attachment tags incoming
// routes with its own community at ingress and at egress denies routes
// carrying any other attachment's tag. Because the BGP simulation
// propagates communities across internal hops, the local obligations
// compose into the global no-transit guarantee on any graph
// (CoverageComplete is the proof obligation; the seeded random-graph
// fuzz test exercises it end to end). Either scheme derives three
// requirements per ISP attachment, one per route-map obligation as
// Lightyear checks them: the ingress tag, one egress drop listing every
// other attachment's community in topology order with the peer each is
// learned from, and the egress permit of clean routes. All of one
// route-map's obligations share that route-map's slice (Panda et al.),
// so the drop is one check: it scans its communities in order and
// reports the first one the route-map permits, narrowed to that
// community and carrying that community's description, rendered only
// then. Finding keys and prompts therefore read exactly as they did when
// each community was its own requirement, while the checks every
// iteration keys, caches, ships, persists and traces fall from O(A²) to
// O(A) for A attachments.
//
// # Topology scenario registry
//
// internal/netgen registers seven topology families, each emitting the
// same two machine-readable artifacts the Modularizer consumes: the JSON
// dictionary and the formulaic natural-language description (which
// states per-peer attachment facts — ordinal and originated prefixes —
// on attachment-keyed graphs). The single-attachment families are the
// paper's Figure 4 star plus ring, full-mesh, and k-ary fat-tree. The
// attachment-keyed families the per-attachment model unlocks are
// dual-homed (a ring whose every non-customer router is homed to two
// ISPs), multi-customer (a full mesh with max(2, n/3) customer networks,
// each a distinct stub AS and prefix), and random (a connected
// pseudo-random graph, seeded by its size for reproducibility, mixing
// single- and dual-homed ISPs — the fuzzing surface for the spec model).
// CLIs accept the name:size shorthand: cosynth -topo dual-homed:8.
//
// # Verification acceleration layer
//
// The paper's loop re-verifies the drafts after every prompt, and so does
// this one: every check the scan reaches is answered for the current
// revision. What the library removes is the redundant work around each
// check:
//
// Parse memo. One netcfg.ParseCache per run (threaded through
// internal/batfish into the cisco and juniper parsers' single-parse
// ParseAndCheck entry points) parses each configuration revision exactly
// once, no matter how many stages, requirements, and iterations inspect
// it — including the final BGP simulation — and each revision compiles
// each of its route-maps once (below). In process that is the only memo:
// core.CachedVerifier, the dispatch layer every run goes through, hands
// each check straight to core.LocalVerifier. Re-checking a router the
// last prompt did not change costs about what looking its result up
// would: a lookup keys the check by hashing its spec or requirement's
// JSON, where the re-check reads the memoized parse and its compiled
// route-maps. So an in-process run's CacheStats read 0 hits and count
// every check evaluated as a miss.
//
// Result tier. Where a result costs more to fetch than to key — over the
// REST client, or under a mounted disk tier (below) — CachedVerifier also
// memoizes results, keyed by a hash of the check's inputs (config text
// plus spec/requirement, including the requirement's per-attachment
// identity, so each attachment is its own unit of incremental
// re-verification). A pipeline iteration then fetches only the
// attachment-scoped checks of the router the last prompt changed; every
// other result is a hit. Results are pure functions of their inputs, so
// transcripts are byte-identical whichever path answers
// (TestResultTierMatchesTierFreeLoop holds the tier to the in-process
// loop on random error plans, over REST and on a cold and a warm disk
// tier).
//
// Batch transport. When the verifier is remote (rest.Client against
// batfishd), each iteration first has every stage list its checks and
// ships the ones the result tier lacks as a single /v1/batch round-trip
// (CachedVerifier.Prefetch through the backend seam); the stage scan
// then reads the same lists back as hits. One round-trip per iteration
// replaces one per check — benchmark E15 measures it on the fat-tree. A
// lone Check call is a one-check batch on the same path. The server
// evaluates a batch on its own worker pool with a request-scoped parse
// cache (or a shared one, below). A batch carries each distinct
// configuration text once, in a body table, and each check names its
// config, and a diff check its original, by index into it, so a revision
// that many obligations check crosses the wire once per batch.
//
// # Distributed verification
//
// A verifier answers one call per check, Check(suite.Check), beside the
// whole-network GlobalNoTransit. core.LocalVerifier.Check is the one
// mapping from check kinds to evaluators: the engine evaluates through it
// in process, and batfishd's batch handler evaluates every check it
// receives through it. Every run dispatches through one
// core.CachedVerifier, over either the in-process suite or the REST
// client (rest.Client). The client also implements the batch seam,
// suite.Backend: a batch of independent checks in, positional results
// out. The dispatch layer batches exactly when its verifier implements
// that seam.
// Each stage lists its checks once per iteration: against a batching
// verifier every stage lists up front, the driver prefetches all the lists
// in one call, and the scan reads the same lists; in process a stage
// lists only when the scan reaches it, so an earlier stage's finding
// still skips it. One result type, suite.Result, crosses the wire
// (embedded in rest.BatchResult) and the disk, and a result arriving from
// either that is violated but carries no violation is refused: the batch
// fails naming the check, and the disk entry is recomputed. Because
// every check is a pure function of its inputs, transcripts are
// byte-identical whichever verifier serves them
// (TestShardedSynthesisByteIdentical pins this on every registry
// scenario, over 1 and 3 endpoints).
//
// The fan-out. One rest.Client serves one batfishd endpoint or several.
// It sends each check to endpoint FNV-1a(key) mod N, where the key is the
// digest of the check's configuration text. All of one revision's
// whole-config checks therefore go to one endpoint and share its parse.
// A local-policy check appends its attachment identity to the key, so
// the obligations of a multi-homed router spread independently: the
// attachment is the unit of distribution, as it is the unit of
// incremental re-verification. Each iteration's prefetch becomes one
// batched round-trip per endpoint, issued concurrently (benchmark E16
// measures 1 vs 3 endpoints), with per-endpoint round-trip and latency
// counters (Client.Stats). The client does not move work between
// endpoints: every endpoint gives every check the same answer, so
// failover would only add availability, and no workload loses an
// endpoint. A batch fails as a whole with the error of the
// lowest-numbered endpoint that failed once its transport retries gave
// up, and Health fails naming every endpoint that does not answer.
//
// One wire protocol. Client and server are built from one module, so
// batfishd speaks exactly one protocol version
// (rest.BatchProtocolVersion) over POST /v1/batch, /v1/notransit, and
// /v1/search plus GET /v1/health. Every request carries the version in a
// header; the server answers a missing or different one with a 400 that
// names both versions, and the health probe echoes the server's version,
// so a peer from another generation fails at startup with a clear error.
// There are no fallback ladders: a mismatch is a served error, which the
// client reports without retrying.
//
// Inline bodies. Every check carries its router spec or requirement in
// full. Protocol version 7 let a check ship a 64-hex content digest
// instead, resolved against a registry of the scenario family's bodies
// that the client and every batfishd built from the same generator; once
// the body table carried each config text once per batch, building the
// registries cost more CPU than the references saved, and version 8
// deleted them. A request no longer names a topology family, so it
// cannot make batfishd generate one. Config texts are named by their
// index in the batch's body table instead of by digest: the table lives
// in the one request, so neither side computes a digest, and the server
// only checks that each index falls inside the table, failing the batch
// with a 400 that names the check otherwise. cosynth accepts a
// repeatable, comma-separated -rest endpoint list and -shards N to spawn
// in-process shard servers for tests and benchmarks.
//
// One check per route-map. Version 9 ships each egress route-map's
// community drops as one requirement (see the spec model above) instead
// of one per other attachment, so a batch carries O(A) local checks for A
// attachments, not O(A²). A check's key hashes its config's digest and
// the digest of its spec's or requirement's JSON (suite.KeyD); the
// dispatch layer computes each digest once per run, keyed by the spec or
// requirement the pipeline's stages hold. Durable entries written under
// an earlier key layout go cold.
//
// # Concurrent per-router synthesis
//
// Each router's repair loop is independent — per-router prompts,
// per-router verifiers — so Synthesize accepts a Parallelism option that
// repairs routers on a bounded worker pool. Models that can fork
// (llm.Forker — the simulated synthesizer is one, its sessions being
// pure functions of their seed) give every worker a private session, so
// no lock serializes the hot prompt path; models that cannot fork fall
// back to a mutex-guarded shared session. All workers share one
// CachedVerifier and its parse cache; both memo maps are grow-only
// sync.Maps, so concurrent lookups do not contend on one lock.
// Per-router transcripts merge deterministically
// in topology order: on runs that converge, leverage accounting, punted
// findings, and final configurations are identical whichever model
// sharing mode served them (TestForkedParallelSynthesisByteIdentical
// pins forked against locked on every registry scenario; on aborted runs
// the budgets differ — iteration caps and human give-ups are per-router
// in parallel, per-run sequentially). The wall-clock win comes from
// avoiding the sequential loop's whole-network re-verification scans
// plus core parallelism where available.
//
// # Scaling past the paper
//
// The paper stops at a five-router star; the scale wall this library
// pushes on is two orders of magnitude further out (benchmark E18,
// BenchmarkScaleWall, measures the composite):
//
// Wide addressing. Generated graphs address links as 10.<lo>.<hi>.0/24
// and attachments as 20.<ord>.0.0 — schemes that exhaust an octet at
// ~250 routers. Past that bound (netgen), the whole graph switches to
// the wide scheme: links numbered by sorted edge index split across two
// octets, attachment subnets likewise, ISP stub ASes rebased high. The
// switch is all-or-nothing per graph — mixing schemes would collide
// subnets — and graphs within the legacy bound stay byte-identical, so
// existing transcripts and seeds are untouched while random:500
// synthesizes end to end.
//
// Profile-guided fixes. cosynth and cofuzz take -cpuprofile/-memprofile
// (internal/prof); profiling the fuzz campaign showed every worker
// regenerating its case's topology and re-simulating the global check
// mid-pipeline, so campaigns memoize generated topologies across cases
// and skip the pipeline's own global check: the oracle's independent
// simulation is each case's global check. The modularizer renders the
// O(V+E) topology description once per run instead of once per router
// (benchmark E20, BenchmarkPromptRender).
//
// One global check. The whole-network check runs once per run, after the
// transcript is final: lightyear.CheckGlobalNoTransit builds a fresh
// batfish.Sim and simulates to a fixpoint ("as a final step", §4.1),
// reached through Verifier.GlobalNoTransit in process and through a
// stateless POST /v1/notransit over the wire. Two faster variants used
// to sit beside it and were removed, because neither paid end to end: a
// compositional check (verified local specs plus sampled falsification)
// and a persistent simulator session that re-simulated only the changed
// routers. Nothing re-checks per iteration at scale, and only the
// global-prompting ablation and the §6 add-policy run re-check, on small
// stars. The one check runs in delta rounds: a round announces only the
// RIB entries the previous round changed, which reaches exactly the RIBs
// that re-announcing every entry reaches (batfish.Sim gives the
// argument). Each Run also compiles the network before its first round:
// every session's route-maps are resolved against their device once,
// with the leading permit-only community-list clauses indexed by
// community; every simulated prefix gets a number, and each node's RIB is
// a row indexed by it; a route is built only when it is installed, or
// when a route-map must read or write it first; and the Result shares the
// installed routes and answers CanReach with at most 34 lookups instead
// of a scan of the RIB. A prefix's propagation never reads another
// prefix's entries, the slicing argument Panda et al. verify isolation
// with, so the numbering changes no outcome.
//
// The check simulates only the slice of the network its verdict reads.
// The verdict asks CanReach about the ISPs' and customers' own prefixes
// and nothing else, and CanReach answers for a prefix from the entries
// for it and for the prefixes containing it. So the check hands those
// stub prefixes to Sim.Run, which simulates only the originated prefixes
// that equal or contain one of them; the routers' link subnets drop out.
// By the same slicing argument each simulated prefix ends with exactly
// the routes a simulation of every prefix gives it, so no verdict
// changes. The tests hold the slice to the unsliced run on golden
// configurations, on every synthesis error class's drafts and on mutated
// networks whose routers originate a stub's prefix or a supernet of it
// (TestDeltaRoundsMatchReference, FuzzSimulate and
// TestGlobalSliceMatchesUnsliced). A network whose slice would need more
// than batfish.MaxRIBSlots RIB slots, one per speaker and simulated
// prefix, is refused with an error. The round cap grows with the number
// of speakers, so deep rings converge: ring:130 needs about 65 rounds.
//
// # Configuration pipeline
//
// Each configuration revision is printed once, parsed once, and has each
// route-map compiled once, and every per-router step is one pass over
// that router's own input. On random graphs the output itself grows as
// the square of the attachment count (each ISP-facing router's egress
// route-map denies every other ISP's community), so a step quadratic in
// one router's text would make the whole run cubic.
//
// The prompt path. The modularizer appends each router's sentences and
// policy instructions to one builder, grown once to a bound on the
// prompt's length, without fmt. The simulated LLM reads the sentences
// back with one small scanner of literals and fields (llm's sentence):
// each field is a greedy run of one byte class that gives bytes back only
// until the rest of the sentence matches, which is what the regexps it
// replaced return, leftmost match first. It prints its golden device as
// it stands unless a fault mutates it.
//
// The text path. cisco.Print writes one builder, sized up front from the
// device's counts, through netcfg's append formatters (AppendIP,
// Prefix.Append and Community.Append, which FormatIP and the String
// methods wrap), with no fmt. cisco.Parse walks the text in place and
// splits each ASCII line into one slice of words reused from line to
// line; a line holding any other byte goes to strings.Fields, so white
// space keeps its Unicode meaning. netcfg.ParseIP and ParseCommunity scan
// digits in place and, as IOS does, refuse a sign. A route-map clause is
// appended and found again by binary search (or, once clauses arrive out
// of order, in an index), and such a route-map is sorted once when the
// text ends. batfish.NewParseCache memoizes one whole-revision parse per
// text, shared by the syntax, topology, local-policy and simulation
// stages; it is a sync.Map keyed by the text itself, so a hit neither
// copies nor digests it.
//
// The topology check. topology.Verify parses each spec string once per
// call and answers every membership test, of a declared network or
// neighbor in the spec and of a spec network, neighbor or interface in
// the configuration, by binary search of a sorted copy.
//
// The route-map compile. Like Batfish, which answers searchRoutePolicies
// from one symbolic encoding per route-map, batfish.SearchRoutePolicies
// compiles a policy into its accept regions (symbolic.AcceptRegions) on
// the first query that names it and keeps them in the revision's slot
// (netcfg.Parsed.CompiledPolicy); every later local check of that
// revision reads the slot, in process and inside batfishd. A symbolic
// class's community condition is two sorted slices, so conjoining two is
// a merge. Only a permit clause is intersected with what remains, and a
// run of deny clauses whose guard is one community, over every prefix
// and every protocol, is folded into one sorted merge into each
// remaining class's forbidden list. The repair loop's fix for the
// route-map AND/OR error gives each other ISP's community its own deny
// stanza, so an egress map is one such run and a permit, and compiles in
// time and bytes linear in its clauses. The drops check
// (batfish.FirstPermitted) scans a requirement's communities against the
// compiled classes, a binary search per class, and searches in full only
// for the first community a class admits.
//
// Each rewritten step keeps the form it replaced in its tests as the
// reference a fuzz target holds it to: FuzzPrintReference and
// FuzzParseReference (the fmt printer, and the strings.Split and
// strings.Fields line loop), FuzzNumberText (strconv and fmt forms),
// FuzzPromptPatterns (the prompt regexps), FuzzVerifyReference (the
// quadratic topology check) and FuzzAcceptRegions (the clause-by-clause
// compile).
//
// # Fuzzing the LLM error space
//
// The paper's claim is about erroneous LLM output, so the erroneous
// output itself is a first-class input space here (internal/fuzz). An
// ErrorPlan keys injected error classes by attachment — which class
// fires at which (router, external-neighbor, direction) site — behind a
// compatible seam in the simulated LLM (llm.SynthConfig.Plan supersedes
// the per-router-name Errors map; attachment-scoped classes corrupt only
// the addressed site's ingress tag or egress filter, so a dual-homed
// router can carry one broken and one clean filter). A seeded Campaign
// sweeps (family × size × seed × derived plan) cases over the scenario
// registry on a bounded worker pool — the random family varies its graph
// per (size, seed) via netgen.RandomWith — against any verification
// backend, in-process or sharded REST. An oracle asserts the end-to-end
// properties on every case: spec coverage (CoverageComplete), verified
// synthesis under the injected plan, local-specs-imply-global on the
// final configurations (optionally falsified for non-vacuousness), and
// iterations bounded in the injected-error count (Result.Iterations).
//
// A failing case shrinks deterministically along two axes — topology
// (size, then the random family's extra edges, re-homing orphaned plan
// sites onto the smaller graph) and plan cardinality (whole sites, then
// single classes) — every candidate gated on reproducing the original
// failure, down to a minimal counterexample in the JSON report. Replay
// is exact and double-ended: cofuzz -replay re-runs the recorded oracle,
// and cosynth -mode notransit -errors fuzz.json regenerates the same
// topology and plan through the main CLI byte-identically. The
// llm.SErrEgressDenyAll class (no rectification formula, no operator
// recipe — the paper's give-up regime) deliberately seeds oracle
// violations for testing the engine itself; the default campaign
// alphabet excludes it, so cofuzz doubles as a pipeline regression gate
// (the CI smoke job runs one budgeted sweep per push).
//
// # Durability and crash recovery
//
// Every run so far assumed the process survives it; this layer removes
// that assumption. The contract throughout: a crash — SIGKILL, OOM, a
// severed verifier — costs wall-clock time, never results. Three
// mechanisms carry it (benchmark E19, BenchmarkWarmRestart, measures
// the first; the CI kill-resume-smoke job proves the first two on a real
// SIGKILL):
//
// Durable verification cache. internal/durable is a disk tier mounted
// under the result tier, and mounting it switches that tier on in
// process. It is content-addressed by the same suite.Key (sha256 over
// the check's wire form) the memory tier uses. It stores results in
// immutable packs of many entries, each written atomically (temp file,
// fsync, rename) and named by the SHA-256 trailer that checksums it. The
// engine queues the results it computes and flushes them as one pack
// after every repair iteration's scan (CachedVerifier.Flush, one
// cache_flush trace span each). Open loads and verifies every pack into
// memory, so a lookup does no I/O; a damaged pack is quarantined rather
// than trusted, and whole packs are evicted oldest-first past a size
// bound that Open and Put both enforce. A crash loses at most the
// iteration in flight, which the resumed run recomputes. The tier has one
// mount point, the engine's (Translate/Synthesize options CacheDir,
// cosynth/cofuzz -cache-dir), so a restarted run answers from disk what
// its predecessor already proved (CacheStats.DiskHits/DiskWrites), in
// process or over batfishd endpoints, which it then asks only for what
// the directory lacks; batfishd and in-process shards keep no results
// across requests. Concurrent processes see each other's results at
// their own next pack write, so at the writer's iteration boundary, not
// result by result. An entry is the JSON of suite.Result, whose empty
// fields are omitted, so a clean result is {}. The tier changes cost,
// never results: the warm-restart tests re-prove byte-identical
// transcripts.
//
// Checkpoint and resume. With CheckpointPath set (cosynth -checkpoint),
// the pipeline snapshots progress atomically after every save point:
// per pipeline iteration in the sequential repair loop, per completed
// router in the parallel pool, keyed by a RunKey hashed over the run's
// coordinates so a checkpoint never resumes into a different run.
// Restore is replay-based — the deterministic simulated LLM re-derives
// its state from the recorded conversation, with an RNG-cursor check
// guarding drift — so -resume picks up mid-run and finishes with a
// transcript byte-identical to an uninterrupted one, proven across
// every registry scenario, under repeated kills, and in parallel mode.
// fuzz campaigns checkpoint the same way (cofuzz -checkpoint/-resume):
// completed case results are reused verbatim and free — they bypass
// even the wall-clock budget — but only when the recorded case equals
// the sweep's case at its key, and a knob hash refuses checkpoints from
// campaigns that would have produced different outcomes. Crash seams
// (core.CheckpointOptions.AbortAfterSaves, fuzz.Campaign.
// AbortAfterCases) inject the kill deterministically in tests, and the
// checkpoint writer itself is kill-tested at every syscall boundary.
//
// Transient-fault tolerance. The REST client classifies failures:
// transport errors (connection refused, severed mid-body, timeouts)
// retry up to three attempts with capped full-jitter exponential
// backoff; served errors and caller context cancellation do not —
// cancellation propagates immediately as the bare context error without
// consuming retries. An endpoint that still fails after its retries
// fails the run, with an error naming it
// (TestKilledEndpointFailsTheRun). The retry and kill tests sever
// connections with inline handlers, as a crashed batfishd does.
//
// # Observability
//
// One zero-dependency telemetry layer (internal/obs) watches the whole
// pipeline; it reports runs and never steers them — transcripts,
// configurations, and verdicts are byte-identical with telemetry off,
// on, or scraped mid-run (the accelerated byte-identity gate runs a
// live scraper against the registry to prove it).
//
// Metrics: a registry of named counters, gauges, and fixed-bucket
// histograms with atomic hot paths. Components own their instruments
// from birth (a zero-value obs.Counter is a standalone atomic) and a
// registry adopts them on request — RegisterCounter exposes the very
// instrument that has been counting all along, so stats structs
// (CacheStats, ShardStat, durable.Stats) become views over the same
// numbers a scrape sees. Naming scheme: `<system>_<subsystem>_<what>_
// <unit>` with the `_total` suffix on counters — cosynth_verify_cache_
// hits_total, cosynth_parse_cache_misses_total, cosynth_rest_calls_
// total{endpoint="..."}, cosynth_durable_writes_total,
// batfishd_batch_checks_total — and `_seconds` histograms for
// latencies (cosynth_verify_dispatch_seconds, cosynth_rest_batch_
// seconds, batfishd_batch_seconds).
//
// Endpoints: batfishd serves GET /metrics (Prometheus text format
// 0.0.4) and GET /debug/vars (the same registry as JSON) on its main
// listener; cosynth and cofuzz serve both via -metrics-addr for the
// run's duration. cmd/promcheck validates an exposition offline with
// the same dependency-free parser CI uses (obs.ValidateExposition).
//
// Traces: -trace streams one JSONL obs.Event per pipeline action —
// llm_call, render, parse, local_check (outcome hit/check/prefetch),
// evaluate (nested in a local_check), global_check (one cold
// simulation), cache_hit and cache_miss (tier memory/disk, where the
// result tier is on), batch_rpc (per shard, with check count and bytes),
// retry, cache_flush, checkpoint_save,
// checkpoint_restore, fuzz_case, and one closing run span — keyed by
// run label, iteration, router, and attachment. `cosynth
// -trace-summary trace.jsonl` folds a trace into the per-stage and
// per-shard attribution tables: top-level stages (marked *) partition
// a sequential run's wall time; nested detail events are tallied but
// excluded from attribution so nothing is double counted.
//
// # The stack
//
// Everything is implemented from scratch on the standard library:
//
//   - Cisco IOS and Junos parsers, printers, and syntax checkers
//     (internal/cisco, internal/juniper) standing in for Batfish's parse
//     warnings;
//   - a symbolic route-policy engine (internal/symbolic) behind both the
//     Campion-style translation differ (internal/campion) and the Batfish
//     SearchRoutePolicies substitute (internal/batfish);
//   - a BGP control-plane simulator for the global no-transit check
//     (internal/batfish), exposed over a REST wrapper with a batched
//     endpoint (internal/batfish/rest, cmd/batfishd, internal/suite for
//     the shared check types);
//   - the topology verifier, scenario registry / network generators,
//     modularizer, humanizer, and Lightyear-style local-policy checker of
//     the paper's Figure 3;
//   - a simulated GPT-4 (internal/llm) whose error model is calibrated to
//     the paper's Tables 1–3; and
//   - the COSYNTH engine (internal/core): the Stage/RunPipeline driver,
//     the two use-case compositions, and leverage accounting; and
//   - the fuzz campaign engine (internal/fuzz, cmd/cofuzz): attachment-
//     keyed error plans, the end-to-end oracle, and the two-axis
//     shrinker; and
//   - the durability layer: the content-addressed disk cache tier
//     (internal/durable), pipeline and campaign checkpoint/resume, and
//     REST retry with jittered backoff.
//
// This package is the stable facade: the use-case entry points
// (Translate, Synthesize, SynthesizeNoTransit), the topology registry
// (Topologies, GenerateTopology), and the experiment runners that
// regenerate every table and figure of the paper plus the extension
// experiments (see EXPERIMENTS.md and bench_test.go's BENCH JSON
// output).
package repro
