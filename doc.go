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
// The paper's loop re-verifies the whole network after every prompt; this
// library keeps that loop's transcripts while removing its redundant work
// through three cooperating layers, each independently optional:
//
// Cache. Every per-config check — syntax, topology, local policy,
// translation diff — is memoized by core.CachedVerifier, keyed by a hash
// of the check's inputs (config text plus spec/requirement, including
// the requirement's per-attachment identity, so each attachment is its
// own unit of incremental re-verification). A pipeline iteration
// therefore only re-verifies the attachment-scoped checks of the router
// whose configuration the last prompt changed; every other result is a
// cache hit.
// Beneath it, one netcfg.ParseCache per run (threaded through
// internal/batfish into the cisco and juniper parsers' single-parse
// ParseAndCheck entry points) parses each configuration revision exactly
// once, no matter how many stages, requirements, and iterations inspect
// it — including the final BGP simulation. Results are pure functions of
// their inputs, so transcripts are byte-identical with the cache on or
// off (TestAcceleratedSynthesisByteIdentical pins this on every registry
// scenario); benchmark E14 measures the win.
//
// Concurrent suite. Within one pipeline iteration, a stage's per-router
// and per-requirement checks are independent, so SuiteParallelism fans
// them onto a bounded worker pool. Selection is deterministic: the lowest
// topology-order finding wins, exactly what the sequential scan would
// have reported, so transcripts stay byte-identical. This is the only
// lever that speeds up the star hub, where every policy concentrates on
// one router and per-router parallelism has nothing to split.
//
// Batch transport. When the verifier is remote (rest.Client against
// batfishd), each iteration first has every stage list its checks and
// ships the not-yet-cached ones as a single /v1/batch round-trip
// (CachedVerifier.Prefetch through the backend seam); the stage scan
// then reads the same lists back as pure cache hits. One round-trip per
// iteration replaces one per check — benchmark E15 measures it on the
// fat-tree. A lone Check call is a one-check batch on the same path.
// The server evaluates a batch on its own worker pool with a
// request-scoped parse cache (or a shared one, below). A batch carries
// each distinct configuration text once, in a body table, and each check
// names its config, and a diff check its original, by index into it, so
// a revision that many obligations check crosses the wire once per
// batch. With the texts inline, cobench's wire-random-75 sent 63.5 MB per
// run for about 80 distinct revisions and spent most of its CPU encoding
// and decoding that JSON; the table cut that to about 2.1 MB (3.4 MB
// since spec and requirement bodies travel inline, below), and the batch
// handlers' share of wall time fell from 0.71–0.75 to 0.29–0.32. Over ten
// alternating 20 s pairs on a shared 2-CPU machine, its median run fell
// from 0.99 s to 0.34 s (seed 0) and from 1.08 s to 0.39 s (seed 5), and
// at seed 0 its CPU from 1.37 s to 0.46 s and its allocation from 687 MB
// to 138 MB.
//
// # Distributed verification
//
// A verifier answers one call per check, Check(suite.Check), beside the
// whole-network GlobalNoTransit. core.LocalVerifier.Check is the one
// mapping from check kinds to evaluators: the engine evaluates through it
// in process, and batfishd's batch handler evaluates every check it
// receives through it. Verification dispatches through a cached verifier
// (core.CachedVerifier) over either the in-process suite or the REST
// client (rest.Client). The client also implements the batch seam,
// suite.Backend: a batch of independent checks in, positional results
// out. The cache batches exactly when its verifier implements that seam.
// Each stage lists its checks once per iteration: against a batching
// cache every stage lists up front, the driver prefetches all the lists
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
// counters (Client.Stats). Without the cache (cosynth -no-cache), which
// re-verifies every check on every iteration, each stage the scan
// reaches is one batched round-trip per endpoint instead: a sequential
// random:40 run over two endpoints sends 36 batches, where asking check
// by check sent 1,864. The client does not move work between
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
// that the client and every batfishd built from the same generator. Once
// the body table carried each config text once per batch, those
// references saved only about 1.2 MB of loopback traffic per
// wire-random-75 run, and building the registries cost more CPU than
// that saved: in six merged CPU profiles of `cosynth -mode notransit
// -topo random:75 -shards 2` the builds took 14% of CPU, more than
// evaluating every batched check (13%). Version 8 deleted them. Over
// ten alternating 20 s wire-random-75 pairs on a shared 2-CPU machine,
// the median run went from 0.48 s to 0.43 s, CPU from 0.61 s to 0.53 s
// and allocation from 123 MB to 109 MB, with identical transcripts, while
// the bytes sent rose from 2.17 MB to 3.40 MB (version 9 brought them to
// 1.81 MB, below). A request no longer names
// a topology family, so it cannot make batfishd generate one. Config
// texts are named by their index in the batch's body table instead of by
// digest: the table lives in the one request, so neither side computes a
// digest, and the server only checks that each index falls inside the
// table, failing the batch with a 400 that names the check otherwise.
// cosynth accepts a repeatable, comma-separated -rest endpoint list and
// -shards N to spawn in-process shard servers for tests and benchmarks.
//
// One check per route-map. Version 9 ships each egress route-map's
// community drops as one requirement (see the spec model above) instead
// of one per other attachment. On a traced wire-random-75 run the batched
// checks fell from 5,856 to 384 over the same 8 round-trips, and the
// bytes sent from 3,399,503 to 1,813,046. Keying a check JSON-encodes
// its requirement (suite.KeyD): in six merged CPU profiles of `cosynth
// -mode notransit -topo random:75 -shards 2` that took 28% of CPU with a
// requirement per community, and 12% after. Over ten alternating 20 s
// wire-random-75 pairs on a shared 2-CPU machine, the median run went
// from 0.334 s to 0.143 s, CPU from 0.46 s to 0.21 s and allocation from
// 108 MB to 51 MB, with identical transcripts. Durable entries written
// under version 8 go cold: their keys hash the old requirement JSON.
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
// CachedVerifier, whose state is striped across 64 shards so concurrent
// lookups do not contend on one lock (the parse cache beneath it is
// striped the same way). Per-router transcripts merge deterministically
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
// to sit beside it and were removed, because neither paid end to end. A
// compositional check (verified local specs plus sampled falsification)
// ran in no benchmark workload and was the slower one where measured:
// 368 s against 185 s for the simulated random:200 cell in BENCH_PR10. A
// persistent simulator session, in process and inside batfishd,
// re-simulated only the changed routers, but nothing re-checks per
// iteration at scale: every cobench workload runs one cold check per
// run, and on random:75 final configurations the session's first check
// cost what a cold one does (861 ms and 159 MB against 878 ms and
// 152 MB, on a 2-CPU machine). Only the global-prompting ablation and
// the §6 add-policy run re-check, on 7- and 5-router stars where a cold
// check takes 0.66 ms and 0.38 ms, so the session saved at most about
// 4 ms per run. The one check runs in delta rounds: a round announces
// only the RIB entries the previous round changed, which reaches exactly
// the RIBs that re-announcing every entry reaches (batfish.Sim gives the
// argument). Each Run also compiles the network before its first round:
// every session's route-maps are resolved against their device once, with
// the leading permit-only community-list clauses indexed by community;
// every simulated prefix gets a number, and each node's RIB is a row
// indexed by it; a route is built only when it is installed, or when a
// route-map must read or write it first; and the Result shares the
// installed routes and answers CanReach with at most 34 lookups instead
// of a scan of the RIB. A prefix's propagation never reads another prefix's
// entries, the slicing argument Panda et al. verify isolation with, so
// the numbering changes no outcome. Timed alone on golden configurations
// on a shared 2-CPU machine (median of three 10-check runs), one check
// went from 0.33 s and 99 MB allocated to 32 ms and 15 MB on
// fat-tree:10, from 0.12 s and 20 MB to 12 ms and 6 MB on random:75, and
// from 1.36 s and 141 MB to 0.10 s and 39 MB on random:200; cobench's
// synth-fattree-10 run_s fell from 0.44 s to 0.12 s (seed 5, medians of
// ten alternating pairs).
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
// TestGlobalSliceMatchesUnsliced). On golden configurations the verdict
// reads 50 of fat-tree:10's 600 originated prefixes (175 speakers), 75 of
// random:75's 256 and 185 of random:200's 666. Timed alone on a shared
// 2-CPU machine (medians of ten checks, in two rounds), one check went
// from 46–57 ms and 15.1 MB allocated to 6.4–7.4 ms and 1.9 MB on
// fat-tree:10, from 18 ms and 6.1 MB to 7.4–10 ms and 2.1 MB on
// random:75, and from 109–133 ms and 39 MB to 42–51 ms and 12 MB on
// random:200. On fat-tree:10 the rounds still take
// over half of what is left, and the set-up, route-map compiles included,
// about a quarter (a CPU profile of the check alone). cobench's
// synth-fattree-10 run_s fell from 0.099 s to 0.058 s (medians of ten
// alternating pairs), and its traced global check from 47 ms to 4.9 ms,
// 43% of wall to 8%. A network whose slice would need more than
// batfish.MaxRIBSlots RIB slots, one per speaker and simulated prefix, is
// refused with an error. The round cap grows with the number of speakers,
// so deep rings converge: ring:130 needs about 65 rounds.
//
// # Configuration pipeline
//
// Each configuration revision is printed once, parsed once, and has each
// route-map compiled once. The simulated LLM prints the whole config from
// its transformed IR (cisco.Print), and batfish.NewParseCache memoizes one
// whole-revision parse per text, shared by the syntax, topology,
// local-policy and simulation stages. The cache is keyed by the text
// itself, so a hit is one map lookup that neither copies nor digests the
// text and allocates nothing. It used to SHA-256 a copy of the text on
// every call, about a quarter of the CPU of an in-process random:75 run
// with 2 lanes; on cobench synth-random-75 (one set per side on a shared
// 2-CPU machine) a traced local check fell from about 26 µs to 12 µs and
// allocation from 115 MB to 55 MB, with the same 5,552 local checks and
// 78 parses. A stanza-incremental layer
// (a per-section render memo, a fragment parse sub-cache with a
// split-resume memo, and a durable fragment tier) used to sit on both
// steps behind off-switches. It was removed because it paid for nothing
// end to end: with it off, the cobench synth and wire workloads moved by
// less than their run-to-run spread (synth-random-75 median run 5.34 s
// against 5.37 s), and warm restarts got faster (1.017 s to 0.931 s),
// because decoding fragments from disk cost six times more than parsing
// the text again. Transcripts are pinned to digests taken before the
// removal (testdata/transcripts.json).
//
// Like Batfish, which answers searchRoutePolicies from one symbolic
// encoding per route-map, batfish.SearchRoutePolicies compiles a policy
// into its accept space (symbolic.AcceptSpace) on the first query that
// names it and keeps the result in the revision's slot
// (netcfg.Parsed.CompiledPolicy). Every later local check of that
// revision reads the slot, in process and inside batfishd, whose checks
// share its parse cache. It used to compile on every query, and an
// egress route-map is asked about every other ISP attachment's
// community, 73 of them on random:75: then one EgressDropsCommunity
// requirement each, now one requirement listing them all. A symbolic
// class's community condition is two sorted slices, so conjoining two is
// a merge rather than two map copies. On cobench synth-random-75 (seed
// 0, five alternating pairs on a 2-CPU machine) the median run fell from
// 5.82 s to 0.93 s and allocation from 2,182 MB to 248 MB; a traced run
// put a local check at 39 µs against 1,726 µs, with the same 5,552 local
// checks and 78 parses. The BGP simulation of the global check was then
// about 84% of that run's wall time. Grouping each egress route-map's
// drops into one requirement later cut the run's local checks from
// 5,552 to 224.
//
// Every per-revision step on an egress route-map now costs a constant
// number of allocations per clause and per community. The repair loop's
// fix for the route-map AND/OR error gives each other ISP's community
// its own deny stanza, so on random:75 each of the 74 egress maps holds
// 73 deny clauses. Every attachment has such a map, so a step that grows
// faster than linearly in its clauses makes a whole random-graph run grow
// as the attachment count cubed. Three steps did:
//
//   - cisco.Parse re-sorted a route-map on every new clause. It now
//     appends the clause, finds a re-entered sequence number by binary
//     search (or, once clauses arrive out of order, in an index) and
//     sorts such a route-map once when the text ends: a 20,000-clause
//     route-map in descending order parses in about 22 ms, not 2.3-2.7 s.
//   - symbolic.AcceptRegions intersected deny clauses with what remained
//     and built spaces it threw away. The 74 final egress maps of
//     random:75 now compile in 3.1-4.1 ms and 27.5k allocations, not
//     12.8-14.4 ms and 92.5k, into the same classes atom for atom.
//   - The drops check ran one SearchRoutePolicies per community, each
//     formatting the community and parsing it back. batfish.FirstPermitted
//     scans the list against the compiled accept classes, a binary search
//     per class and no allocation for a clean community, and searches in
//     full only for the first community a class admits.
//
// On cobench synth-random-75 (ten alternating 20 s pairs on a shared
// 2-CPU machine) the median run fell from 0.067 s to 0.051 s, CPU from
// 0.117 s to 0.087 s and allocation from 26.0 MB to 20.3 MB. One traced
// sample per side put a local check at 45 µs against 155 µs, and the
// run's parse spans at 12.1 ms against 16.5 ms, with the same 224 local
// checks, 78 parses and 391 verify checks. Parsing is not negligible
// there: 12.1 ms of parse spans against a 51 ms median untraced run.
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
// under the striped in-memory verification cache, content-addressed by
// the same suite.Key (sha256 over the check's wire form) the memory
// stripes and the batched protocol already use. It stores results in
// immutable packs of many entries, each written atomically (temp file,
// fsync, rename) and named by the SHA-256 trailer that checksums it. The
// engine queues the results it computes and flushes them as one pack
// after every repair iteration's scan (CachedVerifier.Flush, one
// cache_flush trace span each); batfishd writes one pack per /v1/batch
// request. Open loads and verifies every pack into memory, so a lookup
// does no I/O; a damaged pack is quarantined rather than trusted, and
// whole packs are evicted oldest-first past a size bound that Open and
// Put both enforce. A crash loses at most the iteration in flight, which
// the resumed run recomputes. One directory serves every process that
// touches verification — the engine (Translate/Synthesize options
// CacheDir, cosynth/cofuzz -cache-dir) and batfishd -cache-dir — so a
// restarted run answers from disk what its predecessor already proved
// (CacheStats.DiskHits/DiskWrites). In-process shards mount none, and
// cosynth refuses -cache-dir under -no-cache: mounted into its shards
// there, every check travelled alone and wrote one fsynced pack, so a
// cold random:75 run over 2 shards wrote 5,707 packs in 20.0 s, against
// 1.0–1.1 s without the directory.
// Concurrent processes see each other's results at their own next pack
// write, so at the writer's iteration boundary, not result by result.
// Packs replaced one file per result: on the benchmark's
// restart-random-75 workload (random:75, 2 lanes, a shared 2-CPU
// machine, medians of 10 runs) a cold run into an empty directory went
// from 2.53 s to 0.28 s, writing about 80 packs instead of 5,707 files,
// and a warm restart from 0.27 s to 0.17 s. An entry is the JSON of
// suite.Result, whose empty fields are omitted, so a clean result is {}:
// that cold run writes 221,458 bytes of packs, against 666,387 when every
// field was spelled out. The tier changes cost, never results: the
// warm-restart tests re-prove byte-identical transcripts.
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
// global_check (one cold simulation), cache_hit
// and cache_miss (tier memory/disk), batch_rpc (per shard, with check
// count and bytes), retry, checkpoint_save,
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
