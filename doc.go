// Package cachemind is a from-scratch Go reproduction of "CacheMind:
// From Miss Rates to Why — Natural-Language, Trace-Grounded Reasoning
// for Cache Replacement" (ASPLOS 2026): a conversational,
// retrieval-augmented system that answers natural-language questions
// about cache replacement behaviour, grounded in eviction-annotated
// simulator traces.
//
// The repository contains the entire stack the paper describes or
// depends on, plus the serving infrastructure that grew around it.
// No dependencies beyond the Go standard library.
//
// # Package index
//
// The offline reproduction substrate:
//
//   - internal/sim — trace-driven cache simulator with the paper's
//     Table 2 hierarchy (L1D/L2/LLC, MSHRs, timing, hardware
//     prefetchers).
//   - internal/policy — thirteen replacement policies: heuristic
//     (LRU, RRIP family, SHiP, DIP…), oracle (Belady), learned (MLP,
//     PARROT, Hawkeye, Mockingjay); policy.ForCache adapts the online
//     ones to the serving engine's answer cache.
//   - internal/workload, internal/replay — synthetic SPEC-like
//     workloads and the replay harness producing eviction-annotated
//     records.
//   - internal/db — the external trace database: immutable once
//     built, stored by column, gob-persisted, per-PC/set indexed.
//   - internal/nlu, internal/queryir — the semantic parser compiling
//     questions into typed, executable retrieval programs.
//   - internal/retriever — Sieve, Ranger and the embedding-RAG
//     baseline.
//   - internal/llm, internal/generator — deterministic behavioural
//     generator profiles (Figure 4/5 calibration) and grounded answer
//     synthesis.
//   - internal/bench — CacheMindBench (100 verified questions) plus
//     the deterministic load mixes (SampleMix, SampleMixParaphrase,
//     SampleSessions) the perf harness replays.
//   - internal/experiments — regenerates every table and figure in
//     the paper's evaluation.
//
// The serving stack (see ARCHITECTURE.md for the layer map and
// contracts):
//
//   - internal/engine — the concurrent ask path: Engine.Ask(ctx,
//     Request) behind hash-sharded session/cache/single-flight
//     tables, a three-tier answer cache (exact → semantic → cold)
//     with pluggable eviction policies, a zero-allocation cached ask,
//     and the predictive background prefetcher.
//   - internal/predict — the TAGE-style next-question predictor
//     (tagged geometric-history tables over interned question IDs,
//     Markov fallback) the prefetcher learns with.
//   - internal/embed — the embedding space and vector index backing
//     the semantic cache tier.
//   - internal/memory — per-session conversation memory.
//   - internal/histogram — lock-free log-bucket latency histogram
//     shared by the daemon's /metrics and loadgen's percentiles.
//   - internal/parallel — bounded worker pools with ordered results
//     and deterministic error propagation.
//
// The entry points:
//
//   - cmd/cachemind — the chat REPL.
//   - cmd/cachemindd — the HTTP JSON daemon (v1 wire contract,
//     /metrics, graceful shutdown, optional -prefetch and
//     -pprof-addr).
//   - cmd/loadgen — the closed-loop load generator and CI perf gate
//     (BENCH_loadgen.json, enforced thresholds, policy sweep,
//     session-replay prefetch gate).
//   - cmd/simulate, cmd/benchrun, cmd/tracegen — simulator CLI,
//     evaluation harness, database writer.
//
// See README.md for the package tour, the wire contract, the
// concurrency contracts, and the perf-gate documentation.
//
// The top-level benchmarks (bench_test.go) regenerate each experiment:
//
//	go test -bench=. -benchmem
package cachemind
