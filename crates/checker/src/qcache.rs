//! Cross-page memoization of intersection verdicts.
//!
//! Pages that share includes keep asking the engine the same question:
//! the same (structurally identical) tainted grammar intersected with
//! the same check automaton under the same budget class. This cache
//! memoizes those verdicts the way `SummaryCache` already dedupes
//! lowering, collapsing the checking wall across hotspots and pages.
//!
//! ## Key derivation
//!
//! A cached verdict is only sound to replay when the replayed
//! computation would have been *identical*. The key therefore captures
//! every input the fixpoint depends on:
//!
//! - `grammar` — the [`PreparedGrammar`] content fingerprint (128-bit,
//!   two independent FNV streams). Equal fingerprints mean an
//!   identical normalized production sequence, which drives an
//!   identical fixpoint: same discovery order, same fuel charges, same
//!   triple count, same canonical witness.
//! - `dfa` — the content fingerprint of the check automaton's
//!   byte-class form (tables, start, accepting set).
//! - `extract` — whether the query resumes its fixpoint to extract a
//!   witness (the caller asked for one and the reachable-production
//!   guard allowed it). Extraction adds a phase, with its own fuel and
//!   triples, so it must split the key; an emptiness question and a
//!   guarded witness question run the same fixpoint and share an entry.
//! - `fuel_limit` / `grammar_cap` — the *budget class*. A verdict
//!   computed under one fuel ceiling may not answer a query under
//!   another: the same computation could complete under the first and
//!   trip under the second. The wall-clock deadline is deliberately
//!   not part of the class — it never alters the fuel accounting of a
//!   trip-free run, only whether the run survives, and tripped runs
//!   are never cached.
//!
//! Nothing else of the analysis config enters the key: options that
//! change a verdict change the grammar, the automaton or the budget
//! class first, so one checker serves requests under different configs
//! (the daemon shares one per workspace) without splitting its cache.
//!
//! ## Replay parity
//!
//! Only trip-free computations are inserted. Replay re-charges the
//! recorded fuel against the caller's live budget ([`Verdict`] stores
//! the per-phase charge counts), so a replayed verdict consumes
//! exactly the fuel the recomputation would have, trips exactly when
//! the recomputation would have tripped, and a post-trip latched budget
//! behaves identically either way. See `Engine::query` for the
//! charging discipline.
//!
//! ## Concurrency
//!
//! The parallel hotspot driver hammers the cache from every worker, so
//! it is striped: 16 [`Memo`] shards selected by key hash, each with
//! its own FIFO eviction. Hit/miss/eviction counts are *not* kept
//! here — workers accumulate them in their thread-local
//! [`EngineStats`](strtaint_grammar::stats::EngineStats) and merge,
//! keeping the hot path lock-free beyond the shard probe itself.
//!
//! A miss is single-flight per key (see [`crate::memo`]): the first
//! caller gets a ticket and computes; a concurrent caller of the same
//! key waits for that ticket and then replays the landed verdict like
//! any hit. A ticket dropped without landing (a budget trip, a panic)
//! caches nothing, and its waiters compute for themselves: a deadline
//! is not part of the key, so another caller's trip says nothing about
//! theirs.
//!
//! [`PreparedGrammar`]: strtaint_grammar::prepared::PreparedGrammar

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::memo::{Lookup, Memo};

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Per-shard entry cap; total capacity is `SHARDS * PER_SHARD_CAP`.
const PER_SHARD_CAP: usize = 512;

/// Complete identity of one engine query. See the module docs for why
/// each component is load-bearing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct QueryKey {
    pub grammar: (u64, u64),
    pub dfa: u64,
    pub extract: bool,
    pub fuel_limit: Option<u64>,
    pub grammar_cap: Option<usize>,
}

/// A memoized verdict plus everything needed to replay it with
/// byte-identical observable behavior: the answer, the canonical
/// witness, and the per-phase fuel charges to re-apply. A verdict
/// recorded without extraction has an empty witness phase: no witness,
/// no witness fuel, and `triples_final == triples_query`.
#[derive(Clone, Debug)]
pub(crate) struct Verdict {
    /// Whether the intersection is empty.
    pub empty: bool,
    /// Canonical (length, lex)-minimal witness when nonempty and
    /// extraction ran; stored *uncapped* — display truncation is a
    /// rendering concern.
    pub witness: Option<Vec<u8>>,
    /// Fuel charged by the emptiness fixpoint (replay propagates a
    /// trip, exactly like the live query).
    pub fuel_query: u64,
    /// Fuel charged by resumption + reconstruction (replay swallows a
    /// trip into a missing witness, exactly like the live extraction).
    pub fuel_witness: u64,
    /// Triples realized by the emptiness phase alone.
    pub triples_query: u64,
    /// Triples realized after reconstruction.
    pub triples_final: u64,
}

/// The cross-page verdict cache. One per checker, shared by all pages
/// and worker threads of a run.
#[derive(Debug)]
pub(crate) struct QueryCache(Vec<Memo<QueryKey, Verdict>>);

impl QueryCache {
    pub(crate) fn new() -> Self {
        QueryCache((0..SHARDS).map(|_| Memo::new(PER_SHARD_CAP)).collect())
    }

    /// Looks up a verdict in the key's shard (see [`Memo::lookup`]).
    pub(crate) fn lookup(&self, key: QueryKey) -> Lookup<'_, QueryKey, Verdict> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.0[(h.finish() as usize) % SHARDS].lookup(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> QueryKey {
        QueryKey {
            grammar: (n, n ^ 0xabcd),
            dfa: 3,
            extract: false,
            fuel_limit: None,
            grammar_cap: None,
        }
    }

    /// The cached verdict of `k`, if any; a miss lands nothing.
    fn get(c: &QueryCache, k: &QueryKey) -> Option<Verdict> {
        match c.lookup(k.clone()) {
            Lookup::Hit(v) => Some(v),
            Lookup::Miss(_) => None,
        }
    }

    #[test]
    fn roundtrip_and_namespacing() {
        let c = QueryCache::new();
        let k = key(1);
        let Lookup::Miss(ticket) = c.lookup(k.clone()) else {
            panic!("a fresh cache hit");
        };
        ticket.land(Verdict {
            empty: true,
            witness: None,
            fuel_query: 42,
            fuel_witness: 0,
            triples_query: 9,
            triples_final: 9,
        });
        match get(&c, &k) {
            Some(Verdict {
                empty: true,
                fuel_query: 42,
                triples_query: 9,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        // A different extraction mode or budget class is a different
        // key entirely.
        let mut other_mode = k.clone();
        other_mode.extract = true;
        assert!(get(&c, &other_mode).is_none());
        let mut other_fuel = k;
        other_fuel.fuel_limit = Some(10);
        assert!(get(&c, &other_fuel).is_none());
    }
}
