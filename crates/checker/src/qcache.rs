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
//! - `scope` — the session [`Config`] fingerprint, stamped by the
//!   driver via [`QueryCache::set_scope`]. Changing analysis options
//!   re-namespaces every key, so verdicts computed under one config can
//!   never answer queries made under another (mirrors the artifact
//!   store, which keys evidence by the same fingerprint).
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
//! it is striped: 16 mutex shards selected by key hash, each with its
//! own FIFO eviction queue. Hit/miss/eviction counts are *not* kept
//! here — workers accumulate them in their thread-local
//! [`EngineStats`](strtaint_grammar::stats::EngineStats) and merge,
//! keeping the hot path lock-free beyond the shard probe itself.
//!
//! A miss is single-flight per key ([`crate::flight`]): the first
//! caller gets a [`Ticket`] and computes; a concurrent caller of the
//! same key waits for that ticket and then replays the landed verdict
//! like any hit. So which queries compute, and every counter that
//! follows from it, depends only on the queries asked, never on thread
//! timing. A ticket dropped without landing (a budget trip, a panic)
//! caches nothing, and its waiters compute for themselves: a deadline
//! is not part of the key, so another caller's trip says nothing about
//! theirs. A poisoned shard degrades to a miss without a flight.
//!
//! [`Config`]: strtaint_policy::Config
//! [`PreparedGrammar`]: strtaint_grammar::prepared::PreparedGrammar

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::flight::Flights;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Per-shard entry cap; total capacity is `SHARDS * PER_SHARD_CAP`.
const PER_SHARD_CAP: usize = 512;

/// Complete identity of one engine query. See the module docs for why
/// each component is load-bearing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct QueryKey {
    pub scope: u64,
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

#[derive(Default)]
struct Shard {
    map: HashMap<QueryKey, Verdict>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<QueryKey>,
    /// Keys being computed, each with the flight its waiters block on.
    flights: Flights<QueryKey>,
}

/// What [`QueryCache::lookup`] found.
pub(crate) enum Lookup<'a> {
    /// A verdict: cached, or landed by the caller this one waited for.
    Hit(Verdict),
    /// No verdict: the caller computes it and lands the ticket.
    Miss(Ticket<'a>),
}

/// The one computation of a missed key. Concurrent callers of the key
/// wait until the ticket is landed or dropped.
pub(crate) struct Ticket<'a> {
    cache: &'a QueryCache,
    key: QueryKey,
    /// `false` when the shard was poisoned: nobody waits on this miss.
    leads: bool,
}

impl Ticket<'_> {
    /// Caches `verdict` for the waiters and later callers, returning
    /// how many entries were evicted to make room.
    pub(crate) fn land(self, verdict: Verdict) -> u64 {
        self.cache.insert(self.key.clone(), verdict)
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if self.leads {
            let shard = self.cache.shard(&self.key).lock();
            let mut shard = shard.unwrap_or_else(PoisonError::into_inner);
            shard.flights.end(&self.key);
        }
    }
}

/// The cross-page verdict cache. One per checker, shared by all pages
/// and worker threads of a run.
pub(crate) struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    /// Current config-fingerprint namespace, mixed into every key.
    /// Stamping a new scope leaves stale entries in place but
    /// unreachable — they age out by FIFO — which keeps a daemon
    /// flipping between per-request configs from thrashing a shared
    /// checker.
    scope: AtomicU64,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("shards", &self.shards.len())
            .field("scope", &self.scope.load(Ordering::Relaxed))
            .finish()
    }
}

impl QueryCache {
    pub(crate) fn new() -> Self {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            scope: AtomicU64::new(0),
        }
    }

    /// Stamps the config-fingerprint namespace for subsequent keys.
    pub(crate) fn set_scope(&self, scope: u64) {
        self.scope.store(scope, Ordering::Relaxed);
    }

    /// The namespace callers must put in [`QueryKey::scope`].
    pub(crate) fn scope(&self) -> u64 {
        self.scope.load(Ordering::Relaxed)
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks up a verdict, waiting for one in flight. On a miss the
    /// caller holds the key's [`Ticket`]. A poisoned shard (worker
    /// panic while holding the lock) degrades to a miss — the caller
    /// recomputes.
    pub(crate) fn lookup(&self, key: QueryKey) -> Lookup<'_> {
        loop {
            let Ok(mut shard) = self.shard(&key).lock() else {
                return Lookup::Miss(Ticket {
                    cache: self,
                    key,
                    leads: false,
                });
            };
            if let Some(v) = shard.map.get(&key) {
                return Lookup::Hit(v.clone());
            }
            match shard.flights.join(&key) {
                Some(flight) => {
                    drop(shard);
                    flight.wait();
                }
                None => {
                    return Lookup::Miss(Ticket {
                        cache: self,
                        key,
                        leads: true,
                    })
                }
            }
        }
    }

    /// Inserts a verdict, returning how many entries were evicted to
    /// make room (usually 0 or 1; surfaced as `qcache.evictions`).
    fn insert(&self, key: QueryKey, verdict: Verdict) -> u64 {
        let Ok(mut shard) = self.shard(&key).lock() else {
            return 0;
        };
        if shard.map.insert(key.clone(), verdict).is_none() {
            shard.order.push_back(key);
        }
        let mut evicted = 0;
        while shard.map.len() > PER_SHARD_CAP {
            let Some(old) = shard.order.pop_front() else {
                break;
            };
            if shard.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(empty: bool, fuel: u64, triples: u64) -> Verdict {
        Verdict {
            empty,
            witness: None,
            fuel_query: fuel,
            fuel_witness: 0,
            triples_query: triples,
            triples_final: triples,
        }
    }

    fn key(n: u64) -> QueryKey {
        QueryKey {
            scope: 7,
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
        assert!(get(&c, &k).is_none());
        c.insert(k.clone(), verdict(true, 42, 9));
        match get(&c, &k) {
            Some(Verdict {
                empty: true,
                fuel_query: 42,
                triples_query: 9,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        // A different scope is a different key entirely.
        let mut other_scope = k.clone();
        other_scope.scope = 8;
        assert!(get(&c, &other_scope).is_none());
        // So are a different extraction mode and budget class.
        let mut other_mode = k.clone();
        other_mode.extract = true;
        assert!(get(&c, &other_mode).is_none());
        let mut other_fuel = k;
        other_fuel.fuel_limit = Some(10);
        assert!(get(&c, &other_fuel).is_none());
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let c = QueryCache::new();
        for _ in 0..10 {
            c.insert(key(1), verdict(false, 0, 0));
        }
        let shard = c.shard(&key(1)).lock().unwrap();
        assert_eq!(shard.map.len(), 1);
        assert_eq!(shard.order.len(), 1);
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let c = QueryCache::new();
        let mut evicted = 0;
        // Far more keys than total capacity.
        for n in 0..(SHARDS * PER_SHARD_CAP * 2) as u64 {
            evicted += c.insert(key(n), verdict(true, 1, 1));
        }
        let total: usize = c
            .shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap();
                assert_eq!(s.map.len(), s.order.len());
                assert!(s.map.len() <= PER_SHARD_CAP);
                s.map.len()
            })
            .sum();
        assert!(total <= SHARDS * PER_SHARD_CAP);
        assert!(evicted > 0);
        assert_eq!(evicted as usize + total, SHARDS * PER_SHARD_CAP * 2);
    }

    /// References to the flight of `k`: the shard's plus one per
    /// waiter.
    fn flight_holders(c: &QueryCache, k: &QueryKey) -> usize {
        c.shard(k).lock().unwrap().flights.holders(k)
    }

    /// Runs two concurrent lookups of one key. A caller that misses
    /// counts a computation, waits at a gate the test opens once the
    /// other caller waits on its flight, and lands its verdict when
    /// `land` says so. Returns the computations and each caller's
    /// fuel (its verdict's, or 0 when it did not land one).
    fn two_callers(land: bool) -> (usize, Vec<u64>) {
        use std::sync::atomic::AtomicUsize;
        use std::sync::RwLock;
        let (c, computed, gate) = (QueryCache::new(), AtomicUsize::new(0), RwLock::new(()));
        let closed = gate.write().unwrap();
        let fuels = std::thread::scope(|s| {
            let calls: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| match c.lookup(key(1)) {
                        Lookup::Hit(v) => v.fuel_query,
                        Lookup::Miss(ticket) => {
                            let n = computed.fetch_add(1, Ordering::SeqCst);
                            drop(gate.read().unwrap());
                            if land || n > 0 {
                                ticket.land(verdict(true, 42, 9));
                                42
                            } else {
                                0
                            }
                        }
                    })
                })
                .collect();
            while flight_holders(&c, &key(1)) < 2 {
                std::thread::yield_now();
            }
            drop(closed);
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(flight_holders(&c, &key(1)), 0, "flight outlived its ticket");
        (computed.load(Ordering::SeqCst), fuels)
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_once() {
        // The waiter replays the leader's verdict, fuel included.
        assert_eq!(two_callers(true), (1, vec![42, 42]));
    }

    #[test]
    fn a_ticket_dropped_unlanded_lets_its_waiter_compute() {
        // The leader lands nothing (a trip); its waiter computes for
        // itself and lands.
        let (computed, mut fuels) = two_callers(false);
        fuels.sort_unstable();
        assert_eq!((computed, fuels), (2, vec![0, 42]));
    }
}
