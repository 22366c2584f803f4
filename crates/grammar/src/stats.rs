//! Cumulative counters for the intersection engine and the optimized
//! check path's caches.
//!
//! Every [`Intersection`](crate::prepared::Intersection) and every layer
//! above it (the checker's query cache, preparation memo, and the
//! attack steps' alphabet test) accounts its work into one
//! [`EngineStats`] value; the
//! per-hotspot values are merged upward into page and app totals and
//! surface on reports behind `--stats` and the daemon `metrics` verb.

use std::fmt;

/// Cumulative counters for the intersection engine, surfaced on
/// hotspot/app reports behind `--stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Intersection queries answered.
    pub queries: u64,
    /// Grammar preparations performed (trim + normalize).
    pub normalizations: u64,
    /// Queries served by an already-prepared grammar.
    pub normalizations_saved: u64,
    /// Realized `X_{ij}` triples across all queries.
    pub realized_triples: u64,
    /// Emptiness queries that suspended before the full fixpoint.
    pub early_exits: u64,
    /// Suspended fixpoints resumed to completion for reconstruction
    /// (live witness extractions). Zero for non-reporting hotspots.
    pub completions: u64,
    /// Nonempty answers to witness questions whose extraction was
    /// avoided — replayed from the query cache or skipped by the
    /// reconstruction guard. Counted once per such answer, whether it
    /// was computed live or replayed.
    pub witness_skipped: u64,
    /// Queries answered by replaying a memoized verdict.
    pub qcache_hits: u64,
    /// Queries that had to compute (and, trip-free, were memoized).
    pub qcache_misses: u64,
    /// Memoized verdicts evicted to keep the cache bounded.
    pub qcache_evictions: u64,
    /// C4 attack-membership checks discharged without an intersection:
    /// no attack fragment can be spelled from the terminal alphabet of
    /// the tainted language (absence proofs only).
    pub prefilter_skips: u64,
}

impl EngineStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &EngineStats) {
        self.queries += other.queries;
        self.normalizations += other.normalizations;
        self.normalizations_saved += other.normalizations_saved;
        self.realized_triples += other.realized_triples;
        self.early_exits += other.early_exits;
        self.completions += other.completions;
        self.witness_skipped += other.witness_skipped;
        self.qcache_hits += other.qcache_hits;
        self.qcache_misses += other.qcache_misses;
        self.qcache_evictions += other.qcache_evictions;
        self.prefilter_skips += other.prefilter_skips;
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries, {} normalizations ({} saved), {} triples, {} early exits, \
             {} qcache hits / {} misses, {} witnesses skipped",
            self.queries,
            self.normalizations,
            self.normalizations_saved,
            self.realized_triples,
            self.early_exits,
            self.qcache_hits,
            self.qcache_misses,
            self.witness_skipped
        )
    }
}
