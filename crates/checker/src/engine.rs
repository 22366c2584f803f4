//! Checker-side façade over the prepared intersection engine.
//!
//! Every C1–C5 (and XSS-context) check is one question about
//! `L(G, x) ∩ L(D)`: is it empty, and if not, what is a canonical
//! witness (paper §3.2). This module owns the plumbing every cascade
//! shares:
//!
//! - [`Qdfa`]: a check automaton compiled once into its byte-class
//!   form ([`ClassDfa`]) at checker construction, so per-query DFA work
//!   is two array loads per step;
//! - [`Shared`]: the one prepared memo and the optional verdict cache
//!   of a checker (both single-flight [`Memo`](crate::memo::Memo)s),
//!   handed to every cascade;
//! - [`Engine`]: a per-hotspot session that takes its targets from the
//!   content-keyed prepared memo (shared across pages and worker
//!   threads), answers every step through one cached query
//!   ([`Engine::query`]) on the prepared engine — replaying it from the
//!   verdict cache when `CheckOptions::query_cache` is on, keyed by
//!   the query's content and budget class alone —
//!   accumulates [`EngineStats`], and reads its candidates, their
//!   content keys and its size guard off the page index shared by every
//!   hotspot of the page;
//! - [`fan_out`]: the lock-free worker loop that fans independent jobs
//!   across threads — the hotspots of a lone page here, the pages of a
//!   run in `strtaint-core`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use strtaint_automata::{ClassDfa, Dfa};
use strtaint_grammar::budget::{Budget, BudgetExceeded};
use strtaint_grammar::prepared::{PreparedGrammar, QueryMode};
use strtaint_grammar::stats::EngineStats;
use strtaint_grammar::{Cfg, NtId};

use crate::abstraction::PageIndex;
use crate::checks::CheckOptions;
use crate::memo::Lookup;
use crate::pmemo::PreparedMemo;
use crate::qcache::{QueryCache, QueryKey, Verdict};
use crate::report::{CheckKind, Finding};

/// A check automaton in byte-class-compressed form.
#[derive(Debug, Clone)]
pub(crate) struct Qdfa {
    /// Byte-class compressed form, the prepared engine's input.
    pub classes: ClassDfa,
    /// Content fingerprint of `classes` — the `dfa` component of
    /// query-cache keys. Content-derived (not per-instance), so the
    /// dynamically built C5 lexeme automata fingerprint identically
    /// across hotspots and pages.
    pub fp: u64,
}

impl Qdfa {
    pub(crate) fn new(dfa: Dfa) -> Self {
        let classes = ClassDfa::new(&dfa);
        let fp = classdfa_fingerprint(&classes);
        Qdfa { classes, fp }
    }
}

/// FNV-1a over the full observable content of a [`ClassDfa`] (class
/// map, step table, start, accepting set). Equal fingerprints mean —
/// modulo 64-bit collision — byte-for-byte identical step behavior,
/// which is what makes them sound as cache-key components.
fn classdfa_fingerprint(c: &ClassDfa) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    mix(c.num_states() as u64);
    mix(u64::from(c.num_classes()));
    mix(u64::from(c.start()));
    for b in 0..=255u8 {
        mix(u64::from(c.class_of(b)));
    }
    for s in 0..c.num_states() as u32 {
        mix(u64::from(c.is_accepting(s)));
        for cls in 0..c.num_classes() {
            mix(u64::from(c.step_class(s, cls)));
        }
    }
    h
}

/// What a query runs against: a prepared grammar from the memo, plus
/// the bookkeeping the session's counters and witness guard need.
pub(crate) struct Target {
    prep: Arc<PreparedGrammar>,
    /// Whether a query has already used this preparation (drives the
    /// `normalizations_saved` counter).
    used: bool,
    /// Whether witness reconstruction is skipped: the target's
    /// reachable production count exceeds [`WITNESS_BUDGET`]. The
    /// candidate's key traversal counts it for free. Marked-grammar targets
    /// only ever answer emptiness, so they are built guarded.
    guarded: bool,
}

impl Target {
    /// The sorted distinct terminal bytes of the target's language
    /// (see [`PreparedGrammar::alphabet`]).
    pub(crate) fn alphabet(&self) -> &[u8] {
        self.prep.alphabet()
    }
}

/// The cross-page state every cascade of one checker shares: the one
/// prepared memo and the optional verdict cache, built here once per
/// checker and handed to each cascade's per-hotspot [`Engine`].
/// Sharing them across cascades is sound because both are
/// content-keyed: a query key carries the DFA fingerprint, a memo key
/// the grammar content, so policies never answer each other's queries.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    /// `CheckOptions::eager_witness`: never replay witness bytes from
    /// the cache — queries that extract a witness bypass memoization
    /// and run live.
    eager_witness: bool,
    /// Cross-page verdict cache (`CheckOptions::query_cache`); `None`
    /// recomputes every query.
    qcache: Option<Arc<QueryCache>>,
    /// Cross-page preparation + skeleton memo (content-keyed; see the
    /// `pmemo` module for the sharing soundness argument).
    pmemo: Arc<PreparedMemo>,
}

impl Shared {
    pub(crate) fn new(opts: &CheckOptions) -> Self {
        Shared {
            eager_witness: opts.eager_witness,
            qcache: opts.query_cache.then(|| Arc::new(QueryCache::new())),
            pmemo: Arc::new(PreparedMemo::new()),
        }
    }
}

/// Per-hotspot query session: answers intersections on the prepared
/// engine through the checker's memo and cache, and counts engine work.
/// One session serves exactly one hotspot `(cfg, root)` of an indexed
/// page: every method taking a `cfg` must be passed the grammar the
/// page index was built on.
pub(crate) struct Engine<'a> {
    shared: &'a Shared,
    page: &'a PageIndex,
    root: NtId,
    pub(crate) stats: EngineStats,
}

/// Production-count guard above which witness-grammar reconstruction is
/// skipped (the finding is still reported, just without a witness).
const WITNESS_BUDGET: usize = 50_000;

impl<'a> Engine<'a> {
    /// A session for the hotspot `root`, one of the roots `page`
    /// indexes.
    pub(crate) fn new(shared: &'a Shared, page: &'a PageIndex, root: NtId) -> Self {
        Engine {
            shared,
            page,
            root,
            stats: EngineStats::default(),
        }
    }

    /// The hotspot's root.
    pub(crate) fn root(&self) -> NtId {
        self.root
    }

    /// The hotspot's candidates: its maximal labeled nonterminals.
    pub(crate) fn candidates(&self) -> &'a [NtId] {
        self.page.candidates(self.root)
    }

    /// Whether the hotspot subgrammar has at most `cap` productions.
    pub(crate) fn within(&self, cap: usize) -> bool {
        self.page.productions(self.root) <= cap
    }

    /// The canonical marked skeleton of `x` under the hotspot (see
    /// [`PreparedMemo::skeleton_for`]); callers apply the size guard.
    pub(crate) fn skeleton(&self, cfg: &Cfg, x: NtId) -> Option<Vec<u8>> {
        self.shared.pmemo.skeleton_for(cfg, self.root, x)
    }

    /// A `kind` finding against `x` carrying `witness` and, when there
    /// is one, the witness spliced into the shortest context of `x`
    /// under the hotspot's root — the full payload the downstream
    /// interpreter would receive (see [`splice_example`]).
    pub(crate) fn finding(
        &self,
        cfg: &Cfg,
        x: NtId,
        kind: CheckKind,
        witness: Option<Vec<u8>>,
        detail: String,
    ) -> Finding {
        let example_query = witness
            .as_deref()
            .and_then(|w| splice_example(cfg, x, w, self));
        Finding {
            witness,
            example_query,
            ..Finding::new(cfg, x, kind, detail)
        }
    }

    /// Target for the candidate `x`, shared through the memo with every
    /// content-identical subgrammar of any page (and across worker
    /// threads); its key comes from the page index. Returns `None` when
    /// `L(cfg, x)` is empty (nothing to check): emptiness is read off
    /// the preparation in O(1) instead of re-running the productivity
    /// fixpoint per hotspot.
    pub(crate) fn target(&mut self, cfg: &Cfg, x: NtId) -> Option<Target> {
        let sub = self.page.key(cfg, x);
        let (prep, hit) = self.shared.pmemo.prepared(cfg, x, sub);
        if !hit {
            self.stats.normalizations += 1;
        }
        if prep.is_empty_language() {
            return None;
        }
        Some(Target {
            prep,
            used: hit,
            guarded: sub.count > WITNESS_BUDGET,
        })
    }

    /// Target for the marked grammar of `x` under the hotspot's root
    /// with no replacements — the context grammar of the C2 and XSS
    /// checks. A warm memo hit never constructs the marked grammar at
    /// all (see [`PreparedMemo::marked_prepared`]).
    pub(crate) fn target_marked(&mut self, cfg: &Cfg, x: NtId) -> Target {
        let (prep, hit) = self.shared.pmemo.marked_prepared(cfg, self.root, x);
        if !hit {
            self.stats.normalizations += 1;
        }
        Target {
            prep,
            used: hit,
            guarded: true,
        }
    }

    /// Counts one query against `target`.
    fn count_query(&mut self, target: &mut Target) {
        self.stats.queries += 1;
        if target.used {
            self.stats.normalizations_saved += 1;
        } else {
            target.used = true;
        }
    }

    /// Whether `L(target) ∩ L(q)` is empty and, when it is not and
    /// `witness` asks for one, a shortest witness string: the one
    /// question every step asks.
    ///
    /// One early-exit fixpoint answers emptiness; it is resumed for
    /// reconstruction only when the caller asks for a witness and the
    /// target is not guarded (see [`Target::guarded`]). An emptiness
    /// question and a guarded witness question therefore run the same
    /// computation and share one cache entry. A budget trip in the
    /// fixpoint propagates; one during extraction degrades to a missing
    /// witness, not a failed check.
    pub(crate) fn query(
        &mut self,
        target: &mut Target,
        q: &Qdfa,
        budget: &Budget,
        witness: bool,
    ) -> Result<(bool, Option<Vec<u8>>), BudgetExceeded> {
        self.count_query(target);
        let extract = witness && !target.guarded;
        // `eager_witness` distrusts memoized witness bytes: extracting
        // queries bypass the cache and run live.
        let ticket = match self.shared.qcache.as_deref() {
            Some(qc) if !(extract && self.shared.eager_witness) => {
                let key = QueryKey {
                    grammar: target.prep.fingerprint(),
                    dfa: q.fp,
                    extract,
                    fuel_limit: budget.fuel_limit(),
                    grammar_cap: budget.grammar_cap(),
                };
                match qc.lookup(key) {
                    Lookup::Hit(v) => {
                        self.stats.qcache_hits += 1;
                        return self.replay(v, budget, witness);
                    }
                    Lookup::Miss(ticket) => {
                        self.stats.qcache_misses += 1;
                        Some(ticket)
                    }
                }
            }
            _ => None,
        };
        // `?` on a trip: tripped fixpoints are never cached (the
        // dropped ticket lets any waiter compute for itself).
        let mut ix = target.prep.query(&q.classes, budget, QueryMode::EarlyExit)?;
        if ix.exited_early() {
            self.stats.early_exits += 1;
        }
        let mut v = Verdict {
            empty: ix.is_empty(),
            witness: None,
            fuel_query: ix.charged(),
            fuel_witness: 0,
            triples_query: ix.triples() as u64,
            triples_final: ix.triples() as u64,
        };
        if !v.empty && extract {
            let wres = ix.witness(budget);
            self.stats.completions += ix.completions();
            v.triples_final = ix.triples() as u64;
            // Tripped mid-extraction: the finding stands without a
            // witness, and the (partially charged) computation is never
            // cached.
            let Ok(w) = wres else {
                self.stats.realized_triples += v.triples_final;
                return Ok((false, None));
            };
            v.witness = w;
            v.fuel_witness = ix.charged() - v.fuel_query;
        } else if !v.empty && witness {
            self.stats.witness_skipped += 1;
        }
        self.stats.realized_triples += v.triples_final;
        let answer = (v.empty, v.witness.clone());
        if let Some(ticket) = ticket {
            self.stats.qcache_evictions += ticket.land(v);
        }
        Ok(answer)
    }

    /// Replays a memoized verdict with the observable behavior of its
    /// recomputation: the recorded fuel is charged per phase, so a
    /// replay consumes and trips exactly as the live query would. A
    /// zero charge skips the call, so an already exhausted budget is
    /// not probed where the computation would not have probed it.
    fn replay(
        &mut self,
        v: Verdict,
        budget: &Budget,
        witness: bool,
    ) -> Result<(bool, Option<Vec<u8>>), BudgetExceeded> {
        // Fixpoint fuel: a trip propagates, exactly like the live `?`.
        if v.fuel_query > 0 {
            budget.charge(v.fuel_query)?;
        }
        if v.empty {
            self.stats.realized_triples += v.triples_query;
            return Ok((true, None));
        }
        // A verdict recorded without extraction has no witness phase
        // (no fuel, no extra triples), so this one path replays both.
        if witness {
            self.stats.witness_skipped += 1;
        }
        // Extraction fuel: a trip degrades to a missing witness,
        // exactly like the live extraction.
        let w = if v.fuel_witness > 0 && budget.charge(v.fuel_witness).is_err() {
            None
        } else {
            v.witness
        };
        self.stats.realized_triples += v.triples_final;
        Ok((false, w))
    }
}

/// Splices a witness tainted substring into the shortest query context
/// (the marked-grammar skeleton with [`strtaint_sql::VAR_MARKER`] at
/// the tainted position), producing the full payload the downstream
/// interpreter would receive; `None` when the grammar is too large for
/// reconstruction to be worth it. The skeleton (the canonical shortest
/// string of the marked grammar, the expensive part) comes from the
/// memo, shared across content-identical marked grammars, so a warm
/// re-check of an unchanged page skips the reconstruction.
fn splice_example(cfg: &Cfg, x: NtId, witness: &[u8], engine: &Engine<'_>) -> Option<Vec<u8>> {
    const BUDGET: usize = 50_000;
    if !engine.within(BUDGET) {
        return None;
    }
    let skeleton = engine.skeleton(cfg, x)?;
    let mut out = Vec::with_capacity(skeleton.len() + witness.len());
    for b in skeleton {
        if b == strtaint_sql::VAR_MARKER {
            out.extend_from_slice(witness);
        } else {
            out.push(b);
        }
    }
    Some(out)
}

/// Runs `job` over every item on up to `workers` scoped threads and
/// returns the results in item order.
///
/// Lock-free work distribution: a shared atomic index, per-worker
/// result buffers, and a merge in item order after the join. No lock
/// is held across a job, so a job fault can never poison shared state.
/// A worker panic is re-raised on the calling thread, so callers see it
/// exactly as a serial panic; callers that must survive one catch it
/// inside `job`. The calling thread runs one of the workers (with one
/// worker, or one item, every job runs inline on it): one thread fewer
/// to spawn, and a long-lived caller such as the daemon keeps its share
/// of what the jobs allocate in its own allocator arena, where its
/// later requests reuse the memory.
pub fn fan_out<T, R, F>(items: &[T], workers: usize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let run = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, job(&items[i])));
        }
        local
    };
    let mut merged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
        merged.extend(run());
        for h in handles {
            match h.join() {
                Ok(local) => merged.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    merged.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(merged.len(), items.len());
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint_automata::Regex;

    /// `x -> "a'b"` prepared as a guarded target, and the "contains a
    /// quote" automaton: a non-empty intersection.
    fn quoted_guarded() -> (Target, Qdfa) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("x");
        g.add_literal_production(x, b"a'b");
        let target = Target {
            prep: Arc::new(PreparedGrammar::new(&g, x)),
            used: false,
            guarded: true,
        };
        (target, Qdfa::new(Regex::new("'").unwrap().match_dfa()))
    }

    /// An index over an empty page: the query tests need no hotspot.
    fn no_page() -> PageIndex {
        PageIndex::new(&Cfg::new(), &[])
    }

    #[test]
    fn guarded_witness_answers_count_one_skip_live_and_replayed() {
        let shared = Shared::new(&CheckOptions::default());
        let page = no_page();
        let mut engine = Engine::new(&shared, &page, NtId(0));
        let (mut t, q) = quoted_guarded();
        let budget = Budget::unlimited();
        assert_eq!(engine.query(&mut t, &q, &budget, true), Ok((false, None)));
        assert_eq!(engine.stats.qcache_misses, 1);
        assert_eq!(engine.stats.witness_skipped, 1, "live");
        assert_eq!(engine.query(&mut t, &q, &budget, true), Ok((false, None)));
        assert_eq!(engine.stats.qcache_hits, 1);
        assert_eq!(engine.stats.witness_skipped, 2, "replayed");
        assert_eq!(engine.stats.completions, 0);
    }

    #[test]
    fn emptiness_and_guarded_witness_questions_share_an_entry() {
        let budget = Budget::unlimited();
        let page = no_page();
        for witness_first in [false, true] {
            let shared = Shared::new(&CheckOptions::default());
            let mut engine = Engine::new(&shared, &page, NtId(0));
            let (mut t, q) = quoted_guarded();
            let first = engine.query(&mut t, &q, &budget, witness_first);
            let triples = engine.stats.realized_triples;
            let second = engine.query(&mut t, &q, &budget, !witness_first);
            assert_eq!((first, second), (Ok((false, None)), Ok((false, None))));
            let order = format!("witness first: {witness_first}");
            assert_eq!(engine.stats.qcache_misses, 1, "{order}");
            assert_eq!(engine.stats.qcache_hits, 1, "{order}");
            // The replay accounts exactly what the live query did.
            assert_eq!(engine.stats.realized_triples, 2 * triples);
            assert_eq!(engine.stats.witness_skipped, 1);
        }
    }
}
