//! Checker-side façade over the prepared intersection engine.
//!
//! Every C1–C5 (and XSS-context) check is an emptiness question about
//! `L(G, x) ∩ L(D)`. This module owns the plumbing every cascade shares:
//!
//! - [`Qdfa`]: a check automaton compiled once into its raw [`Dfa`]
//!   *and* its byte-class form ([`ClassDfa`]) at checker construction,
//!   so per-query DFA work is two array loads per step;
//! - [`Shared`]: the engine routing and the one query cache and
//!   prepared memo of a checker, handed to every cascade;
//! - [`Engine`]: a per-hotspot session that routes queries either
//!   through the prepared engine (a [`PreparedCache`] shared by every
//!   check of the page) or through the naive reference path
//!   (`CheckOptions::naive_engine`, the cold baseline for benches and
//!   equivalence tests), while accumulating [`EngineStats`];
//! - [`run_parallel`]: the lock-free worker loop that fans hotspot
//!   checks of one page across threads — hotspots are independent given
//!   the immutable `Cfg`, and the cache is thread-safe, so workers
//!   share preparations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use strtaint_automata::{ClassDfa, Dfa};
use strtaint_grammar::budget::{Budget, BudgetExceeded};
use strtaint_grammar::intersect::{intersect_with, is_intersection_empty_with};
use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::prepared::{PreparedCache, PreparedGrammar, QueryMode};
use strtaint_grammar::stats::EngineStats;
use strtaint_grammar::{Cfg, NtId};

use crate::abstraction::marked_grammar;
use crate::checks::CheckOptions;
use crate::pmemo::PreparedMemo;
use crate::qcache::{Mode, QueryCache, QueryKey, Verdict};
use crate::report::{CheckKind, Finding, HotspotReport};

/// A check automaton in both raw and byte-class-compressed form.
#[derive(Debug, Clone)]
pub(crate) struct Qdfa {
    /// The raw DFA, used by the naive reference path.
    pub dfa: Dfa,
    /// Byte-class compressed form, used by the prepared engine.
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
        Qdfa { dfa, classes, fp }
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

/// What a query runs against: a `(cfg, root)` pair on the naive path,
/// or a prepared grammar (cached or check-local) on the fast path.
pub(crate) enum Target<'a> {
    Naive {
        cfg: &'a Cfg,
        root: NtId,
    },
    Prepared {
        prep: Arc<PreparedGrammar>,
        /// Whether a query has already used this preparation (drives
        /// the `normalizations_saved` counter).
        used: bool,
        /// Precomputed witness-reconstruction guard for the target's
        /// own `(cfg, root)` — `Some` when the preparation memo's key
        /// traversal already counted the reachable productions, so
        /// witness queries skip the per-query `reachable_list` walk.
        guarded: Option<bool>,
    },
}

/// Engine routing plus the cross-page state every cascade of one
/// checker shares. The query cache and prepared memo are built here,
/// once per checker, and handed to each cascade's per-hotspot
/// [`Engine`]. Sharing them across cascades is sound because both are
/// content-keyed: a query key carries the DFA fingerprint, a memo key
/// the grammar content, so policies never answer each other's queries.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    naive: bool,
    /// `CheckOptions::eager_witness`: never replay witness bytes from
    /// the cache — witness-mode queries bypass memoization and extract
    /// live.
    eager_witness: bool,
    /// Cross-page verdict cache; `None` disables memoization.
    qcache: Option<Arc<QueryCache>>,
    /// Cross-page preparation + skeleton memo (content-keyed; see the
    /// `pmemo` module for the sharing soundness argument).
    pmemo: Option<Arc<PreparedMemo>>,
}

impl Shared {
    pub(crate) fn new(opts: &CheckOptions) -> Self {
        // The naive path is the reference engine: it never memoizes,
        // whatever the options say.
        let memoize = opts.query_cache && !opts.naive_engine;
        Shared {
            naive: opts.naive_engine,
            eager_witness: opts.eager_witness,
            qcache: memoize.then(|| Arc::new(QueryCache::new())),
            pmemo: memoize.then(|| Arc::new(PreparedMemo::new())),
        }
    }

    /// Stamps the config-fingerprint namespace on the query cache.
    pub(crate) fn set_query_scope(&self, scope: u64) {
        if let Some(qc) = &self.qcache {
            qc.set_scope(scope);
        }
    }

    /// Exports one hotspot's canonical skeleton set through the shared
    /// memo (see [`crate::skeletons`]).
    pub(crate) fn skeletons_for(&self, cfg: &Cfg, root: NtId) -> (Vec<Vec<u8>>, bool) {
        crate::skeletons::hotspot_skeletons(cfg, root, self.pmemo.as_deref())
    }
}

/// Per-hotspot query session: routes intersections through the
/// prepared engine or the naive path, and counts engine work.
pub(crate) struct Engine<'a> {
    cache: &'a PreparedCache,
    shared: &'a Shared,
    pub(crate) stats: EngineStats,
}

/// Production-count guard above which witness-grammar reconstruction is
/// skipped (the finding is still reported, just without a witness).
const WITNESS_BUDGET: usize = 50_000;

impl<'a> Engine<'a> {
    pub(crate) fn new(cache: &'a PreparedCache, shared: &'a Shared) -> Self {
        Engine {
            cache,
            shared,
            stats: EngineStats::default(),
        }
    }

    /// A `kind` finding against `x` carrying `witness` and, when there
    /// is one, the witness spliced into the shortest context of `x`
    /// under `root` — the full payload the downstream interpreter
    /// would receive (see [`splice_example_memo`]).
    pub(crate) fn finding(
        &self,
        cfg: &Cfg,
        root: NtId,
        x: NtId,
        kind: CheckKind,
        witness: Option<Vec<u8>>,
        detail: String,
    ) -> Finding {
        let example_query = witness
            .as_deref()
            .and_then(|w| splice_example_memo(cfg, root, x, w, self.shared.pmemo.as_deref()));
        Finding {
            witness,
            example_query,
            ..Finding::new(cfg, x, kind, detail)
        }
    }

    /// Assembles the full identity of one query (see `qcache` module
    /// docs for why every component is load-bearing).
    fn query_key(
        qc: &QueryCache,
        prep: &PreparedGrammar,
        q: &Qdfa,
        mode: Mode,
        budget: &Budget,
    ) -> QueryKey {
        QueryKey {
            scope: qc.scope(),
            grammar: prep.fingerprint(),
            dfa: q.fp,
            mode,
            fuel_limit: budget.fuel_limit(),
            grammar_cap: budget.grammar_cap(),
        }
    }

    /// Target for a root of the page grammar — shared via the cache
    /// across all checks of the page (and across worker threads).
    /// Returns `None` when `L(cfg, root)` is empty (nothing to check):
    /// the prepared paths read emptiness off the preparation in O(1)
    /// instead of re-running the productivity fixpoint per hotspot.
    pub(crate) fn target<'t>(&mut self, cfg: &'t Cfg, root: NtId) -> Option<Target<'t>> {
        if self.shared.naive {
            if cfg.is_empty_language(root) {
                return None;
            }
            return Some(Target::Naive { cfg, root });
        }
        // The per-batch cache answers repeats within this page by bare
        // `NtId` lookup; the cross-page memo answers content-identical
        // subgrammars from any page without re-preparing.
        let (prep, hit, guarded) = match self.shared.pmemo.as_deref() {
            Some(memo) => {
                let (prep, hit, count) = memo.prepared(cfg, root);
                (prep, hit, Some(count > WITNESS_BUDGET))
            }
            None => {
                let (prep, hit) = self.cache.prepared(cfg, root);
                (prep, hit, None)
            }
        };
        if !hit {
            self.stats.normalizations += 1;
        }
        if prep.is_empty_language() {
            return None;
        }
        Some(Target::Prepared {
            prep,
            used: hit,
            guarded,
        })
    }

    /// Target for the marked grammar of `(cfg, root, x)` with no
    /// replacements — the context grammar of the C2 and XSS checks.
    /// On the memoized path a warm hit never constructs the marked
    /// grammar at all (see [`PreparedMemo::marked_prepared`]); the
    /// naive path builds it into `scratch`, which must outlive the
    /// returned target.
    pub(crate) fn target_marked<'t>(
        &mut self,
        cfg: &Cfg,
        root: NtId,
        x: NtId,
        scratch: &'t mut Option<(Cfg, NtId)>,
    ) -> Target<'t> {
        if self.shared.naive {
            let (c, r) = scratch.insert(marked_grammar(cfg, root, x, &Default::default()));
            return Target::Naive { cfg: c, root: *r };
        }
        let (prep, hit) = match self.shared.pmemo.as_deref() {
            Some(memo) => memo.marked_prepared(cfg, root, x),
            None => {
                let (marked, mroot) = marked_grammar(cfg, root, x, &Default::default());
                (Arc::new(PreparedGrammar::new(&marked, mroot)), false)
            }
        };
        if !hit {
            self.stats.normalizations += 1;
        }
        Target::Prepared {
            prep,
            used: hit,
            guarded: None,
        }
    }

    /// `true` if `L(target) ∩ L(q)` is empty (early-exit fixpoint on
    /// the prepared path).
    pub(crate) fn is_empty(
        &mut self,
        target: &mut Target<'_>,
        q: &Qdfa,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        self.stats.queries += 1;
        match target {
            Target::Naive { cfg, root } => {
                self.stats.normalizations += 1;
                is_intersection_empty_with(cfg, *root, &q.dfa, budget)
            }
            Target::Prepared { prep, used, .. } => {
                if *used {
                    self.stats.normalizations_saved += 1;
                } else {
                    *used = true;
                }
                if let Some(qc) = self.shared.qcache.as_deref() {
                    let key = Self::query_key(qc, prep, q, Mode::Empty, budget);
                    if let Some(Verdict::Empty {
                        empty,
                        fuel,
                        triples,
                    }) = qc.get(&key)
                    {
                        self.stats.qcache_hits += 1;
                        // Replay the recorded fuel so a replayed verdict
                        // consumes (and trips) exactly as the
                        // recomputation would; zero-charge replays skip
                        // the call so an already-exhausted budget is not
                        // probed where the computation wouldn't have.
                        if fuel > 0 {
                            budget.charge(fuel)?;
                        }
                        self.stats.realized_triples += triples;
                        return Ok(empty);
                    }
                    self.stats.qcache_misses += 1;
                    // `?` on a trip: tripped fixpoints are never cached.
                    let ix = prep.query(&q.classes, budget, QueryMode::EarlyExit)?;
                    self.stats.realized_triples += ix.triples() as u64;
                    if ix.exited_early() {
                        self.stats.early_exits += 1;
                    }
                    self.stats.qcache_evictions += qc.insert(
                        key,
                        Verdict::Empty {
                            empty: ix.is_empty(),
                            fuel: ix.charged(),
                            triples: ix.triples() as u64,
                        },
                    );
                    return Ok(ix.is_empty());
                }
                let ix = prep.query(&q.classes, budget, QueryMode::EarlyExit)?;
                self.stats.realized_triples += ix.triples() as u64;
                if ix.exited_early() {
                    self.stats.early_exits += 1;
                }
                Ok(ix.is_empty())
            }
        }
    }

    /// Emptiness plus, when nonempty, a shortest witness string.
    ///
    /// On the prepared path the suspended emptiness fixpoint is resumed
    /// for reconstruction instead of re-running from scratch. `guard`
    /// is the `(cfg, x)` whose reachable-production count gates the
    /// (expensive) reconstruction, exactly as the old `witness_of`;
    /// a budget trip during witness extraction degrades to a missing
    /// witness, not a failed check.
    pub(crate) fn is_empty_or_witness(
        &mut self,
        target: &mut Target<'_>,
        q: &Qdfa,
        budget: &Budget,
        guard: (&Cfg, NtId),
    ) -> Result<(bool, Option<Vec<u8>>), BudgetExceeded> {
        self.stats.queries += 1;
        let (gcfg, gx) = guard;
        match target {
            Target::Naive { cfg, root } => {
                self.stats.normalizations += 1;
                if is_intersection_empty_with(cfg, *root, &q.dfa, budget)? {
                    return Ok((true, None));
                }
                if gcfg.count_reachable_productions(gx, WITNESS_BUDGET) > WITNESS_BUDGET {
                    return Ok((false, None));
                }
                // The naive path pays a second full fixpoint here.
                self.stats.queries += 1;
                self.stats.normalizations += 1;
                let witness = intersect_with(cfg, *root, &q.dfa, budget)
                    .ok()
                    .and_then(|(g, r)| shortest_string(&g, r));
                Ok((false, witness))
            }
            Target::Prepared {
                prep,
                used,
                guarded: precomputed,
            } => {
                if *used {
                    self.stats.normalizations_saved += 1;
                } else {
                    *used = true;
                }
                // The guard decision for this query: precomputed by the
                // memo's key traversal when available (call sites pass
                // the target's own `(cfg, root)` as the guard pair),
                // recomputed from the raw grammar otherwise.
                let guard_decision = |precomputed: Option<bool>| {
                    precomputed.unwrap_or_else(|| {
                        gcfg.count_reachable_productions(gx, WITNESS_BUDGET) > WITNESS_BUDGET
                    })
                };
                // `eager_witness` distrusts memoized witness bytes:
                // witness-mode queries bypass the cache and extract
                // live (emptiness-only queries still memoize).
                let qc = if self.shared.eager_witness {
                    None
                } else {
                    self.shared.qcache.as_deref()
                };
                if let Some(qc) = qc {
                    // The guard is part of the key: it decides whether
                    // the extraction phase runs at all, so it must be
                    // settled *before* lookup.
                    let guarded = guard_decision(*precomputed);
                    let key = Self::query_key(qc, prep, q, Mode::Witness { guarded }, budget);
                    if let Some(Verdict::Witness {
                        empty,
                        witness,
                        fuel_query,
                        fuel_witness,
                        triples_query,
                        triples_final,
                    }) = qc.get(&key)
                    {
                        self.stats.qcache_hits += 1;
                        // Emptiness-phase fuel: a trip propagates,
                        // exactly like the live `?`.
                        if fuel_query > 0 {
                            budget.charge(fuel_query)?;
                        }
                        if empty {
                            self.stats.realized_triples += triples_query;
                            return Ok((true, None));
                        }
                        self.stats.witness_skipped += 1;
                        if guarded {
                            self.stats.realized_triples += triples_query;
                            return Ok((false, None));
                        }
                        // Extraction-phase fuel: a trip degrades to a
                        // missing witness, exactly like the live
                        // `.ok().flatten()`.
                        let witness = if fuel_witness > 0 && budget.charge(fuel_witness).is_err() {
                            None
                        } else {
                            witness
                        };
                        self.stats.realized_triples += triples_final;
                        return Ok((false, witness));
                    }
                    self.stats.qcache_misses += 1;
                    let mut ix = prep.query(&q.classes, budget, QueryMode::EarlyExit)?;
                    let fuel_query = ix.charged();
                    let triples_query = ix.triples() as u64;
                    if ix.exited_early() {
                        self.stats.early_exits += 1;
                    }
                    if ix.is_empty() {
                        self.stats.realized_triples += triples_query;
                        self.stats.qcache_evictions += qc.insert(
                            key,
                            Verdict::Witness {
                                empty: true,
                                witness: None,
                                fuel_query,
                                fuel_witness: 0,
                                triples_query,
                                triples_final: triples_query,
                            },
                        );
                        return Ok((true, None));
                    }
                    if guarded {
                        self.stats.realized_triples += triples_query;
                        self.stats.qcache_evictions += qc.insert(
                            key,
                            Verdict::Witness {
                                empty: false,
                                witness: None,
                                fuel_query,
                                fuel_witness: 0,
                                triples_query,
                                triples_final: triples_query,
                            },
                        );
                        return Ok((false, None));
                    }
                    let wres = ix.witness(budget);
                    self.stats.completions += ix.completions();
                    self.stats.realized_triples += ix.triples() as u64;
                    return match wres {
                        Ok(witness) => {
                            self.stats.qcache_evictions += qc.insert(
                                key,
                                Verdict::Witness {
                                    empty: false,
                                    witness: witness.clone(),
                                    fuel_query,
                                    fuel_witness: ix.charged() - fuel_query,
                                    triples_query,
                                    triples_final: ix.triples() as u64,
                                },
                            );
                            Ok((false, witness))
                        }
                        // Tripped mid-extraction: the finding stands
                        // without a witness, and the (partially
                        // charged) computation is never cached.
                        Err(_) => Ok((false, None)),
                    };
                }
                let mut ix = prep.query(&q.classes, budget, QueryMode::EarlyExit)?;
                if ix.exited_early() {
                    self.stats.early_exits += 1;
                }
                if ix.is_empty() {
                    self.stats.realized_triples += ix.triples() as u64;
                    return Ok((true, None));
                }
                if guard_decision(*precomputed) {
                    self.stats.realized_triples += ix.triples() as u64;
                    return Ok((false, None));
                }
                let witness = ix.witness(budget).ok().flatten();
                self.stats.completions += ix.completions();
                self.stats.realized_triples += ix.triples() as u64;
                Ok((false, witness))
            }
        }
    }
}

/// Splices a witness tainted substring into the shortest query context
/// (the marked-grammar skeleton with [`strtaint_sql::VAR_MARKER`] at
/// the tainted position), producing the full payload the downstream
/// interpreter would receive; `None` when the grammar is too large for
/// reconstruction to be worth it. With a [`PreparedMemo`], the
/// skeleton (the canonical shortest string of the marked grammar, the
/// expensive part) is shared across content-identical marked grammars,
/// so a warm re-check of an unchanged page skips the reconstruction.
fn splice_example_memo(
    cfg: &Cfg,
    root: NtId,
    x: NtId,
    witness: &[u8],
    memo: Option<&PreparedMemo>,
) -> Option<Vec<u8>> {
    const BUDGET: usize = 50_000;
    if cfg.count_reachable_productions(root, BUDGET) > BUDGET {
        return None;
    }
    let skeleton = match memo {
        // The memoized path derives its key from `(cfg, root, x)`
        // directly, so a warm hit skips the marked-grammar clone too.
        Some(m) => m.skeleton_for(cfg, root, x)?,
        None => {
            let (marked, mroot) = marked_grammar(cfg, root, x, &Default::default());
            shortest_string(&marked, mroot)?
        }
    };
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

/// Checks `items[i]` with `check` on up to `workers` threads and
/// returns the reports in input order.
///
/// Lock-free work distribution (shared atomic index, per-worker result
/// buffers, sorted merge) mirroring `analyze_app_parallel_with` in
/// `strtaint-core`. A worker panic is re-raised on the calling thread
/// so page-level fault isolation sees it exactly as a serial panic.
pub(crate) fn run_parallel<T, F>(items: &[T], workers: usize, check: F) -> Vec<HotspotReport>
where
    T: Sync,
    F: Fn(&T) -> HotspotReport + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(&check).collect();
    }
    let next = AtomicUsize::new(0);
    let mut merged: Vec<(usize, HotspotReport)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let check = &check;
                scope.spawn(move || {
                    let mut local: Vec<(usize, HotspotReport)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, check(&items[i])));
                    }
                    local
                })
            })
            .collect();
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
