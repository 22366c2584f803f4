//! The prepared intersection engine: pay grammar setup once, answer
//! many CFG∩FSA queries.
//!
//! The policy-conformance phase (paper §3.2) asks a *pile* of emptiness
//! questions about the same hotspot grammar: C1–C5 each intersect
//! `L(G, root)` with a different fixed DFA, and a witness query follows
//! any nonempty answer. [`crate::intersect`] re-trims and re-normalizes
//! the whole grammar on every call; at hotspot scale that setup
//! dominates. This module splits the work along its natural seam:
//!
//! - [`PreparedGrammar`] trims + binary-normalizes `(cfg, root)` once
//!   and precomputes the production/occurrence indexes the Bar-Hillel
//!   worklist needs. It is immutable and `Send + Sync`, so one
//!   preparation serves every check of a hotspot and every hotspot
//!   sharing a root — across threads ([`PreparedCache`]).
//! - [`PreparedGrammar::query`] runs the fixpoint against a
//!   [`ClassDfa`] (byte-equivalence-class compressed, so step tables
//!   are indexed per class, not per raw byte) and returns a resumable
//!   [`Intersection`]. In [`QueryMode::EarlyExit`] the worklist stops
//!   the moment an accepting root triple is realized — emptiness is
//!   decided without draining the remaining frontier.
//! - [`Intersection::grammar`]/[`Intersection::witness`] *resume* the
//!   same fixpoint to completion and reconstruct the intersection
//!   grammar, so a witness after an emptiness query costs only the
//!   leftover frontier instead of a second full fixpoint. Resumption is
//!   sound because the realized set is monotone: every triple already
//!   discovered stays realized, and draining the worklist discovers
//!   exactly the triples the from-scratch fixpoint would.
//!
//! Realized end-state sets are kept **sorted** and probed with
//! `binary_search` (debug assertions check orderedness), replacing the
//! linear `contains` scans of the naive engine. Engine work is observable
//! through [`EngineStats`](crate::stats::EngineStats), which reports
//! surface on `HotspotReport`/`AppReport`.
//!
//! The naive path in [`crate::intersect`] is retained as the reference
//! implementation; equivalence is property-tested in
//! `crates/grammar/tests/engine.rs`.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use strtaint_automata::ClassDfa;

use crate::budget::{Budget, BudgetExceeded};
use crate::cfg::{Cfg, Csr};
use crate::normal::{Normal, P};
use crate::symbol::{NtId, Symbol, Taint};

/// A grammar trimmed + binary-normalized once, ready to intersect with
/// any number of DFAs.
///
/// Construction does all the per-grammar work of
/// [`crate::intersect::intersect`] — trimming to the reachable,
/// productive part, `NORMALIZE` (paper Fig. 7), production shape
/// classification and occurrence indexing — so each
/// [`query`](Self::query) only pays for the fixpoint itself.
pub struct PreparedGrammar {
    /// Normalized (trimmed) grammar; taint labels preserved. Its root
    /// is local id 0.
    norm: Normal,
    /// Name and taint of the *original* root, for result-grammar
    /// reconstruction parity with the naive engine.
    root_name: String,
    root_taint: Taint,
    /// occ_unit[x] = productions `lhs -> x`.
    occ_unit: Csr,
    /// occ_left[x] = productions with `x` in the left slot (NT/NN).
    occ_left: Csr,
    /// occ_right[x] = productions with `x` in the right slot (TN/NN).
    occ_right: Csr,
    /// Sorted distinct terminal bytes the grammar mentions.
    bytes: Vec<u8>,
    /// Structural fingerprint of `(norm_root, prods)` — see
    /// [`Self::fingerprint`].
    fingerprint: (u64, u64),
    /// Whether `L(root)` is empty, read off the trimmed grammar at
    /// construction — see [`Self::is_empty_language`].
    empty: bool,
}

/// 64-bit FNV-1a over a byte stream, parameterized by offset basis so
/// two independent streams give a 128-bit combined fingerprint.
struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new(basis: u64) -> Fnv {
        Fnv(basis)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
}

impl fmt::Debug for PreparedGrammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedGrammar")
            .field("root", &self.root_name)
            .field("nonterminals", &self.norm.num_nonterminals())
            .field("productions", &self.norm.prods.len())
            .field("distinct_bytes", &self.bytes.len())
            .finish()
    }
}

impl PreparedGrammar {
    /// Trims and normalizes `(g, root)` and builds the worklist indexes.
    pub fn new(g: &Cfg, root: NtId) -> Self {
        let _span = strtaint_obs::Span::enter_with("prepare", || g.name(root).to_owned());
        let norm = Normal::new(g, root);
        let empty = norm.is_empty();
        let nv = norm.num_nonterminals();
        let prods = &norm.prods;

        let (mut unit, mut left, mut right) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes: Vec<u8> = Vec::new();
        for (pid, &(_, p)) in prods.iter().enumerate() {
            let pid = pid as u32;
            match p {
                P::N(x) => unit.push((x.0, pid)),
                P::TN(a, x) => {
                    bytes.push(a);
                    right.push((x.0, pid));
                }
                P::NT(x, b) => {
                    bytes.push(b);
                    left.push((x.0, pid));
                }
                P::NN(x, y) => {
                    left.push((x.0, pid));
                    right.push((y.0, pid));
                }
                P::T(a) => bytes.push(a),
                P::TT(a, b) => {
                    bytes.push(a);
                    bytes.push(b);
                }
                P::Eps => {}
            }
        }
        let csr = |pairs: Vec<(u32, u32)>| Csr::new(nv, pairs.into_iter());
        let (occ_unit, occ_left, occ_right) = (csr(unit), csr(left), csr(right));
        bytes.sort_unstable();
        bytes.dedup();

        // Structural fingerprint over the exact normalized production
        // sequence. Names and taints are excluded on purpose: they
        // affect neither query verdicts nor (canonical) witness bytes,
        // so structurally identical grammars from different pages hash
        // equal — which is what makes cross-page verdict memoization
        // hit. Trimming renumbers nonterminals in root-discovery order,
        // so identical shapes produce identical id sequences here.
        let mut h1 = Fnv::new(0xcbf2_9ce4_8422_2325);
        let mut h2 = Fnv::new(0x6c62_272e_07bb_0142);
        for h in [&mut h1, &mut h2] {
            h.u32(0); // the root's id
            h.u32(nv as u32);
            for &(lhs, p) in prods {
                h.u32(lhs.0);
                match p {
                    P::Eps => h.byte(0),
                    P::T(a) => {
                        h.byte(1);
                        h.byte(a);
                    }
                    P::N(x) => {
                        h.byte(2);
                        h.u32(x.0);
                    }
                    P::TT(a, b) => {
                        h.byte(3);
                        h.byte(a);
                        h.byte(b);
                    }
                    P::TN(a, x) => {
                        h.byte(4);
                        h.byte(a);
                        h.u32(x.0);
                    }
                    P::NT(x, b) => {
                        h.byte(5);
                        h.u32(x.0);
                        h.byte(b);
                    }
                    P::NN(x, y) => {
                        h.byte(6);
                        h.u32(x.0);
                        h.u32(y.0);
                    }
                }
            }
        }

        PreparedGrammar {
            norm,
            root_name: g.name(root).to_owned(),
            root_taint: g.taint(root),
            occ_unit,
            occ_left,
            occ_right,
            bytes,
            fingerprint: (h1.0, h2.0),
            empty,
        }
    }

    /// Number of nonterminals in the normalized grammar.
    pub fn num_nonterminals(&self) -> usize {
        self.norm.num_nonterminals()
    }

    /// Whether the prepared language is empty — equivalent to
    /// `Cfg::is_empty_language` on the original `(g, root)`, but O(1):
    /// trimming already ran the productivity fixpoint, so checkers that
    /// hold a preparation need not re-walk the raw grammar.
    pub fn is_empty_language(&self) -> bool {
        self.empty
    }

    /// Structural fingerprint of the normalized grammar (128 bits as a
    /// pair of independent 64-bit FNV-1a hashes over the production
    /// sequence). Equal fingerprints mean — up to hash collision —
    /// byte-identical `(norm_root, prods)` sequences, so two prepared
    /// grammars with equal fingerprints run any query with the same
    /// verdict, the same charge schedule, and the same canonical
    /// witness: exactly the contract memoized verdict replay needs.
    pub fn fingerprint(&self) -> (u64, u64) {
        self.fingerprint
    }

    /// The sorted distinct terminal bytes the grammar can emit. Every
    /// string of the language is a word over this alphabet — the fact
    /// the checker's attack-fragment prefilter exploits to prove
    /// non-membership without an intersection.
    pub fn alphabet(&self) -> &[u8] {
        &self.bytes
    }

    /// Runs the Bar-Hillel worklist fixpoint against `dfa`.
    ///
    /// Charges `budget` one unit per discovery attempt and per worklist
    /// pop (same schedule as the naive engine) and caps the realized
    /// triple count via [`Budget::check_grammar_size`]. In
    /// [`QueryMode::EarlyExit`] the loop suspends as soon as an
    /// accepting root triple is realized; the returned [`Intersection`]
    /// answers emptiness immediately and can be
    /// [resumed](Intersection::complete) for grammar reconstruction.
    pub fn query<'g, 'd>(
        &'g self,
        dfa: &'d ClassDfa,
        budget: &Budget,
        mode: QueryMode,
    ) -> Result<Intersection<'g, 'd>, BudgetExceeded> {
        let _span = strtaint_obs::Span::enter_with("intersect", || self.root_name.clone());
        let q = dfa.num_states() as u32;
        let nc = dfa.num_classes() as usize;

        // Per-class step tables, filled only for the classes the
        // grammar's terminals actually inhabit.
        let mut forward: Vec<Vec<u32>> = vec![Vec::new(); nc];
        let mut reverse: Vec<Vec<Vec<u32>>> = vec![Vec::new(); nc];
        for &b in &self.bytes {
            let c = dfa.class_of(b) as usize;
            if !forward[c].is_empty() {
                continue;
            }
            let fwd: Vec<u32> = (0..q).map(|i| dfa.step_class(i, c as u16)).collect();
            let mut rev: Vec<Vec<u32>> = vec![Vec::new(); q as usize];
            for (i, &j) in fwd.iter().enumerate() {
                rev[j as usize].push(i as u32);
            }
            forward[c] = fwd;
            reverse[c] = rev;
        }

        let mut ix = Intersection {
            prep: self,
            dfa,
            forward,
            reverse,
            by_start: vec![HashMap::new(); self.num_nonterminals()],
            by_end: vec![HashMap::new(); self.num_nonterminals()],
            worklist: Vec::new(),
            triples: 0,
            charged: 0,
            completions: 0,
            hit: false,
            exited_early: false,
            seeded: false,
        };
        ix.run(budget, mode)?;
        Ok(ix)
    }
}

/// How much of the fixpoint a [`PreparedGrammar::query`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Suspend as soon as an accepting root triple is realized.
    /// Emptiness is already decided; resume with
    /// [`Intersection::complete`] before reconstruction.
    EarlyExit,
    /// Drain the worklist to the full fixpoint.
    Full,
}

/// A (possibly suspended) intersection fixpoint over a
/// [`PreparedGrammar`] and a [`ClassDfa`].
pub struct Intersection<'g, 'd> {
    prep: &'g PreparedGrammar,
    dfa: &'d ClassDfa,
    /// forward[class] = successor state per start state (empty = class
    /// unused by the grammar).
    forward: Vec<Vec<u32>>,
    /// reverse[class][end] = start states stepping to `end`.
    reverse: Vec<Vec<Vec<u32>>>,
    /// by_start[X][i] = **sorted** end states j with X_{ij} realized.
    by_start: Vec<HashMap<u32, Vec<u32>>>,
    /// by_end[X][j] = **sorted** start states i with X_{ij} realized.
    by_end: Vec<HashMap<u32, Vec<u32>>>,
    worklist: Vec<(NtId, u32, u32)>,
    triples: usize,
    /// Fuel units successfully charged to the budget by this
    /// intersection so far (query + resumption + reconstruction). The
    /// query cache records this so a replayed verdict charges exactly
    /// what recomputing it would.
    charged: u64,
    /// Times a suspended early-exit run was actually resumed
    /// ([`Self::complete`] with pending work). Lazy witness extraction
    /// promises this stays zero for empty intersections.
    completions: u64,
    /// Latched when an accepting root triple is realized.
    hit: bool,
    exited_early: bool,
    seeded: bool,
}

impl fmt::Debug for Intersection<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Intersection")
            .field("triples", &self.triples)
            .field("hit", &self.hit)
            .field("exited_early", &self.exited_early)
            .field("pending", &self.worklist.len())
            .finish()
    }
}

impl<'g, 'd> Intersection<'g, 'd> {
    fn realized(&self, x: NtId, i: u32, j: u32) -> bool {
        self.by_start[x.index()]
            .get(&i)
            .is_some_and(|v| v.binary_search(&j).is_ok())
    }

    /// Records `X_{ij}` if new. Returns `Err` on budget exhaustion.
    fn discover(&mut self, budget: &Budget, x: NtId, i: u32, j: u32) -> Result<(), BudgetExceeded> {
        budget.charge(1)?;
        self.charged += 1;
        let ends = self.by_start[x.index()].entry(i).or_default();
        debug_assert!(ends.windows(2).all(|w| w[0] < w[1]), "ends not sorted");
        if let Err(pos) = ends.binary_search(&j) {
            ends.insert(pos, j);
            let starts = self.by_end[x.index()].entry(j).or_default();
            debug_assert!(starts.windows(2).all(|w| w[0] < w[1]), "starts not sorted");
            if let Err(spos) = starts.binary_search(&i) {
                starts.insert(spos, i);
            }
            self.triples += 1;
            budget.check_grammar_size(self.triples)?;
            self.worklist.push((x, i, j));
            if x == NtId(0) && i == self.dfa.start() && self.dfa.is_accepting(j) {
                self.hit = true;
            }
        }
        Ok(())
    }

    /// Seeds (first call only) and drains the worklist; in
    /// [`QueryMode::EarlyExit`], suspends once [`Self::hit`] latches.
    fn run(&mut self, budget: &Budget, mode: QueryMode) -> Result<(), BudgetExceeded> {
        if !self.seeded {
            self.seeded = true;
            for pid in 0..self.prep.norm.prods.len() {
                let (lhs, p) = self.prep.norm.prods[pid as usize];
                let q = self.dfa.num_states() as u32;
                match p {
                    P::Eps => {
                        for i in 0..q {
                            self.discover(budget, lhs, i, i)?;
                        }
                    }
                    P::T(a) => {
                        let c = self.dfa.class_of(a) as usize;
                        for i in 0..q {
                            let j = self.forward[c][i as usize];
                            self.discover(budget, lhs, i, j)?;
                        }
                    }
                    P::TT(a, b) => {
                        let ca = self.dfa.class_of(a) as usize;
                        let cb = self.dfa.class_of(b) as usize;
                        for i in 0..q {
                            let j = self.forward[cb][self.forward[ca][i as usize] as usize];
                            self.discover(budget, lhs, i, j)?;
                        }
                    }
                    _ => {}
                }
            }
        }
        while let Some((x, i, j)) = {
            if matches!(mode, QueryMode::EarlyExit) && self.hit {
                self.exited_early = !self.worklist.is_empty();
                None
            } else {
                self.worklist.pop()
            }
        } {
            budget.charge(1)?;
            self.charged += 1;
            for &pid in self.prep.occ_unit.get(x.0) {
                let (lhs, _) = self.prep.norm.prods[pid as usize];
                self.discover(budget, lhs, i, j)?;
            }
            for &pid in self.prep.occ_right.get(x.0) {
                let (lhs, p) = self.prep.norm.prods[pid as usize];
                match p {
                    P::TN(a, _) => {
                        let c = self.dfa.class_of(a) as usize;
                        let starts = self.reverse[c][i as usize].clone();
                        for i0 in starts {
                            self.discover(budget, lhs, i0, j)?;
                        }
                    }
                    P::NN(left, _) => {
                        // x is in the right slot; join with realized
                        // left triples ending at i.
                        if let Some(starts) = self.by_end[left.index()].get(&i) {
                            for i0 in starts.clone() {
                                self.discover(budget, lhs, i0, j)?;
                            }
                        }
                    }
                    _ => unreachable!("occ_right holds TN/NN only"),
                }
            }
            for &pid in self.prep.occ_left.get(x.0) {
                let (lhs, p) = self.prep.norm.prods[pid as usize];
                match p {
                    P::NT(_, b) => {
                        let c = self.dfa.class_of(b) as usize;
                        let jb = self.forward[c][j as usize];
                        self.discover(budget, lhs, i, jb)?;
                    }
                    P::NN(_, right) => {
                        if let Some(ends) = self.by_start[right.index()].get(&j) {
                            for k in ends.clone() {
                                self.discover(budget, lhs, i, k)?;
                            }
                        }
                    }
                    _ => unreachable!("occ_left holds NT/NN only"),
                }
            }
        }
        Ok(())
    }

    /// `true` if no accepting root triple is realized.
    ///
    /// Valid immediately after [`PreparedGrammar::query`] in either
    /// mode: the `hit` latch is monotone, and a suspended early-exit
    /// run only suspends *because* it latched.
    pub fn is_empty(&self) -> bool {
        !self.hit
    }

    /// Number of realized triples so far.
    pub fn triples(&self) -> usize {
        self.triples
    }

    /// `true` if the query suspended before draining its worklist.
    pub fn exited_early(&self) -> bool {
        self.exited_early
    }

    /// Fuel units this intersection has successfully charged so far.
    pub fn charged(&self) -> u64 {
        self.charged
    }

    /// Times a suspended run was resumed to completion — zero for any
    /// intersection whose worklist was already drained (in particular,
    /// every *empty* query result).
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Resumes the fixpoint to completion (no-op if already complete).
    pub fn complete(&mut self, budget: &Budget) -> Result<(), BudgetExceeded> {
        if self.exited_early {
            self.completions += 1;
        }
        self.run(budget, QueryMode::Full)?;
        self.exited_early = false;
        Ok(())
    }

    /// Completes the fixpoint and reconstructs the intersection grammar
    /// with taint labels propagated (paper Fig. 7 `TAINTIF`), exactly
    /// as [`crate::intersect::intersect_with`] would.
    pub fn grammar(&mut self, budget: &Budget) -> Result<(Cfg, NtId), BudgetExceeded> {
        self.complete(budget)?;
        let norm = &self.prep.norm;
        let dfa = self.dfa;

        let mut out = Cfg::new();
        let out_root = out.add_nonterminal(format!("{}∩", self.prep.root_name));
        out.set_taint(out_root, self.prep.root_taint);

        // Realized-triple iteration order: `by_start` is a HashMap, so
        // its raw order varies per instance. Reconstruction walks the
        // start states sorted instead — the output grammar (nonterminal
        // numbering, production order) is then a pure function of the
        // realized set, identical across engines, runs, and threads.
        let sorted_starts = |x: NtId| -> Vec<u32> {
            let mut starts: Vec<u32> = self.by_start[x.index()].keys().copied().collect();
            starts.sort_unstable();
            starts
        };

        // Create result nonterminals for realized triples.
        let mut map: HashMap<(u32, u32, u32), NtId> = HashMap::new();
        for x in norm.nonterminals() {
            for i in sorted_starts(x) {
                for &j in &self.by_start[x.index()][&i] {
                    let id = out.add_nonterminal(norm.name(x));
                    out.set_taint(id, norm.taint(x)); // TAINTIF
                    map.insert((x.0, i, j), id);
                }
            }
        }

        // Productions.
        let mut charged_here = 0u64;
        for x in norm.nonterminals() {
            for i in sorted_starts(x) {
                for &j in &self.by_start[x.index()][&i] {
                    budget.charge(1)?;
                    charged_here += 1;
                    let lhs = map[&(x.0, i, j)];
                    for &(_, p) in norm.productions(x) {
                        match p {
                            P::Eps => {
                                if i == j {
                                    out.add_production(lhs, vec![]);
                                }
                            }
                            P::T(a) => {
                                if dfa.step_byte(i, a) == j {
                                    out.add_production(lhs, vec![Symbol::T(a)]);
                                }
                            }
                            P::N(y) => {
                                if let Some(&sub) = map.get(&(y.0, i, j)) {
                                    out.add_production(lhs, vec![Symbol::N(sub)]);
                                }
                            }
                            P::TT(a, b) => {
                                if dfa.step_byte(dfa.step_byte(i, a), b) == j {
                                    out.add_production(lhs, vec![Symbol::T(a), Symbol::T(b)]);
                                }
                            }
                            P::TN(a, y) => {
                                let m = dfa.step_byte(i, a);
                                if let Some(&sub) = map.get(&(y.0, m, j)) {
                                    out.add_production(lhs, vec![Symbol::T(a), Symbol::N(sub)]);
                                }
                            }
                            P::NT(y, b) => {
                                // Any mid m with Y_{im} realized and
                                // step(m,b)=j.
                                if let Some(mids) = self.by_start[y.index()].get(&i) {
                                    for &m in mids {
                                        if dfa.step_byte(m, b) == j {
                                            let sub = map[&(y.0, i, m)];
                                            out.add_production(
                                                lhs,
                                                vec![Symbol::N(sub), Symbol::T(b)],
                                            );
                                        }
                                    }
                                }
                            }
                            P::NN(y, z) => {
                                if let Some(mids) = self.by_start[y.index()].get(&i) {
                                    for &m in mids {
                                        if self.realized(z, m, j) {
                                            let sy = map[&(y.0, i, m)];
                                            let sz = map[&(z.0, m, j)];
                                            out.add_production(
                                                lhs,
                                                vec![Symbol::N(sy), Symbol::N(sz)],
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Start productions: root from DFA start to each accepting state.
        let q0 = dfa.start();
        for qf in 0..dfa.num_states() as u32 {
            if dfa.is_accepting(qf) {
                if let Some(&sub) = map.get(&(0, q0, qf)) {
                    out.add_production(out_root, vec![Symbol::N(sub)]);
                }
            }
        }
        self.charged += charged_here;
        Ok((out, out_root))
    }

    /// Completes the fixpoint and extracts a shortest witness string of
    /// the intersection, or `None` if it is empty.
    pub fn witness(&mut self, budget: &Budget) -> Result<Option<Vec<u8>>, BudgetExceeded> {
        if self.is_empty() && self.worklist.is_empty() {
            return Ok(None);
        }
        let _span = strtaint_obs::Span::enter_with("witness", || self.prep.root_name.clone());
        self.complete(budget)?;
        if self.is_empty() {
            return Ok(None);
        }
        let (out, root) = self.grammar(budget)?;
        Ok(crate::lang::shortest_string(&out, root))
    }
}

/// A thread-safe cache of [`PreparedGrammar`]s keyed by root, scoped to
/// one immutable [`Cfg`].
///
/// Hotspots on the same page frequently share a root (the same `$query`
/// variable flowing into several sinks), and every C1–C5 check of one
/// hotspot shares it by construction. **The cache is keyed by [`NtId`]
/// only** — it must never be used across different `Cfg`s (e.g. the
/// fresh marked grammars built per check), whose ids overlap.
#[derive(Debug, Default)]
pub struct PreparedCache {
    map: RwLock<HashMap<u32, Arc<PreparedGrammar>>>,
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the prepared grammar for `(g, root)`, preparing it on
    /// first use. The boolean is `true` on a cache hit.
    pub fn prepared(&self, g: &Cfg, root: NtId) -> (Arc<PreparedGrammar>, bool) {
        // A poisoned lock only means another worker panicked mid-insert;
        // the map itself is still a valid cache, so keep using it.
        {
            let map = self.map.read().unwrap_or_else(|e| e.into_inner());
            if let Some(p) = map.get(&root.0) {
                return (Arc::clone(p), true);
            }
        }
        let prepared = Arc::new(PreparedGrammar::new(g, root));
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        // Another worker may have raced us here; keep the first entry so
        // every caller shares one preparation.
        let entry = map
            .entry(root.0)
            .or_insert_with(|| Arc::clone(&prepared));
        (Arc::clone(entry), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::{intersect, is_intersection_empty};
    use crate::lang::shortest_string;
    use crate::symbol::Symbol as S;
    use strtaint_automata::{Dfa, Regex};

    fn dfa(pattern: &str) -> Dfa {
        Regex::new(pattern).unwrap().match_dfa()
    }

    fn paren_grammar() -> (Cfg, NtId) {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'('), S::N(a), S::T(b')')]);
        g.add_literal_production(a, b"x");
        (g, a)
    }

    #[test]
    fn agrees_with_naive_on_emptiness_and_witness() {
        let (g, a) = paren_grammar();
        let prep = PreparedGrammar::new(&g, a);
        let unlimited = Budget::unlimited();
        for pattern in ["^\\(\\(.*$", "^[0-9]+$", "^x$", ".*", "^\\)"] {
            let d = dfa(pattern);
            let cd = ClassDfa::new(&d);
            let mut ix = prep.query(&cd, &unlimited, QueryMode::EarlyExit).unwrap();
            assert_eq!(
                ix.is_empty(),
                is_intersection_empty(&g, a, &d),
                "emptiness disagrees on {pattern}"
            );
            let witness = ix.witness(&unlimited).unwrap();
            let (out, root) = intersect(&g, a, &d);
            let naive = shortest_string(&out, root);
            match (&witness, &naive) {
                (Some(w), Some(n)) => {
                    // Both engines produce the canonical (length,
                    // lexicographic)-minimal witness, so the bytes
                    // match exactly — the query cache replays them.
                    assert_eq!(w, n, "witness bytes differ on {pattern}");
                    assert!(out.derives(root, w), "witness not in naive language");
                }
                (None, None) => {}
                _ => panic!("witness presence disagrees on {pattern}: {witness:?} vs {naive:?}"),
            }
        }
    }

    #[test]
    fn early_exit_suspends_and_resumes() {
        let (g, a) = paren_grammar();
        let prep = PreparedGrammar::new(&g, a);
        let unlimited = Budget::unlimited();
        let cd = ClassDfa::new(&Dfa::any_string());
        let mut ix = prep.query(&cd, &unlimited, QueryMode::EarlyExit).unwrap();
        assert!(!ix.is_empty());
        let suspended_triples = ix.triples();
        ix.complete(&unlimited).unwrap();
        assert!(!ix.exited_early());
        assert!(ix.triples() >= suspended_triples);
        // Full-mode query from scratch realizes the same fixpoint.
        let full = prep.query(&cd, &unlimited, QueryMode::Full).unwrap();
        assert_eq!(ix.triples(), full.triples());
    }

    #[test]
    fn prepared_reuse_across_queries_preserves_results() {
        let (g, a) = paren_grammar();
        let prep = PreparedGrammar::new(&g, a);
        let unlimited = Budget::unlimited();
        // Same prepared grammar, many DFAs, interleaved — no state leaks.
        let deep = ClassDfa::new(&dfa("^\\(\\(.*$"));
        let digits = ClassDfa::new(&dfa("^[0-9]+$"));
        for _ in 0..3 {
            assert!(!prep.query(&deep, &unlimited, QueryMode::EarlyExit).unwrap().is_empty());
            assert!(prep.query(&digits, &unlimited, QueryMode::EarlyExit).unwrap().is_empty());
        }
    }

    #[test]
    fn budget_trips_in_prepared_engine() {
        use crate::budget::Resource;
        let (g, a) = paren_grammar();
        let prep = PreparedGrammar::new(&g, a);
        let cd = ClassDfa::new(&dfa("^\\(\\(.*$"));
        let tiny = Budget::new(None, Some(3), None);
        let err = prep.query(&cd, &tiny, QueryMode::Full).unwrap_err();
        assert_eq!(err.resource, Resource::Fuel);
        let capped = Budget::new(None, None, Some(2));
        let err = prep.query(&cd, &capped, QueryMode::Full).unwrap_err();
        assert_eq!(err.resource, Resource::GrammarSize);
    }

    #[test]
    fn cache_shares_preparation_per_root() {
        let (g, a) = paren_grammar();
        let cache = PreparedCache::new();
        let (p1, hit1) = cache.prepared(&g, a);
        let (p2, hit2) = cache.prepared(&g, a);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn taint_propagates_through_prepared_reconstruction() {
        use crate::symbol::Taint;
        let mut g = Cfg::new();
        let userid = g.add_nonterminal("userid");
        g.set_taint(userid, Taint::DIRECT);
        g.add_literal_production(userid, b"1");
        g.add_literal_production(userid, b"1'");
        let query = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"id='");
        rhs.push(S::N(userid));
        rhs.push(S::T(b'\''));
        g.add_production(query, rhs);

        let prep = PreparedGrammar::new(&g, query);
        let unlimited = Budget::unlimited();
        let cd = ClassDfa::new(&dfa("^id=.*$"));
        let mut ix = prep.query(&cd, &unlimited, QueryMode::Full).unwrap();
        let (out, root) = ix.grammar(&unlimited).unwrap();
        assert!(out.derives(root, b"id='1'"));
        assert!(out
            .labeled_nonterminals()
            .iter()
            .any(|&id| out.taint(id).is_direct() && out.name(id) == "userid"));
    }
}
