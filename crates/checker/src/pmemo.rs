//! Cross-page preparation memo: content-addressed sharing of
//! [`PreparedGrammar`]s and canonical example-query skeletons.
//!
//! It is the checker's one preparation cache. Checking pays two setup
//! walls that the verdict cache (see [`crate::qcache`]) does not
//! collapse:
//!
//! 1. **Preparation** — `PreparedGrammar::new` (trim + binary
//!    normalization + occurrence indexing) of every candidate
//!    subgrammar and of every check-local marked grammar.
//! 2. **Skeleton reconstruction** — the example-query splice needs the
//!    canonical shortest string of the marked page grammar per
//!    reporting hotspot.
//!
//! Both are *pure functions of grammar content*, so this module keys
//! them by a content key of the grammar they read and shares them
//! across pages, calls, and worker threads. A candidate's key is the
//! key of its reachable subgrammar, computed once per page by the page
//! index. A marked grammar's key is computed on the page grammar by
//! the walk that would copy it (see `abstraction::Marked`): it hashes
//! exactly what `marked_grammar` emits, so a warm hit skips building
//! the copy, and a miss builds it from the same walk. A skeleton miss
//! reads the string off the marked preparation when C2 has already
//! memoized it.
//!
//! # Soundness of sharing
//!
//! A content key hashes everything `PreparedGrammar::new` and
//! `shortest_string` can observe of a grammar from its root: the
//! production structure (nonterminals renumbered in breadth-first
//! discovery order, so absolute `NtId`s don't matter), every terminal
//! byte, every nonterminal *name*, and every taint label. Preparation
//! and canonical-witness reconstruction are deterministic functions of
//! exactly that content, so — up to hash collision on the 128-bit key —
//! a memo hit returns an object byte-identical in every observable way
//! to what recomputation would build. Names and taints are included
//! even though engine verdicts ignore them, because prepared grammars
//! carry them into reconstructed result grammars (`root_name`/
//! `root_taint` parity with the naive engine).
//!
//! A marked grammar is keyed by its own content, not by the page it
//! came from: its key is the content key its materialized copy would
//! have (the unit tests check this on random grammars). Two hotspots
//! whose contexts mark the same grammar share one preparation and one
//! skeleton, wherever their pages and candidates differ, and two marked
//! grammars that differ anywhere — a quote around the marker, a name,
//! a substituted byte — never do. Candidate and marked preparations
//! share one store: equal keys mean equal grammars, whichever way they
//! were reached.
//!
//! The memo is an optimization cache, never an oracle: entries are
//! evicted FIFO past a bounded capacity and rebuilt on demand. It is
//! always on; `CheckOptions::query_cache` switches only the verdict
//! cache. Both stores are [`Memo`]s, so builds are single-flight: each
//! key is prepared once however many workers ask for it at the same
//! time, and the `normalizations` counter repeats across identical
//! runs.

use std::collections::HashMap;
use std::sync::Arc;

use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::prepared::PreparedGrammar;
use strtaint_grammar::{Cfg, NtId, Reach, Symbol, Taint};

use crate::abstraction::Marked;
use crate::memo::Memo;

/// Prepared grammars retained (each is a trimmed, normalized, indexed
/// copy of a hotspot subgrammar — the heavyweight entries).
const PREPARED_CAP: usize = 512;

/// Canonical skeletons retained (short byte strings — cheap entries).
const SKELETON_CAP: usize = 4096;

/// A 128-bit content key (see the module docs).
type Key = (u64, u64);

/// Two word-wise FNV-1a streams with distinct offset bases, advanced
/// in lockstep so one grammar traversal yields a 128-bit combined key
/// (same two-stream scheme as the prepared grammar's
/// post-normalization fingerprint). Word-wise mixing — one
/// xor-multiply per encoded `u64`, not per byte — keeps the key cheap
/// enough to compute on every warm lookup.
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(Self::PRIME);
        self.b = (self.b ^ w).wrapping_mul(Self::PRIME);
    }

    /// Length-prefixed so adjacent variable-length fields can't alias.
    fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for chunk in bs.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }
}

/// A grammar as a content key reads it: nonterminals `0..len()` in
/// breadth-first discovery order from the root (0), with right-hand
/// sides renumbered to that order.
pub(crate) trait View {
    /// Number of nonterminals.
    fn len(&self) -> usize;
    /// Name of nonterminal `i`.
    fn name(&self, i: usize) -> &str;
    /// Taint of nonterminal `i`.
    fn taint(&self, i: usize) -> Taint;
    /// Number of productions of nonterminal `i`.
    fn productions(&self, i: usize) -> usize;
    /// Passes the symbols of production `k` of nonterminal `i` to
    /// `emit`, left to right.
    fn rhs(&self, i: usize, k: usize, emit: impl FnMut(Symbol));
}

/// Ends a right-hand side in a content key (no symbol encodes to it).
const END_OF_RHS: u64 = u64::MAX;

/// The content key of `view` and its production count, in one pass.
fn content_key(view: &impl View) -> (Key, usize) {
    let mut h = Fnv2::new();
    let mut count = 0usize;
    h.word(view.len() as u64);
    for i in 0..view.len() {
        h.bytes(view.name(i).as_bytes());
        let t = view.taint(i);
        h.word(u64::from(
            u8::from(t.is_direct()) | (u8::from(t.is_indirect()) << 1),
        ));
        let n = view.productions(i);
        count += n;
        h.word(n as u64);
        for k in 0..n {
            // Injective symbol encoding: terminals fit in the low byte,
            // nonterminal references set bit 32.
            view.rhs(i, k, |sym| match sym {
                Symbol::T(b) => h.word(u64::from(b)),
                Symbol::N(x) => h.word((1 << 32) | u64::from(x.0)),
            });
            h.word(END_OF_RHS);
        }
    }
    ((h.a, h.b), count)
}

/// The subgrammar of `g` reachable from one root, as a [`View`].
struct Reachable<'a> {
    g: &'a Cfg,
    reach: Reach,
}

impl View for Reachable<'_> {
    fn len(&self) -> usize {
        self.reach.order().len()
    }

    fn name(&self, i: usize) -> &str {
        self.g.name(self.reach.order()[i])
    }

    fn taint(&self, i: usize) -> Taint {
        self.g.taint(self.reach.order()[i])
    }

    fn productions(&self, i: usize) -> usize {
        self.g.productions(self.reach.order()[i]).len()
    }

    fn rhs(&self, i: usize, k: usize, mut emit: impl FnMut(Symbol)) {
        for &s in &self.g.productions(self.reach.order()[i])[k] {
            emit(match s {
                Symbol::T(_) => s,
                Symbol::N(x) => Symbol::N(NtId(self.reach.get(x).expect("reached") as u32)),
            });
        }
    }
}

/// The content key of the subgrammar of a `Cfg` reachable from one
/// root, and its reachable production count, from one walk. Equal keys
/// mean — up to collision — content-identical subgrammars, for which
/// preparation and canonical reconstruction produce observationally
/// identical results.
///
/// The count is exact and uncapped; it matches
/// `Cfg::count_reachable_productions` on reachable sets, so `count >
/// cap` answers the witness guard without a second walk. A page index
/// computes one per distinct candidate of the page.
#[derive(Debug)]
pub(crate) struct Subgrammar {
    key: Key,
    pub(crate) count: usize,
}

impl Subgrammar {
    pub(crate) fn of(g: &Cfg, root: NtId) -> Self {
        let _span = strtaint_obs::Span::enter("pmemo:fp", "");
        let (key, count) = content_key(&Reachable {
            g,
            reach: Reach::new(g, root),
        });
        Subgrammar { key, count }
    }
}

/// The replacement-free marked grammar of `x` under `root`, viewed on
/// `g`, and its content key: one walk over what the marked grammar
/// reaches.
fn marked<'a>(
    g: &'a Cfg,
    root: NtId,
    x: NtId,
    none: &'a HashMap<NtId, Vec<u8>>,
) -> (Marked<'a>, Key) {
    let _span = strtaint_obs::Span::enter("pmemo:marked", "");
    let view = Marked::new(g, root, x, none);
    let (key, _) = content_key(&view);
    (view, key)
}

/// The cross-page preparation memo shared by every page and worker a
/// checker serves, keyed by content (see the module docs).
#[derive(Debug)]
pub(crate) struct PreparedMemo {
    prepared: Memo<Key, Arc<PreparedGrammar>>,
    skeletons: Memo<Key, Option<Vec<u8>>>,
}

impl PreparedMemo {
    pub(crate) fn new() -> Self {
        PreparedMemo {
            prepared: Memo::new(PREPARED_CAP),
            skeletons: Memo::new(SKELETON_CAP),
        }
    }

    /// Returns the prepared grammar for `(g, root)`, whose key is
    /// `sub`, sharing a prior preparation of any content-identical
    /// subgrammar. The boolean is `true` on a memo hit.
    pub(crate) fn prepared(
        &self,
        g: &Cfg,
        root: NtId,
        sub: &Subgrammar,
    ) -> (Arc<PreparedGrammar>, bool) {
        self.prepared
            .get_or(sub.key, || Arc::new(PreparedGrammar::new(g, root)))
    }

    /// Returns the prepared *marked grammar* of `(g, root, x)` — the
    /// context grammar both cascades query — sharing prior work across
    /// content-identical marked grammars. A hit never constructs the
    /// marked grammar; a miss copies only what it reaches.
    pub(crate) fn marked_prepared(
        &self,
        g: &Cfg,
        root: NtId,
        x: NtId,
    ) -> (Arc<PreparedGrammar>, bool) {
        let none = HashMap::new();
        let (view, key) = marked(g, root, x, &none);
        self.prepared.get_or(key, || {
            Arc::new(PreparedGrammar::new(&view.to_cfg(), NtId(0)))
        })
    }

    /// Returns the canonical shortest string of the marked grammar of
    /// `(g, root, x)` — the example-query skeleton — computing it once
    /// per content-identical marked grammar. `None` (no finite string)
    /// is memoized too, and a hit skips the grammar construction
    /// exactly as in [`PreparedMemo::marked_prepared`]. A miss reads
    /// the string off the memoized marked preparation when there is one
    /// (C2 has usually prepared it), and otherwise derives it without
    /// filling the store of heavy preparations. Callers apply the size
    /// guard first.
    pub(crate) fn skeleton_for(&self, g: &Cfg, root: NtId, x: NtId) -> Option<Vec<u8>> {
        let none = HashMap::new();
        let (view, key) = marked(g, root, x, &none);
        let (skeleton, _) = self
            .skeletons
            .get_or(key, || match self.prepared.peek(&key) {
                Some(prep) => prep.shortest_string(),
                None => shortest_string(&view.to_cfg(), NtId(0)),
            });
        skeleton
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{marked_grammar, MARKER_SUBSTITUTE};
    use proptest::prelude::*;
    use strtaint_sql::VAR_MARKER;

    fn sample(name_suffix: &str) -> (Cfg, NtId) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal(format!("x{name_suffix}"));
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"1");
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT ");
        rhs.push(Symbol::N(x));
        g.add_production(root, rhs);
        (g, root)
    }

    fn key(g: &Cfg, root: NtId) -> Key {
        Subgrammar::of(g, root).key
    }

    fn marked_key(g: &Cfg, root: NtId, x: NtId) -> Key {
        marked(g, root, x, &HashMap::new()).1
    }

    #[test]
    fn fingerprint_ignores_absolute_ids() {
        let (g1, r1) = sample("");
        // Same content shifted to different absolute NtIds.
        let mut g2 = Cfg::new();
        for i in 0..7 {
            g2.add_nonterminal(format!("pad{i}"));
        }
        let r2 = g2.import_from(&g1, r1);
        assert_eq!(key(&g1, r1), key(&g2, r2));
    }

    #[test]
    fn fingerprint_sees_names_taints_and_structure() {
        let (g1, r1) = sample("");
        let (g2, r2) = sample("renamed");
        assert_ne!(
            key(&g1, r1),
            key(&g2, r2),
            "name change must change the key"
        );
        let (mut g3, r3) = sample("");
        let extra = g3.add_nonterminal("x");
        g3.add_literal_production(extra, b"2");
        g3.add_production(r3, vec![Symbol::N(extra)]);
        assert_ne!(
            key(&g1, r1),
            key(&g3, r3),
            "structure change must change the key"
        );
        let (mut g4, r4) = sample("");
        let x = g4.nonterminals().find(|&n| g4.name(n) == "x").expect("x");
        g4.set_taint(x, Taint::INDIRECT);
        assert_ne!(
            key(&g1, r1),
            key(&g4, r4),
            "taint change must change the key"
        );
    }

    #[test]
    fn memo_shares_preparation_and_skeleton() {
        let memo = PreparedMemo::new();
        let (g, root) = sample("");
        let sub = Subgrammar::of(&g, root);
        let (p1, hit1) = memo.prepared(&g, root, &sub);
        let (p2, hit2) = memo.prepared(&g, root, &sub);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn marked_memo_matches_direct_construction() {
        let memo = PreparedMemo::new();
        let (g, root) = sample("");
        let x = g.nonterminals().find(|&n| g.name(n) == "x").expect("x");
        let (m1, hit1) = memo.marked_prepared(&g, root, x);
        let (m2, hit2) = memo.marked_prepared(&g, root, x);
        assert!(!hit1);
        assert!(hit2, "second call must hit without reconstructing");
        assert!(Arc::ptr_eq(&m1, &m2));
        // A hit returns exactly what direct construction would build.
        let (marked, mroot) = marked_grammar(&g, root, x, &HashMap::new());
        let direct = PreparedGrammar::new(&marked, mroot);
        assert_eq!(m1.fingerprint(), direct.fingerprint());

        let s1 = memo.skeleton_for(&g, root, x);
        let s2 = memo.skeleton_for(&g, root, x);
        assert_eq!(s1, s2);
        assert_eq!(s1, shortest_string(&marked, mroot));
    }

    #[test]
    fn skeleton_miss_prepares_nothing_into_the_memo() {
        let memo = PreparedMemo::new();
        let (g, root) = sample("");
        let x = g.nonterminals().find(|&n| g.name(n) == "x").expect("x");
        let skeleton = memo.skeleton_for(&g, root, x);
        let mut want = b"SELECT ".to_vec();
        want.push(VAR_MARKER);
        assert_eq!(skeleton, Some(want));
        // The miss derived the skeleton without storing a preparation.
        let (prep, hit) = memo.marked_prepared(&g, root, x);
        assert!(!hit);
        // Once C2 has prepared the marked grammar, a skeleton miss on a
        // fresh skeleton store reads the same bytes off it.
        assert_eq!(prep.shortest_string(), skeleton);
        let warm = PreparedMemo::new();
        warm.marked_prepared(&g, root, x);
        assert_eq!(warm.skeleton_for(&g, root, x), skeleton);
    }

    #[test]
    fn traversal_count_matches_cfg_count() {
        let (g, root) = sample("");
        let n = Subgrammar::of(&g, root).count;
        assert_eq!(n, g.count_reachable_productions(root, usize::MAX - 1));
        // An unreachable extra production must not count.
        let mut g2 = g;
        let stray = g2.add_nonterminal("stray");
        g2.add_literal_production(stray, b"zzz");
        assert_eq!(n, Subgrammar::of(&g2, root).count);
    }

    /// `root -> "SELECT * FROM t WHERE a='" X1 "' AND b=" X2`, where X1
    /// and X2 are content-identical `addslashes` outputs: the same
    /// subgrammar at two positions, one quoted and one not.
    fn quoted_and_unquoted() -> (Cfg, NtId, NtId, NtId) {
        let mut g = Cfg::new();
        let mut slashed = || {
            let x = g.add_nonterminal("addslashes(_GET[v])");
            g.set_taint(x, Taint::DIRECT);
            for s in [&b"1"[..], br"it\'s", b"1 OR 1=1"] {
                g.add_literal_production(x, s);
            }
            x
        };
        let (x1, x2) = (slashed(), slashed());
        let root = g.add_nonterminal("query");
        let mut rhs = g.literal_symbols(b"SELECT * FROM t WHERE a='");
        rhs.push(Symbol::N(x1));
        rhs.extend(g.literal_symbols(b"' AND b="));
        rhs.push(Symbol::N(x2));
        g.add_production(root, rhs);
        (g, root, x1, x2)
    }

    #[test]
    fn marked_keys_tell_positions_apart() {
        let (g, root, x1, x2) = quoted_and_unquoted();
        assert_eq!(key(&g, x1), key(&g, x2), "one content, one candidate key");
        let memo = PreparedMemo::new();
        let (m1, hit1) = memo.marked_prepared(&g, root, x1);
        let (m2, hit2) = memo.marked_prepared(&g, root, x2);
        assert!(!hit1 && !hit2, "two contexts, two marked preparations");
        assert!(!Arc::ptr_eq(&m1, &m2));
        assert_ne!(m1.fingerprint(), m2.fingerprint());

        let r = crate::Checker::new().check_hotspot(&g, root);
        assert_eq!(r.checked, 2);
        assert_eq!(r.verified, 1, "{r}");
        assert_eq!(r.findings.len(), 1, "{r}");
        assert_eq!(
            r.findings[0].nonterminal, x2,
            "the unquoted position is reported: {r}"
        );
    }

    /// A random grammar over a few terminals (the marker byte among
    /// them) and names drawn from a small pool, so that keys collide
    /// only on equal content; built after `pad` unrelated nonterminals.
    fn build(spec: &[(usize, usize, Vec<Vec<usize>>)], pad: usize) -> Cfg {
        const BYTES: &[u8] = &[b'a', b'\'', VAR_MARKER, MARKER_SUBSTITUTE];
        let mut g = Cfg::new();
        for i in 0..pad {
            g.add_nonterminal(format!("pad{i}"));
        }
        for (name, taint, _) in spec {
            let n = g.add_nonterminal(format!("n{name}"));
            if *taint == 1 {
                g.set_taint(n, Taint::DIRECT);
            }
        }
        for (i, (_, _, prods)) in spec.iter().enumerate() {
            for rhs in prods {
                let rhs: Vec<Symbol> = rhs
                    .iter()
                    .map(|&s| match s % (spec.len() + BYTES.len()) {
                        k if k < spec.len() => Symbol::N(NtId((pad + k) as u32)),
                        k => Symbol::T(BYTES[k - spec.len()]),
                    })
                    .collect();
                g.add_production(NtId((pad + i) as u32), rhs);
            }
        }
        g
    }

    fn spec() -> impl Strategy<Value = Vec<(usize, usize, Vec<Vec<usize>>)>> {
        let rhs = proptest::collection::vec(0..64usize, 0..4);
        proptest::collection::vec(
            (0..3usize, 0..3usize, proptest::collection::vec(rhs, 0..3)),
            1..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn marked_key_is_the_key_of_the_copy(spec in spec()) {
            // Two copies of one grammar at different absolute ids.
            let (g, h, pad) = (build(&spec, 0), build(&spec, 3), 3u32);
            let mut seen: HashMap<Key, (u64, u64)> = HashMap::new();
            for root in g.nonterminals() {
                for x in g.nonterminals() {
                    let k = marked_key(&g, root, x);
                    let (copy, croot) = marked_grammar(&g, root, x, &HashMap::new());
                    prop_assert_eq!(k, key(&copy, croot));
                    let shifted = |n: NtId| NtId(n.0 + pad);
                    prop_assert_eq!(k, marked_key(&h, shifted(root), shifted(x)));
                    // Equal keys, equal preparations.
                    let fp = PreparedGrammar::new(&copy, croot).fingerprint();
                    prop_assert_eq!(*seen.entry(k).or_insert(fp), fp);
                }
            }
        }
    }
}
