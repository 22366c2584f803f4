//! Cross-page preparation memo: content-addressed sharing of
//! [`PreparedGrammar`]s and canonical example-query skeletons.
//!
//! It is the checker's one preparation cache. Checking pays two setup
//! walls that the verdict cache (see [`crate::qcache`]) does not
//! collapse:
//!
//! 1. **Preparation** — `PreparedGrammar::new` (trim + binary
//!    normalization + occurrence indexing) of every hotspot subgrammar
//!    and of every check-local marked grammar.
//! 2. **Skeleton reconstruction** — the example-query splice needs the
//!    canonical shortest string of the whole marked page grammar per
//!    reporting hotspot.
//!
//! Both are *pure functions of grammar content*, so this module keys
//! them by a structural fingerprint of the reachable subgrammar and
//! shares them across pages, calls, and worker threads. Crucially,
//! check-local *marked grammars* (and their skeletons) are keyed by
//! the fingerprint of the *page* subgrammar plus the marked
//! nonterminal's content-stable position — the inputs of
//! `marked_grammar`, not its output — so a warm hit skips not only
//! the preparation but the whole-grammar clone that builds the marked
//! grammar in the first place. A skeleton miss reads the string off
//! the marked preparation when C2 has already memoized it.
//!
//! # Soundness of sharing
//!
//! [`Subgrammar`] hashes everything `PreparedGrammar::new`
//! and `shortest_string` can observe: the production structure of the
//! subgrammar reachable from the root (with nonterminals renumbered in
//! deterministic discovery order, so absolute `NtId`s don't matter),
//! every terminal byte, every nonterminal *name*, and every taint
//! label. Preparation and canonical-witness reconstruction are
//! deterministic functions of exactly that content, so — up to hash
//! collision on the 128-bit fingerprint — a memo hit returns an object
//! byte-identical in every observable way to what recomputation would
//! build. Names and taints are included even though engine verdicts
//! ignore them, because prepared grammars carry them into
//! reconstructed result grammars (`root_name`/`root_taint` parity with
//! the naive engine).
//!
//! The memo is an optimization cache, never an oracle: entries are
//! evicted FIFO past a bounded capacity and rebuilt on demand. It is
//! always on; `CheckOptions::query_cache` switches only the verdict
//! cache. Builds are single-flight ([`crate::flight`]), so each key is
//! prepared once however many workers ask for it at the same time, and
//! the `normalizations` counter repeats across identical runs.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::prepared::PreparedGrammar;
use strtaint_grammar::{Cfg, NtId, Symbol};

use crate::abstraction::marked_grammar;
use crate::flight::Flights;

/// Prepared grammars retained (each is a trimmed, normalized, indexed
/// copy of a hotspot subgrammar — the heavyweight entries).
const PREPARED_CAP: usize = 512;

/// Canonical skeletons retained (short byte strings — cheap entries).
const SKELETON_CAP: usize = 4096;

/// Two word-wise FNV-1a streams with distinct offset bases, advanced
/// in lockstep so one grammar traversal yields a 128-bit combined key
/// (same two-stream scheme as the prepared grammar's
/// post-normalization fingerprint). Word-wise mixing — one
/// xor-multiply per encoded `u64`, not per byte — keeps the
/// fingerprint cheap enough to run on every warm lookup: it *is* the
/// cache key computation, so it sits on the hot path of a fully
/// memoized pass.
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

/// Sentinel in the dense local-id table for "not reachable from the
/// root" (never a real local id: there are at most `u32::MAX - 1`
/// nonterminals).
const UNDISCOVERED: u32 = u32::MAX;

/// The content key of the subgrammar of a `Cfg` reachable from one
/// root, computed by one traversal: a structural fingerprint
/// (production shapes, terminal bytes, nonterminal names, and taint
/// labels, with nonterminals renumbered in deterministic discovery
/// order), the renumbering itself, and the reachable production count.
/// Equal fingerprints mean — up to collision — content-identical
/// subgrammars, for which preparation and canonical reconstruction
/// produce observationally identical results.
///
/// `locals[x.index()]` is the content-stable position of `x` within
/// the subgrammar ([`UNDISCOVERED`] if unreachable), the second half
/// of derived keys ([`derive_key`]). The count is exact and uncapped;
/// it matches `Cfg::count_reachable_productions` on reachable sets, so
/// `count > cap` answers the reconstruction guards without a second
/// walk. A checker session computes one per hotspot and hands it to
/// every marked-grammar, splice and skeleton lookup of that hotspot.
pub(crate) struct Subgrammar {
    fp: (u64, u64),
    locals: Vec<u32>,
    pub(crate) count: usize,
}

impl Subgrammar {
    pub(crate) fn of(g: &Cfg, root: NtId) -> Self {
        let _span = strtaint_obs::Span::enter("pmemo:fp", "");
        // Discovery order: depth-first from the root, productions in
        // declaration order, right-hand sides left to right. The local
        // id of a nonterminal is its position in this order, so two
        // structurally identical subgrammars at different absolute
        // NtIds renumber identically.
        let mut local = vec![UNDISCOVERED; g.num_nonterminals()];
        let mut order: Vec<NtId> = Vec::new();
        let mut stack = vec![root];
        local[root.index()] = 0;
        order.push(root);
        while let Some(nt) = stack.pop() {
            for rhs in g.productions(nt) {
                for sym in rhs {
                    if let Symbol::N(x) = sym {
                        if local[x.index()] == UNDISCOVERED {
                            local[x.index()] = order.len() as u32;
                            order.push(*x);
                            stack.push(*x);
                        }
                    }
                }
            }
        }

        let mut h = Fnv2::new();
        let mut count = 0usize;
        h.word(order.len() as u64);
        for &nt in &order {
            h.bytes(g.name(nt).as_bytes());
            let t = g.taint(nt);
            h.word(u64::from(
                u8::from(t.is_direct()) | (u8::from(t.is_indirect()) << 1),
            ));
            let prods = g.productions(nt);
            count += prods.len();
            h.word(prods.len() as u64);
            for rhs in prods {
                h.word(rhs.len() as u64);
                for sym in rhs {
                    // Injective symbol encoding: terminals fit in the
                    // low byte, nonterminal references set bit 32.
                    match sym {
                        Symbol::T(b) => h.word(u64::from(*b)),
                        Symbol::N(x) => h.word((1 << 32) | u64::from(local[x.index()])),
                    }
                }
            }
        }
        Subgrammar {
            fp: (h.a, h.b),
            locals: local,
            count,
        }
    }

    /// The content-stable position of `x`, `None` when `x` is not
    /// reachable from the root.
    fn local(&self, x: NtId) -> Option<u32> {
        self.locals
            .get(x.index())
            .copied()
            .filter(|&v| v != UNDISCOVERED)
    }
}

/// Tag for keys of plain `(g, root)` preparations.
const TAG_PLAIN: u8 = 0;
/// Tag for keys of marked-grammar preparations (`marked_grammar` of
/// `(g, root, x)` with no replacements).
const TAG_MARKED: u8 = 1;
/// Tag for keys of example-query skeletons of the same marked grammar.
const TAG_SKELETON: u8 = 2;

/// Derives a store key from a subgrammar fingerprint, the local id of
/// the distinguished nonterminal (`u32::MAX` when there is none), and
/// a domain-separation tag. This is what lets marked grammars and
/// skeletons be memoized *without constructing them*: the marked
/// grammar is a pure function of the subgrammar reachable from `root`
/// and of `x`'s content-stable position in it, so `(fingerprint,
/// local(x))` already names the result.
fn derive_key(fp: (u64, u64), x_local: u32, tag: u8) -> (u64, u64) {
    let mut h = Fnv2 { a: fp.0, b: fp.1 };
    h.word(u64::from(x_local) | (u64::from(tag) << 32));
    (h.a, h.b)
}

/// One bounded FIFO map shard: insertion order drives eviction.
struct Store<V> {
    map: HashMap<(u64, u64), V>,
    order: VecDeque<(u64, u64)>,
    cap: usize,
    /// Keys being built (see [`get_or_build`]).
    flights: Flights<(u64, u64)>,
}

impl<V: Clone> Store<V> {
    fn new(cap: usize) -> Self {
        Store {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
            flights: Flights::default(),
        }
    }

    fn get(&self, key: &(u64, u64)) -> Option<V> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: (u64, u64), value: V) -> V {
        // First writer wins, so every caller of a key shares one
        // entry.
        if let Some(existing) = self.map.get(&key) {
            return existing.clone();
        }
        self.map.insert(key, value.clone());
        self.order.push_back(key);
        while self.map.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            } else {
                break;
            }
        }
        value
    }
}

/// The cross-page preparation memo shared by every page and worker a
/// checker serves. All fallible lock states degrade to recomputation —
/// the memo can make nothing wrong, only some things slower.
pub(crate) struct PreparedMemo {
    prepared: Mutex<Store<Arc<PreparedGrammar>>>,
    skeletons: Mutex<Store<Option<Vec<u8>>>>,
}

impl std::fmt::Debug for PreparedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMemo").finish_non_exhaustive()
    }
}

impl PreparedMemo {
    pub(crate) fn new() -> Self {
        PreparedMemo {
            prepared: Mutex::new(Store::new(PREPARED_CAP)),
            skeletons: Mutex::new(Store::new(SKELETON_CAP)),
        }
    }

    /// Returns the prepared grammar for `(g, root)`, sharing a prior
    /// preparation of any content-identical subgrammar. The boolean is
    /// `true` on a memo hit; the count is the subgrammar's reachable
    /// production total, a free byproduct of the key traversal that
    /// answers the witness-reconstruction guard without another walk.
    pub(crate) fn prepared(&self, g: &Cfg, root: NtId) -> (Arc<PreparedGrammar>, bool, usize) {
        let sub = Subgrammar::of(g, root);
        let key = derive_key(sub.fp, u32::MAX, TAG_PLAIN);
        let (prep, hit) = get_or_build(&self.prepared, key, || {
            Arc::new(PreparedGrammar::new(g, root))
        });
        (prep, hit, sub.count)
    }

    /// Returns the prepared *marked grammar* of `(g, root, x)` — the
    /// context grammar both cascades query — sharing prior work across
    /// content-identical pages. On a hit the marked grammar is never
    /// even constructed: the key is derived from the page subgrammar
    /// fingerprint (`sub`, the key of `(g, root)`) and `x`'s
    /// content-stable position, which fully determine
    /// `marked_grammar`'s (replacement-free) output.
    pub(crate) fn marked_prepared(
        &self,
        g: &Cfg,
        root: NtId,
        sub: &Subgrammar,
        x: NtId,
    ) -> (Arc<PreparedGrammar>, bool) {
        let Some(lx) = sub.local(x) else {
            // `x` unreachable from `root`: the marked grammar is not
            // content-addressable from this key, so build it directly.
            let (marked, mroot) = marked_grammar(g, root, x, &HashMap::new());
            return (Arc::new(PreparedGrammar::new(&marked, mroot)), false);
        };
        let key = derive_key(sub.fp, lx, TAG_MARKED);
        get_or_build(&self.prepared, key, || {
            let (marked, mroot) = marked_grammar(g, root, x, &HashMap::new());
            Arc::new(PreparedGrammar::new(&marked, mroot))
        })
    }

    /// Returns the canonical shortest string of the marked grammar of
    /// `(g, root, x)` — the example-query skeleton — computing it once
    /// per content-identical page. `None` (no finite string) is
    /// memoized too, and a hit skips the grammar construction exactly
    /// as in [`PreparedMemo::marked_prepared`]. A miss reads the string
    /// off the memoized marked preparation when there is one (C2 has
    /// usually prepared it), and otherwise derives it without filling
    /// the store of heavy preparations. `sub` is the key of
    /// `(g, root)`; callers apply the size guard first.
    pub(crate) fn skeleton_for(
        &self,
        g: &Cfg,
        root: NtId,
        sub: &Subgrammar,
        x: NtId,
    ) -> Option<Vec<u8>> {
        let Some(lx) = sub.local(x) else {
            let (marked, mroot) = marked_grammar(g, root, x, &HashMap::new());
            return shortest_string(&marked, mroot);
        };
        let key = derive_key(sub.fp, lx, TAG_SKELETON);
        let (skeleton, _) = get_or_build(&self.skeletons, key, || {
            let marked = self
                .prepared
                .lock()
                .ok()
                .and_then(|store| store.get(&derive_key(sub.fp, lx, TAG_MARKED)));
            match marked {
                Some(prep) => prep.shortest_string(),
                None => {
                    let (marked, mroot) = marked_grammar(g, root, x, &HashMap::new());
                    shortest_string(&marked, mroot)
                }
            }
        });
        skeleton
    }
}

/// The value of `key` in `store`, built by `build` on a miss; `true`
/// on a hit. Builds are single-flight (see [`crate::flight`]): a
/// caller of a key another caller is building waits for that build
/// and then hits. A poisoned store builds without caching.
fn get_or_build<V: Clone>(
    store: &Mutex<Store<V>>,
    key: (u64, u64),
    build: impl FnOnce() -> V,
) -> (V, bool) {
    loop {
        let Ok(mut guard) = store.lock() else {
            return (build(), false);
        };
        if let Some(v) = guard.get(&key) {
            return (v, true);
        }
        match guard.flights.join(&key) {
            Some(flight) => {
                drop(guard);
                flight.wait();
            }
            None => break,
        }
    }
    /// Ends the leader's flight on every path, a panicking build
    /// included.
    struct Lead<'a, V> {
        store: &'a Mutex<Store<V>>,
        key: (u64, u64),
    }
    impl<V> Drop for Lead<'_, V> {
        fn drop(&mut self) {
            let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
            store.flights.end(&self.key);
        }
    }
    let lead = Lead { store, key };
    let value = build();
    let value = match store.lock() {
        Ok(mut store) => store.insert(key, value),
        Err(_) => value,
    };
    drop(lead);
    (value, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint_grammar::Taint;

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

    #[test]
    fn fingerprint_ignores_absolute_ids() {
        let (g1, r1) = sample("");
        // Same content shifted to different absolute NtIds.
        let mut g2 = Cfg::new();
        for i in 0..7 {
            g2.add_nonterminal(format!("pad{i}"));
        }
        let r2 = g2.import_from(&g1, r1);
        assert_eq!(Subgrammar::of(&g1, r1).fp, Subgrammar::of(&g2, r2).fp);
    }

    #[test]
    fn fingerprint_sees_names_taints_and_structure() {
        let (g1, r1) = sample("");
        let (g2, r2) = sample("renamed");
        assert_ne!(
            Subgrammar::of(&g1, r1).fp,
            Subgrammar::of(&g2, r2).fp,
            "name change must change the fingerprint"
        );
        let (mut g3, r3) = sample("");
        let extra = g3.add_nonterminal("x");
        g3.add_literal_production(extra, b"2");
        g3.add_production(r3, vec![Symbol::N(extra)]);
        assert_ne!(
            Subgrammar::of(&g1, r1).fp,
            Subgrammar::of(&g3, r3).fp,
            "structure change must change the fingerprint"
        );
    }

    #[test]
    fn memo_shares_preparation_and_skeleton() {
        let memo = PreparedMemo::new();
        let (g, root) = sample("");
        let (p1, hit1, _) = memo.prepared(&g, root);
        let (p2, hit2, _) = memo.prepared(&g, root);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn marked_memo_matches_direct_construction() {
        let memo = PreparedMemo::new();
        let (g, root) = sample("");
        let x = g
            .nonterminals()
            .find(|&n| g.name(n) == "x")
            .expect("sample tainted nonterminal");
        let sub = Subgrammar::of(&g, root);
        let (m1, hit1) = memo.marked_prepared(&g, root, &sub, x);
        let (m2, hit2) = memo.marked_prepared(&g, root, &sub, x);
        assert!(!hit1);
        assert!(hit2, "second call must hit without reconstructing");
        assert!(Arc::ptr_eq(&m1, &m2));
        // A hit returns exactly what direct construction would build.
        let (marked, mroot) = marked_grammar(&g, root, x, &HashMap::new());
        let direct = PreparedGrammar::new(&marked, mroot);
        assert_eq!(m1.fingerprint(), direct.fingerprint());

        let s1 = memo.skeleton_for(&g, root, &sub, x);
        let s2 = memo.skeleton_for(&g, root, &sub, x);
        assert_eq!(s1, s2);
        assert_eq!(s1, shortest_string(&marked, mroot));
    }

    #[test]
    fn skeleton_miss_prepares_nothing_into_the_memo() {
        let memo = PreparedMemo::new();
        let (g, root) = sample("");
        let x = g
            .nonterminals()
            .find(|&n| g.name(n) == "x")
            .expect("sample tainted nonterminal");
        let sub = Subgrammar::of(&g, root);
        let skeleton = memo.skeleton_for(&g, root, &sub, x);
        let mut want = b"SELECT ".to_vec();
        want.push(strtaint_sql::VAR_MARKER);
        assert_eq!(skeleton, Some(want));
        // The miss derived the skeleton without storing a preparation.
        let (prep, hit) = memo.marked_prepared(&g, root, &sub, x);
        assert!(!hit);
        // Once C2 has prepared the marked grammar, a skeleton miss on a
        // fresh skeleton store reads the same bytes off it.
        assert_eq!(prep.shortest_string(), skeleton);
        let warm = PreparedMemo::new();
        warm.marked_prepared(&g, root, &sub, x);
        assert_eq!(warm.skeleton_for(&g, root, &sub, x), skeleton);
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

    #[test]
    fn concurrent_builds_of_one_key_run_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::RwLock;
        let store = Mutex::new(Store::new(4));
        let (built, gate) = (AtomicUsize::new(0), RwLock::new(()));
        let closed = gate.write().unwrap();
        let mut results: Vec<(u32, bool)> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        get_or_build(&store, (1, 2), || {
                            built.fetch_add(1, Ordering::SeqCst);
                            drop(gate.read().unwrap());
                            7
                        })
                    })
                })
                .collect();
            // Open the gate once the second caller waits on the first
            // one's build (the table's reference plus the waiter's).
            while store.lock().unwrap().flights.holders(&(1, 2)) < 2 {
                std::thread::yield_now();
            }
            drop(closed);
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(built.load(Ordering::SeqCst), 1);
        results.sort_unstable();
        assert_eq!(results, [(7, false), (7, true)], "one build, one hit");
    }
}
