//! Abstraction of labeled subgrammars out of the query grammar
//! (paper §3.2: "abstracting the subgrammars that represent untrusted
//! substrings out of the larger CFG, determining the syntactic
//! contexts of those subgrammars").
//!
//! A page index walks a page grammar once for all of the page's
//! hotspots: it finds each root's candidates (the maximal labeled
//! nonterminals, [`maximal_labeled`]) and reachable production count,
//! and holds the content key of every distinct candidate. The marked
//! grammar of one candidate under one root ([`marked_grammar`]) is its
//! context grammar, walked only as far as it reaches.

use std::collections::HashMap;
use std::sync::OnceLock;

use strtaint_grammar::csr::Csr;
use strtaint_grammar::{Cfg, NtId, Reach, Symbol, Taint};
use strtaint_sql::VAR_MARKER;

use crate::pmemo::{Subgrammar, View};

/// Byte used to neutralize stray [`VAR_MARKER`] terminals coming from
/// *other* (Σ*-like) subgrammars when one nonterminal is marked; the
/// substitution is parity-neutral for the quote-tracking automata.
pub(crate) const MARKER_SUBSTITUTE: u8 = 0x1b;

/// Returns the labeled nonterminals reachable from `root` that are
/// *maximal*: not properly contained in another labeled subgrammar.
///
/// Checking only maximal labeled nonterminals is sound: an inner
/// labeled nonterminal derives substrings of its enclosing labeled
/// nonterminal, so the enclosing check subsumes it.
///
/// Within one strongly connected component the smallest labeled id
/// stands for the component, and the result lists the candidates in
/// the breadth-first discovery order of [`Cfg::reachable_list`]. This
/// is the one-root view of the checker's page index.
pub fn maximal_labeled(cfg: &Cfg, root: NtId) -> Vec<NtId> {
    PageIndex::new(cfg, &[root]).candidates(root).to_vec()
}

/// What a page index knows about one hotspot root.
#[derive(Debug)]
struct Hotspot {
    root: NtId,
    /// The maximal labeled nonterminals, in discovery order.
    candidates: Vec<NtId>,
    /// Productions reachable from the root (exact, uncapped).
    productions: usize,
}

/// One walk over the part of a page grammar that the page's hotspot
/// roots reach, shared by every hotspot job of the page.
///
/// It is built from one [`Reach`] over all the roots, the successor
/// [`Csr`] of the reached nonterminals and its strongly connected
/// components. One pass over the components, callers first, marks for
/// each root which components it reaches and which of them lie below a
/// labeled component; that gives every root its candidates and its
/// reachable production count. The content key of each distinct
/// candidate is computed once, on first use, however many hotspots of
/// the page check it.
#[derive(Debug)]
pub(crate) struct PageIndex {
    /// One entry per distinct root, sorted by root id.
    hotspots: Vec<Hotspot>,
    /// Every distinct candidate, sorted by id, with its content key.
    keys: Vec<(NtId, OnceLock<Subgrammar>)>,
}

impl PageIndex {
    /// Indexes the subgrammar of `cfg` that `roots` reach.
    pub(crate) fn new(cfg: &Cfg, roots: &[NtId]) -> PageIndex {
        let _span = strtaint_obs::Span::enter("page-index", "");
        let reach = Reach::from_roots(cfg, roots);
        let nodes = reach.order();
        let local = |n: NtId| reach.get(n).expect("reached") as u32;
        let mut sizes = Vec::with_capacity(nodes.len());
        let succ = Csr::from_rows(nodes.len(), |i, out| {
            let prods = cfg.productions(nodes[i as usize]);
            sizes.push(prods.len());
            out.extend(prods.iter().flatten().filter_map(|s| s.as_nt()).map(local));
        });
        let sccs = succ.components();
        let scc = |i: u32| sccs.of[i as usize] as usize;
        let members =
            |c: usize| &sccs.members[sccs.bounds[c] as usize..sccs.bounds[c + 1] as usize];
        let num_sccs = sccs.bounds.len() - 1;

        // The representative (smallest-id) labeled nonterminal of each
        // component, and the labeled components.
        let mut rep: Vec<Option<NtId>> = vec![None; num_sccs];
        for (i, &n) in nodes.iter().enumerate() {
            if !cfg.taint(n).is_empty() {
                let r = &mut rep[scc(i as u32)];
                if r.is_none_or(|r| n < r) {
                    *r = Some(n);
                }
            }
        }
        let labeled: Vec<usize> = (0..num_sccs).filter(|&c| rep[c].is_some()).collect();

        // The distinct roots are the first `num_roots` nonterminals of
        // the walk's order.
        let mut distinct = roots.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let num_roots = distinct.len();
        let mut hotspots = Vec::with_capacity(num_roots);
        // Up to 64 roots per pass, one bit each: `clean[c]` holds the
        // roots that reach component `c` on a path through no labeled
        // component before it, `dirty[c]` those that reach it through
        // one. A labeled component that a root reaches only cleanly is
        // maximal for that root.
        for first in (0..num_roots).step_by(64) {
            let batch = first..num_roots.min(first + 64);
            let mut clean = vec![0u64; num_sccs];
            let mut dirty = vec![0u64; num_sccs];
            for (bit, r) in batch.clone().enumerate() {
                clean[scc(r as u32)] |= 1 << bit;
            }
            let mut productions = vec![0usize; batch.len()];
            // Components are listed callees first, so in reverse every
            // component is done before any it has an edge into.
            for c in (0..num_sccs).rev() {
                let reached = clean[c] | dirty[c];
                if reached == 0 {
                    continue;
                }
                let size: usize = members(c).iter().map(|&i| sizes[i as usize]).sum();
                let mut bits = reached;
                while bits != 0 {
                    productions[bits.trailing_zeros() as usize] += size;
                    bits &= bits - 1;
                }
                // Everything below a labeled component is dominated
                // for every root that reaches it.
                let (down_clean, down_dirty) = match rep[c] {
                    Some(_) => (0, reached),
                    None => (clean[c], dirty[c]),
                };
                for &i in members(c) {
                    for &j in succ.get(i) {
                        let d = scc(j);
                        if d != c {
                            clean[d] |= down_clean;
                            dirty[d] |= down_dirty;
                        }
                    }
                }
            }
            for (bit, r) in batch.enumerate() {
                let mask = 1u64 << bit;
                let mut candidates: Vec<NtId> = labeled
                    .iter()
                    .filter(|&&c| clean[c] & mask != 0 && dirty[c] & mask == 0)
                    .filter_map(|&c| rep[c])
                    .collect();
                if candidates.len() > 1 {
                    // Discovery order: the breadth-first walk from the
                    // root, restricted to what is not dominated. Every
                    // parent of an undominated nonterminal is itself
                    // undominated, so the restriction keeps their
                    // relative order. An edge leaving a labeled
                    // component only leads to dominated ones.
                    candidates.sort_unstable();
                    let mut seen = vec![false; nodes.len()];
                    let mut queue = vec![r as u32];
                    seen[r] = true;
                    let mut found = Vec::with_capacity(candidates.len());
                    let mut cursor = 0;
                    while cursor < queue.len() && found.len() < candidates.len() {
                        let i = queue[cursor];
                        cursor += 1;
                        let c = scc(i);
                        if dirty[c] & mask != 0 {
                            continue;
                        }
                        for t in cfg.productions(nodes[i as usize]).iter().flatten() {
                            let Symbol::N(t) = *t else { continue };
                            let j = local(t);
                            if seen[j as usize] || (rep[c].is_some() && scc(j) != c) {
                                continue;
                            }
                            seen[j as usize] = true;
                            queue.push(j);
                            if candidates.binary_search(&t).is_ok() {
                                found.push(t);
                            }
                        }
                    }
                    candidates = found;
                }
                hotspots.push(Hotspot {
                    root: nodes[r],
                    candidates,
                    productions: productions[bit],
                });
            }
        }
        hotspots.sort_unstable_by_key(|h| h.root);
        let mut keys: Vec<NtId> = hotspots
            .iter()
            .flat_map(|h| h.candidates.iter().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        PageIndex {
            hotspots,
            keys: keys.into_iter().map(|x| (x, OnceLock::new())).collect(),
        }
    }

    fn hotspot(&self, root: NtId) -> &Hotspot {
        let i = self
            .hotspots
            .binary_search_by_key(&root, |h| h.root)
            .expect("the root was indexed");
        &self.hotspots[i]
    }

    /// The maximal labeled nonterminals reachable from `root`, an
    /// indexed root (see [`maximal_labeled`]).
    pub(crate) fn candidates(&self, root: NtId) -> &[NtId] {
        &self.hotspot(root).candidates
    }

    /// The number of productions reachable from `root`, an indexed
    /// root.
    pub(crate) fn productions(&self, root: NtId) -> usize {
        self.hotspot(root).productions
    }

    /// The content key of the subgrammar reachable from `x`, a
    /// candidate of some indexed root, computed on first use.
    pub(crate) fn key(&self, cfg: &Cfg, x: NtId) -> &Subgrammar {
        let i = self
            .keys
            .binary_search_by_key(&x, |(n, _)| *n)
            .expect("a candidate of the page");
        self.keys[i].1.get_or_init(|| Subgrammar::of(cfg, x))
    }
}

/// The marked grammar of `x` under `root` (see [`marked_grammar`]) as
/// a view over `cfg`, without copying it.
///
/// One walk from `root` that treats `x` and the replaced nonterminals
/// as leaves lists exactly the nonterminals the marked grammar keeps,
/// in breadth-first discovery order (the root is 0), so the view and
/// its copy number them alike.
#[derive(Debug)]
pub(crate) struct Marked<'a> {
    cfg: &'a Cfg,
    x: NtId,
    replacements: &'a HashMap<NtId, Vec<u8>>,
    reach: Reach,
}

impl<'a> Marked<'a> {
    pub(crate) fn new(
        cfg: &'a Cfg,
        root: NtId,
        x: NtId,
        replacements: &'a HashMap<NtId, Vec<u8>>,
    ) -> Self {
        let alone = root == x;
        let reach = Reach::around(cfg, root, |n| {
            alone || n == x || replacements.contains_key(&n)
        });
        Marked {
            cfg,
            x,
            replacements,
            reach,
        }
    }

    /// Copies the marked grammar out; its root is `NtId(0)`.
    pub(crate) fn to_cfg(&self) -> Cfg {
        let mut out = Cfg::new();
        for i in 0..self.len() {
            out.add_nonterminal(self.name(i));
        }
        let mut rhs = Vec::new();
        for i in 0..self.len() {
            for k in 0..self.productions(i) {
                rhs.clear();
                self.rhs(i, k, |s| rhs.push(s));
                out.add_production(NtId(i as u32), &rhs);
            }
        }
        out
    }
}

impl View for Marked<'_> {
    fn len(&self) -> usize {
        self.reach.order().len()
    }

    fn name(&self, i: usize) -> &str {
        self.cfg.name(self.reach.order()[i])
    }

    fn taint(&self, _: usize) -> Taint {
        Taint::NONE
    }

    fn productions(&self, i: usize) -> usize {
        match self.reach.order()[i] {
            id if id == self.x => 1,
            id => self.cfg.productions(id).len(),
        }
    }

    fn rhs(&self, i: usize, k: usize, mut emit: impl FnMut(Symbol)) {
        let id = self.reach.order()[i];
        if id == self.x {
            emit(Symbol::T(VAR_MARKER));
            return;
        }
        for &s in &self.cfg.productions(id)[k] {
            match s {
                Symbol::T(VAR_MARKER) => emit(Symbol::T(MARKER_SUBSTITUTE)),
                Symbol::T(_) => emit(s),
                Symbol::N(y) if y == self.x => emit(Symbol::T(VAR_MARKER)),
                Symbol::N(y) => match self.reach.get(y) {
                    Some(l) => emit(Symbol::N(NtId(l as u32))),
                    None => self.replacements[&y]
                        .iter()
                        .for_each(|&b| emit(Symbol::T(b))),
                },
            }
        }
    }
}

/// Builds the *marked grammar* for `x`: a copy of the grammar reachable
/// from `root` where every occurrence of `x` on a right-hand side is
/// replaced by the terminal [`VAR_MARKER`], and every nonterminal in
/// `replacements` is replaced by a fixed byte string (used to splice in
/// representative values for sibling tainted subgrammars). Returns the
/// copy and its root.
///
/// The copy holds only what its root reaches: nothing below `x` or a
/// replaced nonterminal is walked or copied. Its nonterminals carry
/// their names but no taint. Occurrences of the raw marker byte in
/// ordinary terminals (possible when a Σ* subgrammar is present) are
/// substituted with a parity-neutral byte so the context automata only
/// ever see markers that stand for `x`. When `root` is `x` itself the
/// whole query is the tainted value: the marked grammar is a single
/// marker.
pub fn marked_grammar(
    cfg: &Cfg,
    root: NtId,
    x: NtId,
    replacements: &HashMap<NtId, Vec<u8>>,
) -> (Cfg, NtId) {
    (Marked::new(cfg, root, x, replacements).to_cfg(), NtId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The candidates of `root` by definition: every labeled
    /// nonterminal reachable from it, less those strictly below another
    /// reachable labeled one and those sharing a strongly connected
    /// component with a smaller labeled id, in discovery order.
    fn reference(g: &Cfg, root: NtId) -> Vec<NtId> {
        let labeled: Vec<NtId> = g
            .reachable_list(root)
            .into_iter()
            .filter(|&n| !g.taint(n).is_empty())
            .collect();
        let reaches: HashMap<NtId, Vec<bool>> =
            labeled.iter().map(|&n| (n, g.reachable(n))).collect();
        labeled
            .iter()
            .copied()
            .filter(|&x| {
                !labeled.iter().any(|&y| {
                    y != x && reaches[&y][x.index()] && (!reaches[&x][y.index()] || y < x)
                })
            })
            .collect()
    }

    /// A random grammar with cycles, nested labels and shared
    /// subgraphs, and a few roots (repeats allowed).
    fn multi_root() -> impl Strategy<Value = (Cfg, Vec<NtId>)> {
        let rhs = proptest::collection::vec(0..24usize, 0..4);
        let nt = (0..3usize, proptest::collection::vec(rhs, 0..3));
        (
            proptest::collection::vec(nt, 2..12),
            proptest::collection::vec(0..64usize, 1..5),
        )
            .prop_map(|(spec, roots)| {
                let n = spec.len();
                let mut g = Cfg::new();
                for (i, (label, _)) in spec.iter().enumerate() {
                    let id = g.add_nonterminal(format!("n{i}"));
                    if *label == 0 {
                        g.set_taint(id, Taint::DIRECT);
                    }
                }
                for (i, (_, prods)) in spec.iter().enumerate() {
                    for rhs in prods {
                        let rhs: Vec<Symbol> = rhs
                            .iter()
                            .map(|&s| match s % (n + 2) {
                                k if k < n => Symbol::N(NtId(k as u32)),
                                k => Symbol::T(b'a' + (k - n) as u8),
                            })
                            .collect();
                        g.add_production(NtId(i as u32), rhs);
                    }
                }
                let roots = roots.iter().map(|&r| NtId((r % n) as u32)).collect();
                (g, roots)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn page_candidates_match_the_definition((g, roots) in multi_root()) {
            let page = PageIndex::new(&g, &roots);
            for &root in &roots {
                prop_assert_eq!(page.candidates(root), reference(&g, root).as_slice());
                prop_assert_eq!(
                    page.productions(root),
                    g.count_reachable_productions(root, usize::MAX - 1)
                );
            }
        }
    }

    #[test]
    fn roots_beyond_one_batch_are_indexed() {
        // 130 roots over a shared labeled source, in three batches of
        // root bits; every other root also reaches a second label.
        let mut g = Cfg::new();
        let x = g.add_nonterminal("x");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"v");
        let y = g.add_nonterminal("y");
        g.set_taint(y, Taint::INDIRECT);
        g.add_production(y, vec![Symbol::N(x)]);
        let roots: Vec<NtId> = (0..130)
            .map(|i| {
                let r = g.add_nonterminal(format!("q{i}"));
                let mut rhs = vec![Symbol::T(b'a'), Symbol::N(x)];
                if i % 2 == 0 {
                    rhs.push(Symbol::N(y));
                }
                g.add_production(r, rhs);
                r
            })
            .collect();
        let page = PageIndex::new(&g, &roots);
        for (i, &root) in roots.iter().enumerate() {
            let want = if i % 2 == 0 { vec![y] } else { vec![x] };
            assert_eq!(page.candidates(root), want.as_slice(), "root {i}");
            assert_eq!(page.candidates(root), reference(&g, root).as_slice());
            assert_eq!(page.productions(root), 1 + 1 + usize::from(i % 2 == 0));
        }
    }

    #[test]
    fn maximal_filters_nested_labels() {
        let mut g = Cfg::new();
        let inner = g.add_nonterminal("inner");
        g.set_taint(inner, Taint::DIRECT);
        g.add_literal_production(inner, b"i");
        let outer = g.add_nonterminal("outer");
        g.set_taint(outer, Taint::DIRECT);
        g.add_production(outer, vec![Symbol::N(inner)]);
        let root = g.add_nonterminal("root");
        g.add_production(root, vec![Symbol::N(outer)]);
        assert_eq!(maximal_labeled(&g, root), vec![outer]);
    }

    #[test]
    fn unreachable_labels_ignored() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("x");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"i");
        let root = g.literal_nonterminal("root", b"safe");
        assert!(maximal_labeled(&g, root).is_empty());
    }

    #[test]
    fn marking_replaces_occurrences() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("x");
        g.set_taint(x, Taint::DIRECT);
        g.add_literal_production(x, b"evil");
        let root = g.add_nonterminal("root");
        let mut rhs = g.literal_symbols(b"id='");
        rhs.push(Symbol::N(x));
        rhs.push(Symbol::T(b'\''));
        g.add_production(root, rhs);
        let (m, mroot) = marked_grammar(&g, root, x, &HashMap::new());
        let mut expected = b"id='".to_vec();
        expected.push(VAR_MARKER);
        expected.push(b'\'');
        assert!(m.derives(mroot, &expected));
        assert!(!m.derives(mroot, b"id='evil'"));
    }

    #[test]
    fn sibling_replacement_splices_literal() {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("x");
        g.add_literal_production(x, b"X");
        let y = g.add_nonterminal("y");
        g.add_literal_production(y, b"a");
        g.add_literal_production(y, b"bb");
        let root = g.add_nonterminal("root");
        g.add_production(root, vec![Symbol::N(y), Symbol::T(b'='), Symbol::N(x)]);
        let mut repl = HashMap::new();
        repl.insert(y, b"a".to_vec());
        let (m, mroot) = marked_grammar(&g, root, x, &repl);
        let expected = [b'a', b'=', VAR_MARKER];
        assert!(m.derives(mroot, &expected));
        let not_expected = [b'b', b'b', b'=', VAR_MARKER];
        assert!(!m.derives(mroot, &not_expected));
    }

    #[test]
    fn root_marked_directly() {
        let mut g = Cfg::new();
        let root = g.add_nonterminal("q");
        g.set_taint(root, Taint::DIRECT);
        g.add_literal_production(root, b"whatever");
        let (m, mroot) = marked_grammar(&g, root, root, &HashMap::new());
        assert!(m.derives(mroot, &[VAR_MARKER]));
    }
}
