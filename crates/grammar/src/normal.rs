//! Binary normal form (the paper's `NORMALIZE`, Fig. 7).
//!
//! Rewrites every production to have a right-hand side of length at most
//! two by introducing chain nonterminals, preserving the language, the
//! taint labels, and the identity of the original nonterminals (ids
//! `0..n` of the input grammar map to the same ids of the output).

use std::borrow::Cow;

use crate::cfg::{Cfg, Reach};
use crate::symbol::{NtId, Symbol, Taint};

/// Returns an equivalent grammar whose productions all have `|rhs| ≤ 2`.
///
/// Original nonterminal ids are preserved; helper nonterminals are
/// appended after them, named `<name>#<k>`, untainted (they are interior
/// chain links — taint lives on the original nonterminal, exactly as the
/// paper's Fig. 7 `NORMALIZE` leaves labels untouched).
pub fn normalize(g: &Cfg) -> Cfg {
    let mut out = Cfg::new();
    for id in g.nonterminals() {
        let n = out.add_nonterminal(g.name(id));
        out.set_taint(n, g.taint(id));
        debug_assert_eq!(n, id);
    }
    for (lhs, rhs) in g.iter_productions() {
        if rhs.len() <= 2 {
            out.add_production(lhs, rhs.to_vec());
            continue;
        }
        // lhs -> s0 H0, H0 -> s1 H1, ..., H(k) -> s(n-2) s(n-1)
        let mut current = lhs;
        for (k, sym) in rhs[..rhs.len() - 2].iter().enumerate() {
            let helper = out.add_nonterminal(format!("{}#{}", g.name(lhs), k));
            out.add_production(current, vec![*sym, Symbol::N(helper)]);
            current = helper;
        }
        out.add_production(current, vec![rhs[rhs.len() - 2], rhs[rhs.len() - 1]]);
    }
    out
}

/// A binary-normalized production, classified by shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum P {
    Eps,
    T(u8),
    N(NtId),
    TT(u8, u8),
    TN(u8, NtId),
    NT(NtId, u8),
    NN(NtId, NtId),
}

impl P {
    /// Shape of a right-hand side of at most two symbols.
    fn of(rhs: &[Symbol]) -> P {
        match *rhs {
            [] => P::Eps,
            [Symbol::T(a)] => P::T(a),
            [Symbol::N(x)] => P::N(x),
            [Symbol::T(a), Symbol::T(b)] => P::TT(a, b),
            [Symbol::T(a), Symbol::N(x)] => P::TN(a, x),
            [Symbol::N(x), Symbol::T(b)] => P::NT(x, b),
            [Symbol::N(x), Symbol::N(y)] => P::NN(x, y),
            _ => unreachable!("right-hand side longer than two symbols"),
        }
    }

    /// The nonterminals the production reads, left to right.
    pub(crate) fn children(self) -> impl Iterator<Item = NtId> + Clone {
        let (a, b) = match self {
            P::N(x) | P::TN(_, x) | P::NT(x, _) => (Some(x), None),
            P::NN(x, y) => (Some(x), Some(y)),
            P::Eps | P::T(_) | P::TT(..) => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// `normalize(&g.trimmed(root).0)` computed in one pass over dense
/// local ids, without building either grammar.
///
/// Ids are those `normalize` would give: the trimmed root is 0, the
/// other kept nonterminals follow in discovery order, and chain helpers
/// come after them. [`Normal::prods`] lists productions in the order
/// `iter_productions` would, so hashes and worklists over it match the
/// two-copy construction exactly.
pub(crate) struct Normal {
    /// Every production, grouped by left-hand side in id order.
    pub(crate) prods: Vec<(NtId, P)>,
    /// `prods[first[x]..first[x + 1]]` are the productions of `x`.
    first: Vec<u32>,
    /// Names of the kept nonterminals, concatenated; `name_ends[x]` is
    /// where the name of `x` ends.
    names: String,
    name_ends: Vec<u32>,
    /// Taints of the kept nonterminals (helpers are untainted).
    taints: Vec<Taint>,
    /// Per helper: the kept nonterminal whose production it chains, and
    /// its position in that chain (the `k` of its name `<name>#<k>`).
    helpers: Vec<(u32, u32)>,
}

impl Normal {
    /// Trims `(g, root)` to its reachable, productive part and
    /// binary-normalizes it.
    pub(crate) fn new(g: &Cfg, root: NtId) -> Normal {
        let _span = strtaint_obs::Span::enter("trim", "");
        let reach = Reach::new(g, root);
        let kept = reach.kept(g);
        let mut out = Normal {
            prods: Vec::new(),
            first: Vec::new(),
            names: String::new(),
            name_ends: Vec::new(),
            taints: Vec::new(),
            helpers: Vec::new(),
        };
        let num_kept = kept.iter().filter(|&&k| k != u32::MAX).count() as u32;
        // Chain productions of helpers, appended after the kept
        // nonterminals' own productions (helpers have one each).
        let mut chains: Vec<(NtId, P)> = Vec::new();
        let mut rhs: Vec<Symbol> = Vec::new();
        for (local, &id) in reach.order.iter().enumerate() {
            if kept[local] == u32::MAX {
                continue;
            }
            let lhs = NtId(kept[local]);
            out.names.push_str(g.name(id));
            out.name_ends.push(out.names.len() as u32);
            out.taints.push(g.taint(id));
            out.first.push(out.prods.len() as u32);
            'prods: for orig in g.productions(id) {
                rhs.clear();
                for s in orig {
                    rhs.push(match *s {
                        Symbol::T(b) => Symbol::T(b),
                        Symbol::N(sub) => match kept[reach.local(sub)] {
                            u32::MAX => continue 'prods,
                            n => Symbol::N(NtId(n)),
                        },
                    });
                }
                if rhs.len() <= 2 {
                    out.prods.push((lhs, P::of(&rhs)));
                    continue;
                }
                // lhs -> s0 H0, H0 -> s1 H1, ..., H(k) -> s(n-2) s(n-1)
                let mut current = lhs;
                for (k, &sym) in rhs[..rhs.len() - 2].iter().enumerate() {
                    let helper = NtId(num_kept + out.helpers.len() as u32);
                    out.helpers.push((lhs.0, k as u32));
                    let link = (current, P::of(&[sym, Symbol::N(helper)]));
                    if current == lhs {
                        out.prods.push(link);
                    } else {
                        chains.push(link);
                    }
                    current = helper;
                }
                chains.push((current, P::of(&rhs[rhs.len() - 2..])));
            }
        }
        let base = out.prods.len() as u32;
        out.first.extend((0..chains.len() as u32).map(|h| base + h));
        out.prods.extend(chains);
        out.first.push(out.prods.len() as u32);
        out
    }

    /// Number of nonterminals, helpers included.
    pub(crate) fn num_nonterminals(&self) -> usize {
        self.first.len() - 1
    }

    /// Every nonterminal id, helpers included.
    pub(crate) fn nonterminals(&self) -> impl Iterator<Item = NtId> + Clone {
        (0..self.num_nonterminals() as u32).map(NtId)
    }

    /// Whether the root derives no string: trimming keeps a production
    /// only when every symbol is productive, so the root keeps one iff
    /// its language is nonempty.
    pub(crate) fn is_empty(&self) -> bool {
        self.first[1] == 0
    }

    /// The productions of `x`.
    pub(crate) fn productions(&self, x: NtId) -> &[(NtId, P)] {
        &self.prods[self.first[x.index()] as usize..self.first[x.index() + 1] as usize]
    }

    /// The name `normalize` gives `x`.
    pub(crate) fn name(&self, x: NtId) -> Cow<'_, str> {
        let kept = self.taints.len();
        if x.index() < kept {
            let start = if x.0 == 0 {
                0
            } else {
                self.name_ends[x.index() - 1] as usize
            };
            Cow::Borrowed(&self.names[start..self.name_ends[x.index()] as usize])
        } else {
            let (owner, k) = self.helpers[x.index() - kept];
            Cow::Owned(format!("{}#{}", self.name(NtId(owner)), k))
        }
    }

    /// The taint labels of `x`.
    pub(crate) fn taint(&self, x: NtId) -> Taint {
        self.taints.get(x.index()).copied().unwrap_or(Taint::NONE)
    }
}

/// Returns `true` if every production of `g` has `|rhs| ≤ 2`.
pub fn is_normalized(g: &Cfg) -> bool {
    g.iter_productions().all(|(_, rhs)| rhs.len() <= 2)
}

/// Checks whether `id` is an original nonterminal of the grammar that
/// was normalized into `g` (as opposed to an introduced helper).
pub fn is_original(original: &Cfg, id: NtId) -> bool {
    id.index() < original.num_nonterminals()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Symbol as S, Taint};

    #[test]
    fn short_rules_untouched() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'x'), S::N(a)]);
        g.add_production(a, vec![]);
        let n = normalize(&g);
        assert!(is_normalized(&n));
        assert_eq!(n.num_productions(), 2);
        assert_eq!(n.num_nonterminals(), 1);
    }

    #[test]
    fn long_rules_chained() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"hello");
        let n = normalize(&g);
        assert!(is_normalized(&n));
        // "hello" (5 symbols) becomes 4 binary productions.
        assert_eq!(n.num_productions(), 4);
        assert!(n.derives(a, b"hello"));
        assert!(!n.derives(a, b"hell"));
    }

    #[test]
    fn language_preserved_with_recursion() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        // A -> 'x' A 'y' A 'z' | ε
        g.add_production(
            a,
            vec![S::T(b'x'), S::N(a), S::T(b'y'), S::N(a), S::T(b'z')],
        );
        g.add_production(a, vec![]);
        let n = normalize(&g);
        assert!(is_normalized(&n));
        for s in [&b""[..], b"xyz", b"xxyzyz", b"xyxyzz"] {
            assert_eq!(g.derives(a, s), n.derives(a, s), "{:?}", s);
        }
        assert!(!n.derives(a, b"xy"));
    }

    #[test]
    fn taint_preserved_on_originals_only() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.set_taint(a, Taint::DIRECT);
        g.add_literal_production(a, b"abcd");
        let n = normalize(&g);
        assert_eq!(n.taint(a), Taint::DIRECT);
        for id in n.nonterminals().skip(1) {
            assert!(n.taint(id).is_empty(), "helper {} tainted", n.name(id));
        }
    }

    /// `Normal` is `normalize(trimmed)` without the two copies: same
    /// ids, productions in the same order, same names and taints.
    #[test]
    fn one_pass_matches_trim_then_normalize() {
        let mut g = Cfg::new();
        let unreachable = g.add_nonterminal("Z");
        g.add_literal_production(unreachable, b"z");
        let r = g.add_nonterminal("R");
        let u = g.add_nonterminal("U");
        let dead = g.add_nonterminal("D");
        let only_via_dead = g.add_nonterminal("Q");
        g.set_taint(u, Taint::DIRECT);
        let mut rhs = g.literal_symbols(b"id='");
        rhs.push(S::N(u));
        rhs.extend(g.literal_symbols(b"' AND 1"));
        g.add_production(r, rhs);
        g.add_production(r, vec![S::N(dead), S::T(b'x'), S::N(u)]);
        g.add_production(r, vec![S::N(r), S::T(b','), S::N(u), S::N(u)]);
        g.add_production(u, vec![]);
        g.add_literal_production(u, b"1'");
        g.add_production(dead, vec![S::N(only_via_dead), S::N(dead)]);
        g.add_literal_production(only_via_dead, b"q");
        for root in [r, u, dead] {
            let (trimmed, _) = g.trimmed(root);
            let want = normalize(&trimmed);
            let got = Normal::new(&g, root);
            assert_eq!(got.num_nonterminals(), want.num_nonterminals());
            let want_prods: Vec<(NtId, P)> =
                want.iter_productions().map(|(lhs, rhs)| (lhs, P::of(rhs))).collect();
            assert_eq!(got.prods, want_prods);
            assert_eq!(got.is_empty(), trimmed.productions(NtId(0)).is_empty());
            for x in want.nonterminals() {
                assert_eq!(got.productions(x).len(), want.productions(x).len());
                assert_eq!(got.name(x), want.name(x));
                assert_eq!(got.taint(x), want.taint(x));
            }
        }
    }
}
