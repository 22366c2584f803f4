//! CFG–FSA intersection with taint propagation (paper Fig. 7).
//!
//! Computes a grammar for `L(G, root) ∩ L(D)` by the worklist
//! Bar-Hillel construction over the binary-normalized grammar: a triple
//! `X_{ij}` is *realized* when some string derivable from `X` drives
//! the DFA from state `i` to state `j`. The paper's `TAINTIF` is the
//! `taint` copy when result nonterminals are created: `X_{ij}` inherits
//! the labels of `X`, which is exactly what Theorem 3.1 requires.
//!
//! This module is the *reference* engine: each call re-trims and
//! re-normalizes the grammar and steps the DFA byte-by-byte. No
//! production code calls it — refinement, include resolution and the
//! checker all use [`crate::prepared`], which amortizes that setup
//! across queries and compresses DFAs by byte class. It stays as the
//! model the tests check the prepared engine against.

use std::collections::HashMap;

use strtaint_automata::Dfa;

use crate::budget::{Budget, BudgetExceeded};
use crate::cfg::Cfg;
use crate::normal::{Normal, P};
use crate::symbol::{NtId, Symbol};

/// Outcome of the intersection fixpoint, before grammar reconstruction.
struct Fixpoint {
    /// Normalized input grammar; its root is id 0.
    norm: Normal,
    /// by_start[X][i] = sorted end states j with X_{ij} realized.
    by_start: Vec<HashMap<u32, Vec<u32>>>,
    /// by_end[X][j] = start states i with X_{ij} realized.
    by_end: Vec<HashMap<u32, Vec<u32>>>,
}

impl Fixpoint {
    fn realized(&self, x: NtId, i: u32, j: u32) -> bool {
        self.by_start[x.index()]
            .get(&i)
            .is_some_and(|v| v.binary_search(&j).is_ok())
    }
}

/// Runs the Bar-Hillel worklist fixpoint, charging `budget` one unit
/// per discovery attempt and capping the realized-triple count.
fn fixpoint(g: &Cfg, root: NtId, dfa: &Dfa, budget: &Budget) -> Result<Fixpoint, BudgetExceeded> {
    let norm = Normal::new(g, root);
    let nv = norm.num_nonterminals();
    let q = dfa.num_states() as u32;
    let mut fx = Fixpoint {
        norm,
        by_start: vec![HashMap::new(); nv],
        by_end: vec![HashMap::new(); nv],
    };
    let prods = &fx.norm.prods;

    // Occurrence indexes: for each nonterminal, productions where it
    // appears in each role.
    let mut occ_unit: Vec<Vec<usize>> = vec![Vec::new(); nv];
    let mut occ_left: Vec<Vec<usize>> = vec![Vec::new(); nv];
    let mut occ_right: Vec<Vec<usize>> = vec![Vec::new(); nv];
    for (pid, (_, p)) in prods.iter().enumerate() {
        match p {
            P::N(x) => occ_unit[x.index()].push(pid),
            P::TN(_, x) => occ_right[x.index()].push(pid),
            P::NT(x, _) => occ_left[x.index()].push(pid),
            P::NN(x, y) => {
                occ_left[x.index()].push(pid);
                occ_right[y.index()].push(pid);
            }
            _ => {}
        }
    }

    // Byte step tables for terminals used by the grammar.
    let mut forward: HashMap<u8, Vec<u32>> = HashMap::new();
    let mut reverse: HashMap<u8, HashMap<u32, Vec<u32>>> = HashMap::new();
    {
        let mut bytes: Vec<u8> = Vec::new();
        for (_, p) in prods {
            match p {
                P::T(a) | P::TN(a, _) | P::NT(_, a) => bytes.push(*a),
                P::TT(a, b) => {
                    bytes.push(*a);
                    bytes.push(*b);
                }
                _ => {}
            }
        }
        bytes.sort_unstable();
        bytes.dedup();
        for b in bytes {
            let fwd: Vec<u32> = (0..q).map(|i| dfa.step(i, b)).collect();
            let mut rev: HashMap<u32, Vec<u32>> = HashMap::new();
            for (i, &j) in fwd.iter().enumerate() {
                rev.entry(j).or_default().push(i as u32);
            }
            forward.insert(b, fwd);
            reverse.insert(b, rev);
        }
    }

    let mut worklist: Vec<(NtId, u32, u32)> = Vec::new();
    let mut triples: usize = 0;

    macro_rules! discover {
        ($x:expr, $i:expr, $j:expr) => {{
            budget.charge(1)?;
            let (x, i, j) = ($x, $i, $j);
            let ends = fx.by_start[x.index()].entry(i).or_default();
            debug_assert!(ends.windows(2).all(|w| w[0] < w[1]), "ends not sorted");
            if let Err(pos) = ends.binary_search(&j) {
                ends.insert(pos, j);
                let starts = fx.by_end[x.index()].entry(j).or_default();
                debug_assert!(starts.windows(2).all(|w| w[0] < w[1]), "starts not sorted");
                if let Err(spos) = starts.binary_search(&i) {
                    starts.insert(spos, i);
                }
                triples += 1;
                budget.check_grammar_size(triples)?;
                worklist.push((x, i, j));
            }
        }};
    }

    // Seed: productions with no nonterminals.
    for (lhs, p) in prods {
        match p {
            P::Eps => {
                for i in 0..q {
                    discover!(*lhs, i, i);
                }
            }
            P::T(a) => {
                let fwd = &forward[a];
                for i in 0..q {
                    discover!(*lhs, i, fwd[i as usize]);
                }
            }
            P::TT(a, b) => {
                let fa = &forward[a];
                let fb = &forward[b];
                for i in 0..q {
                    discover!(*lhs, i, fb[fa[i as usize] as usize]);
                }
            }
            _ => {}
        }
    }

    // Propagate.
    while let Some((x, i, j)) = worklist.pop() {
        budget.charge(1)?;
        for &pid in &occ_unit[x.index()] {
            let (lhs, _) = prods[pid];
            discover!(lhs, i, j);
        }
        for &pid in &occ_right[x.index()] {
            let (lhs, p) = prods[pid];
            match p {
                P::TN(a, _) => {
                    if let Some(starts) = reverse[&a].get(&i) {
                        for &i0 in starts.clone().iter() {
                            discover!(lhs, i0, j);
                        }
                    }
                }
                P::NN(left, _) => {
                    // x is in the right slot; join with realized left
                    // triples ending at i.
                    if let Some(starts) = fx.by_end[left.index()].get(&i) {
                        for &i0 in starts.clone().iter() {
                            discover!(lhs, i0, j);
                        }
                    }
                }
                _ => unreachable!("occ_right holds TN/NN only"),
            }
        }
        for &pid in &occ_left[x.index()] {
            let (lhs, p) = prods[pid];
            match p {
                P::NT(_, b) => {
                    let jb = forward[&b][j as usize];
                    discover!(lhs, i, jb);
                }
                P::NN(_, right) => {
                    if let Some(ends) = fx.by_start[right.index()].get(&j) {
                        for &k in ends.clone().iter() {
                            discover!(lhs, i, k);
                        }
                    }
                }
                _ => unreachable!("occ_left holds NT/NN only"),
            }
        }
    }
    Ok(fx)
}

/// Computes a grammar for `L(g, root) ∩ L(dfa)` with taint labels
/// propagated onto the result's nonterminals.
///
/// Returns the new grammar and its root; the root derives the empty
/// language when the intersection is empty.
pub fn intersect(g: &Cfg, root: NtId, dfa: &Dfa) -> (Cfg, NtId) {
    intersect_with(g, root, dfa, &Budget::unlimited())
        .expect("an unlimited budget cannot be exceeded")
}

/// Budgeted form of [`intersect`].
///
/// Charges `budget` as the Bar-Hillel fixpoint and reconstruction run;
/// on exhaustion returns [`BudgetExceeded`] and the caller must apply a
/// sound fallback (see [`crate::budget`]).
pub fn intersect_with(
    g: &Cfg,
    root: NtId,
    dfa: &Dfa,
    budget: &Budget,
) -> Result<(Cfg, NtId), BudgetExceeded> {
    let fx = fixpoint(g, root, dfa, budget)?;
    let norm = &fx.norm;

    let mut out = Cfg::new();
    let out_root = out.add_nonterminal(format!("{}∩", g.name(root)));
    out.set_taint(out_root, g.taint(root));

    // Create result nonterminals for realized triples.
    let mut map: HashMap<(u32, u32, u32), NtId> = HashMap::new();
    for x in norm.nonterminals() {
        for (&i, ends) in &fx.by_start[x.index()] {
            for &j in ends {
                let id = out.add_nonterminal(norm.name(x));
                out.set_taint(id, norm.taint(x)); // TAINTIF
                map.insert((x.0, i, j), id);
            }
        }
    }

    // Productions.
    for x in norm.nonterminals() {
        for (&i, ends) in &fx.by_start[x.index()] {
            for &j in ends {
                budget.charge(1)?;
                let lhs = map[&(x.0, i, j)];
                for &(_, p) in norm.productions(x) {
                    match p {
                        P::Eps => {
                            if i == j {
                                out.add_production(lhs, vec![]);
                            }
                        }
                        P::T(a) => {
                            if dfa.step(i, a) == j {
                                out.add_production(lhs, vec![Symbol::T(a)]);
                            }
                        }
                        P::N(y) => {
                            if let Some(&sub) = map.get(&(y.0, i, j)) {
                                out.add_production(lhs, vec![Symbol::N(sub)]);
                            }
                        }
                        P::TT(a, b) => {
                            if dfa.step(dfa.step(i, a), b) == j {
                                out.add_production(lhs, vec![Symbol::T(a), Symbol::T(b)]);
                            }
                        }
                        P::TN(a, y) => {
                            let m = dfa.step(i, a);
                            if let Some(&sub) = map.get(&(y.0, m, j)) {
                                out.add_production(lhs, vec![Symbol::T(a), Symbol::N(sub)]);
                            }
                        }
                        P::NT(y, b) => {
                            // Any mid m with Y_{im} realized and step(m,b)=j.
                            if let Some(mids) = fx.by_start[y.index()].get(&i) {
                                for &m in mids {
                                    if dfa.step(m, b) == j {
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
                            if let Some(mids) = fx.by_start[y.index()].get(&i) {
                                for &m in mids {
                                    if fx.realized(z, m, j) {
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
    Ok((out, out_root))
}

/// Returns `true` if `L(g, root) ∩ L(dfa)` is empty.
///
/// Runs the same fixpoint as [`intersect`] but skips grammar
/// reconstruction.
pub fn is_intersection_empty(g: &Cfg, root: NtId, dfa: &Dfa) -> bool {
    is_intersection_empty_with(g, root, dfa, &Budget::unlimited())
        .expect("an unlimited budget cannot be exceeded")
}

/// Budgeted form of [`is_intersection_empty`].
///
/// On exhaustion the emptiness question is unanswered; callers must
/// treat the language as possibly nonempty (the sound direction).
pub fn is_intersection_empty_with(
    g: &Cfg,
    root: NtId,
    dfa: &Dfa,
    budget: &Budget,
) -> Result<bool, BudgetExceeded> {
    let fx = fixpoint(g, root, dfa, budget)?;
    let q0 = dfa.start();
    for qf in 0..dfa.num_states() as u32 {
        if dfa.is_accepting(qf) && fx.realized(NtId(0), q0, qf) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{sample_strings, shortest_string};
    use crate::symbol::{Symbol as S, Taint};
    use strtaint_automata::Regex;

    fn dfa(pattern: &str) -> Dfa {
        Regex::new(pattern).unwrap().match_dfa()
    }

    #[test]
    fn intersect_literal_with_regex() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"abc");
        g.add_literal_production(a, b"xyz");
        let (out, root) = intersect(&g, a, &dfa("^a.*$"));
        assert!(out.derives(root, b"abc"));
        assert!(!out.derives(root, b"xyz"));
        assert_eq!(shortest_string(&out, root), Some(b"abc".to_vec()));
    }

    #[test]
    fn intersect_recursive_grammar() {
        // A -> '(' A ')' | 'x' ; intersect with strings containing exactly
        // one 'x' and balanced parens is the whole language; intersect
        // with "starts with ((" keeps depth ≥ 2.
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'('), S::N(a), S::T(b')')]);
        g.add_literal_production(a, b"x");
        let (out, root) = intersect(&g, a, &dfa(r"^\(\(.*$"));
        assert!(!out.derives(root, b"(x)"));
        assert!(out.derives(root, b"((x))"));
        assert!(out.derives(root, b"(((x)))"));
        assert!(!out.derives(root, b"x"));
    }

    #[test]
    fn empty_intersection() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"hello");
        assert!(is_intersection_empty(&g, a, &dfa("^[0-9]+$")));
        assert!(!is_intersection_empty(&g, a, &dfa("^h.*$")));
        let (out, root) = intersect(&g, a, &dfa("^[0-9]+$"));
        assert!(out.is_empty_language(root));
    }

    #[test]
    fn taint_propagates_theorem_3_1() {
        // query -> "id='" userid "'"; userid (direct) -> Σ-ish digits
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

        let (out, root) = intersect(&g, query, &dfa("^id=.*$"));
        assert!(out.derives(root, b"id='1'"));
        // The userid sub-language must still be labeled direct.
        let labeled = out.labeled_nonterminals();
        assert!(
            labeled.iter().any(|&id| out.taint(id).is_direct() && out.name(id) == "userid"),
            "direct label lost:\n{}",
            out.display_from(root)
        );
        // And the labeled nonterminal still derives the tainted substrings.
        let direct_nt = labeled
            .iter()
            .copied()
            .find(|&id| out.name(id) == "userid" && !out.productions(id).is_empty())
            .unwrap();
        let strings = sample_strings(&out, direct_nt, 8, 8);
        assert!(strings.contains(&b"1".to_vec()) || strings.contains(&b"1'".to_vec()));
    }

    #[test]
    fn intersection_with_sigma_star_preserves_language() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'a'), S::N(a), S::T(b'b')]);
        g.add_production(a, vec![]);
        let (out, root) = intersect(&g, a, &Dfa::any_string());
        for s in [&b""[..], b"ab", b"aabb", b"aaabbb"] {
            assert!(out.derives(root, s), "{:?}", s);
        }
        assert!(!out.derives(root, b"ba"));
        assert!(!out.derives(root, b"aab"));
    }

    #[test]
    fn budget_trips_and_unlimited_agrees() {
        use crate::budget::{Budget, Resource};
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'('), S::N(a), S::T(b')')]);
        g.add_literal_production(a, b"x");
        let d = dfa(r"^\(\(.*$");

        // Tiny fuel: the fixpoint must bail with a structured error.
        let tiny = Budget::new(None, Some(3), None);
        let err = intersect_with(&g, a, &d, &tiny).unwrap_err();
        assert_eq!(err.resource, Resource::Fuel);
        assert!(is_intersection_empty_with(&g, a, &d, &tiny).is_err());

        // Tiny grammar cap trips on triple count.
        let capped = Budget::new(None, None, Some(2));
        let err = intersect_with(&g, a, &d, &capped).unwrap_err();
        assert_eq!(err.resource, Resource::GrammarSize);

        // Unlimited budget matches the infallible API exactly.
        let (out, root) = intersect_with(&g, a, &d, &Budget::unlimited()).unwrap();
        let (out2, root2) = intersect(&g, a, &d);
        assert_eq!(
            crate::lang::shortest_string(&out, root),
            crate::lang::shortest_string(&out2, root2)
        );
    }

    #[test]
    fn odd_quote_parity_intersection() {
        // The paper's check C1 shape: strings with an odd number of quotes.
        let mut g = Cfg::new();
        let x = g.add_nonterminal("X");
        g.add_literal_production(x, b"1");
        g.add_literal_production(x, b"1'");
        g.add_literal_production(x, b"1''");
        let odd_quotes = dfa("^[^']*('[^']*'[^']*)*'[^']*$");
        let (out, root) = intersect(&g, x, &odd_quotes);
        assert!(out.derives(root, b"1'"));
        assert!(!out.derives(root, b"1"));
        assert!(!out.derives(root, b"1''"));
    }
}
