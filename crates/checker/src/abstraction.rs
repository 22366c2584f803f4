//! Abstraction of labeled subgrammars out of the query grammar
//! (paper §3.2: "abstracting the subgrammars that represent untrusted
//! substrings out of the larger CFG, determining the syntactic
//! contexts of those subgrammars").

use std::collections::HashMap;

use strtaint_grammar::csr::Csr;
use strtaint_grammar::{Cfg, NtId, Symbol};
use strtaint_sql::VAR_MARKER;

/// Byte used to neutralize stray [`VAR_MARKER`] terminals coming from
/// *other* (Σ*-like) subgrammars when one nonterminal is marked; the
/// substitution is parity-neutral for the quote-tracking automata.
const MARKER_SUBSTITUTE: u8 = 0x1b;

/// Returns the labeled nonterminals reachable from `root` that are
/// *maximal*: not properly contained in another labeled subgrammar.
///
/// Checking only maximal labeled nonterminals is sound: an inner
/// labeled nonterminal derives substrings of its enclosing labeled
/// nonterminal, so the enclosing check subsumes it.
///
/// Runs in time linear in the subgraph reachable from `root` (one
/// Tarjan SCC pass plus one pass over the components, callers first,
/// marking those below a labeled one) — transducer images can leave
/// hundreds of labeled copies, so a per-label reachability walk would
/// dominate checking time.
pub fn maximal_labeled(cfg: &Cfg, root: NtId) -> Vec<NtId> {
    let nodes = cfg.reachable_list(root);
    let labeled: Vec<NtId> = nodes
        .iter()
        .copied()
        .filter(|&id| !cfg.taint(id).is_empty())
        .collect();
    if labeled.len() <= 1 {
        return labeled;
    }
    // Dense node numbers: `slot[n]` is one more than n's position in
    // `nodes` (0 when unreachable), so the zeroed table costs no page
    // the walk does not touch.
    let mut slot = vec![0u32; cfg.num_nonterminals()];
    for (i, &n) in nodes.iter().enumerate() {
        slot[n.index()] = i as u32 + 1;
    }
    let index = |n: NtId| slot[n.index()] - 1;
    let succ = Csr::from_rows(nodes.len(), |i, out| {
        let prods = cfg.productions(nodes[i as usize]);
        out.extend(prods.iter().flatten().filter_map(|s| match s {
            Symbol::N(t) => Some(index(*t)),
            Symbol::T(_) => None,
        }));
    });
    let sccs = succ.components();
    let scc = |n: NtId| sccs.of[index(n) as usize] as usize;

    // Representative (smallest-id) labeled NT per SCC, if any.
    let mut rep: Vec<Option<NtId>> = vec![None; sccs.bounds.len() - 1];
    for &l in &labeled {
        let r = &mut rep[scc(l)];
        if r.is_none_or(|r| l < r) {
            *r = Some(l);
        }
    }
    // Marks the SCCs strictly below a labeled SCC in one pass, callers
    // before callees: an SCC that is labeled or already marked marks
    // every other SCC it has an edge into.
    let mut dominated = vec![false; rep.len()];
    for c in (0..rep.len()).rev() {
        if rep[c].is_none() && !dominated[c] {
            continue;
        }
        for &i in &sccs.members[sccs.bounds[c] as usize..sccs.bounds[c + 1] as usize] {
            for &j in succ.get(i) {
                let d = sccs.of[j as usize] as usize;
                if d != c {
                    dominated[d] = true;
                }
            }
        }
    }

    labeled
        .into_iter()
        .filter(|&x| {
            let c = scc(x);
            // Dropped if the SCC is strictly below a labeled SCC, or a
            // smaller-id labeled NT shares the SCC.
            !dominated[c] && rep[c] == Some(x)
        })
        .collect()
}

/// Builds the *marked grammar* for `x`: a copy of the grammar reachable
/// from `root` where every occurrence of `x` on a right-hand side is
/// replaced by the terminal [`VAR_MARKER`], and every nonterminal in
/// `replacements` is replaced by a fixed byte string (used to splice in
/// representative values for sibling tainted subgrammars).
///
/// Occurrences of the raw marker byte in ordinary terminals (possible
/// when a Σ* subgrammar is present) are substituted with a
/// parity-neutral byte so the context automata only ever see markers
/// that stand for `x`.
pub fn marked_grammar(
    cfg: &Cfg,
    root: NtId,
    x: NtId,
    replacements: &HashMap<NtId, Vec<u8>>,
) -> (Cfg, NtId) {
    // The reachable nonterminals in ascending id order; `slot[n]` is
    // one more than n's id in the copy, or 0 for `x`, the replaced
    // nonterminals and everything unreachable.
    let mut nodes = cfg.reachable_list(root);
    nodes.sort_unstable();
    let mut out = Cfg::new();
    let mut slot = vec![0u32; cfg.num_nonterminals()];
    for &id in &nodes {
        if id != x && !replacements.contains_key(&id) {
            slot[id.index()] = out.add_nonterminal(cfg.name(id)).0 + 1;
        }
    }
    // If the root itself is the marked nonterminal the whole query is
    // the tainted value: the marked grammar is a single marker.
    if x == root {
        let r = out.add_nonterminal(cfg.name(root));
        out.add_production(r, [Symbol::T(VAR_MARKER)]);
        return (out, r);
    }
    let mut new_rhs: Vec<Symbol> = Vec::new();
    for &lhs in &nodes {
        let Some(new_lhs) = slot[lhs.index()].checked_sub(1) else { continue };
        for rhs in cfg.productions(lhs) {
            new_rhs.clear();
            for &s in rhs {
                match s {
                    Symbol::T(VAR_MARKER) => new_rhs.push(Symbol::T(MARKER_SUBSTITUTE)),
                    Symbol::T(b) => new_rhs.push(Symbol::T(b)),
                    Symbol::N(id) => match slot[id.index()] {
                        0 if id == x => new_rhs.push(Symbol::T(VAR_MARKER)),
                        0 => new_rhs.extend(replacements[&id].iter().map(|&b| Symbol::T(b))),
                        n => new_rhs.push(Symbol::N(NtId(n - 1))),
                    },
                }
            }
            out.add_production(NtId(new_lhs), &new_rhs);
        }
    }
    let root = slot[root.index()]
        .checked_sub(1)
        .expect("the root is neither marked nor replaced");
    (out, NtId(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint_grammar::Taint;

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
