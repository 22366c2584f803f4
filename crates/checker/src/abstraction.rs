//! Abstraction of labeled subgrammars out of the query grammar
//! (paper §3.2: "abstracting the subgrammars that represent untrusted
//! substrings out of the larger CFG, determining the syntactic
//! contexts of those subgrammars").

use std::collections::HashMap;

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
/// Tarjan SCC pass plus one walk marking the components below a
/// labeled one) — transducer images can leave hundreds of labeled
/// copies, so a per-label reachability walk would dominate checking
/// time.
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
    let index = |n: NtId| slot[n.index()] as usize - 1;
    let succ = Succ::new(&nodes, |n, out| {
        for s in cfg.productions(n).iter().flatten() {
            if let Symbol::N(t) = s {
                out.push(index(*t) as u32);
            }
        }
    });
    let scc = scc_ids(&succ);
    let num_sccs = scc.iter().copied().max().map(|m| m + 1).unwrap_or(0);

    // Representative (smallest-id) labeled NT per SCC, if any.
    let mut scc_label_rep: Vec<Option<NtId>> = vec![None; num_sccs];
    for &l in &labeled {
        let rep = &mut scc_label_rep[scc[index(l)]];
        if rep.map_or(true, |r| l < r) {
            *rep = Some(l);
        }
    }
    // Marks the SCCs strictly below a labeled SCC: walk every node
    // reachable from a labeled SCC; an edge into another SCC
    // dominates it.
    let mut dominated = vec![false; num_sccs];
    let mut seen: Vec<bool> = scc.iter().map(|&c| scc_label_rep[c].is_some()).collect();
    let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| seen[i]).collect();
    while let Some(i) = queue.pop() {
        for &j in succ.of(i) {
            let j = j as usize;
            if scc[j] != scc[i] {
                dominated[scc[j]] = true;
            }
            if !seen[j] {
                seen[j] = true;
                queue.push(j);
            }
        }
    }

    labeled
        .into_iter()
        .filter(|&x| {
            let c = scc[index(x)];
            // Dropped if the SCC is strictly below a labeled SCC, or a
            // smaller-id labeled NT shares the SCC.
            !dominated[c] && scc_label_rep[c] == Some(x)
        })
        .collect()
}

/// Deduplicated successor lists in one flat array: node `i`'s
/// successors, ascending, are `targets[offsets[i]..offsets[i + 1]]`.
struct Succ {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Succ {
    /// Successors of each of `nodes`, as `edges(node, out)` pushes them.
    fn new(nodes: &[NtId], mut edges: impl FnMut(NtId, &mut Vec<u32>)) -> Succ {
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let (mut targets, mut buf) = (Vec::new(), Vec::new());
        for &n in nodes {
            buf.clear();
            edges(n, &mut buf);
            buf.sort_unstable();
            buf.dedup();
            targets.extend_from_slice(&buf);
            offsets.push(targets.len());
        }
        Succ { offsets, targets }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Iterative Tarjan SCC over successor lists; returns a component id
/// per node.
fn scc_ids(succ: &Succ) -> Vec<usize> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if let Some(&w) = succ.of(v).get(*ci) {
                let w = w as usize;
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
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
    let reachable = cfg.reachable(root);
    let mut out = Cfg::new();
    let mut map: HashMap<NtId, NtId> = HashMap::new();
    for id in cfg.nonterminals() {
        if reachable[id.index()] && id != x && !replacements.contains_key(&id) {
            let n = out.add_nonterminal(cfg.name(id));
            map.insert(id, n);
        }
    }
    // If the root itself is the marked nonterminal the whole query is
    // the tainted value: the marked grammar is a single marker.
    if x == root {
        let r = out.add_nonterminal(cfg.name(root));
        out.add_production(r, vec![Symbol::T(VAR_MARKER)]);
        return (out, r);
    }
    for (lhs, rhs) in cfg.iter_productions() {
        let Some(&new_lhs) = map.get(&lhs) else { continue };
        let mut new_rhs: Vec<Symbol> = Vec::with_capacity(rhs.len());
        for s in rhs {
            match s {
                Symbol::T(b) if *b == VAR_MARKER => new_rhs.push(Symbol::T(MARKER_SUBSTITUTE)),
                Symbol::T(b) => new_rhs.push(Symbol::T(*b)),
                Symbol::N(id) if *id == x => new_rhs.push(Symbol::T(VAR_MARKER)),
                Symbol::N(id) => match replacements.get(id) {
                    Some(bytes) => {
                        new_rhs.extend(bytes.iter().map(|&b| Symbol::T(b)));
                    }
                    None => new_rhs.push(Symbol::N(map[id])),
                },
            }
        }
        out.add_production(new_lhs, new_rhs);
    }
    (out, map[&root])
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
