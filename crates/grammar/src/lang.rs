//! Language-level queries on grammars: finiteness, shortest strings,
//! bounded enumeration.
//!
//! The analysis uses these for dynamic-include resolution (the paper §4
//! intersects the include argument's grammar with the filesystem layout
//! and enumerates the resulting *finite* language) and for attaching a
//! witness string to every bug report.

use std::collections::HashSet;

use crate::cfg::Cfg;
use crate::csr::Csr;
use crate::normal::{Normal, Occurrences};
use crate::symbol::{NtId, Symbol};

/// Returns `true` if the language of `root` is infinite.
///
/// A trimmed grammar derives infinitely many strings iff some
/// nonterminal `X` in a recursive cycle can pump nonempty material:
/// there is a production `X → u Y v` with `Y` in `X`'s strongly
/// connected component and `u v` able to derive a nonempty string. A
/// bare cycle that only threads epsilon (which arises when a transducer
/// image erases all terminals) does *not* make the language infinite.
pub fn is_infinite(g: &Cfg, root: NtId) -> bool {
    let (t, _) = g.trimmed(root);
    let n = t.num_nonterminals();
    if n == 0 {
        return false;
    }
    // nonempty[X]: X derives a string of length >= 1. In a trimmed
    // grammar every nonterminal is productive, so a production with a
    // terminal or a nonempty nonterminal suffices.
    let mut nonempty = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for (lhs, rhs) in t.iter_productions() {
            if nonempty[lhs.index()] {
                continue;
            }
            let any = rhs.iter().any(|s| match s {
                Symbol::T(_) => true,
                Symbol::N(id) => nonempty[id.index()],
            });
            if any {
                nonempty[lhs.index()] = true;
                changed = true;
            }
        }
    }
    let edges = Csr::from_rows(n, |x, out| {
        let prods = t.productions(NtId(x));
        out.extend(prods.iter().flatten().filter_map(|s| match s {
            Symbol::N(y) => Some(y.0),
            Symbol::T(_) => None,
        }));
    });
    let scc = edges.components().of;
    for (lhs, rhs) in t.iter_productions() {
        for (i, s) in rhs.iter().enumerate() {
            let Symbol::N(y) = s else { continue };
            if scc[lhs.index()] != scc[y.index()] {
                continue;
            }
            // Pumpable if any sibling symbol yields nonempty material.
            let fat = rhs.iter().enumerate().any(|(j, sj)| {
                j != i
                    && match sj {
                        Symbol::T(_) => true,
                        Symbol::N(z) => nonempty[z.index()],
                    }
            });
            if fat {
                return true;
            }
        }
    }
    false
}

/// Computes the **canonical** shortest string derivable from `root`,
/// if any: the (length, lexicographic) minimum of the language.
///
/// Used for witness strings in bug reports. Returns `None` for an empty
/// language. The lexicographic tie-break makes the result a function of
/// the *language* alone, not of the grammar that presents it — the
/// naive and prepared intersection engines build structurally different
/// grammars for the same intersection, and memoized verdicts replay
/// witness bytes verbatim, so report bytes stay identical across all of
/// them only because every path extracts this same canonical string.
///
/// Runs the shared shortest-derivation kernel (see `shortest.rs`) over
/// the trimmed, binary-normalized grammar with a one-state automaton —
/// the same kernel that extracts intersection witnesses.
pub fn shortest_string(g: &Cfg, root: NtId) -> Option<Vec<u8>> {
    let norm = Normal::new(g, root);
    crate::shortest::canonical_free(&norm, &Occurrences::new(&norm), &crate::shortest::OneState)
}

/// Enumerates the full (finite) language of `root`, up to `max_count`
/// strings.
///
/// Returns `None` if the language is infinite or has more than
/// `max_count` strings. Used to resolve dynamic includes (paper §4).
pub fn bounded_language(g: &Cfg, root: NtId, max_count: usize) -> Option<Vec<Vec<u8>>> {
    if is_infinite(g, root) {
        return None;
    }
    let (t, new_root) = g.trimmed(root);
    // Fixpoint enumeration: grammar cycles may exist even for a finite
    // language (e.g. unit-production cycles left by a transducer image),
    // so sets are grown monotonically until stable.
    let n = t.num_nonterminals();
    let mut sets: Vec<HashSet<Vec<u8>>> = vec![HashSet::new(); n];
    loop {
        let mut changed = false;
        for (lhs, rhs) in t.iter_productions() {
            let mut partial: Vec<Vec<u8>> = vec![Vec::new()];
            let mut ok = true;
            for s in rhs {
                match s {
                    Symbol::T(b) => {
                        for p in partial.iter_mut() {
                            p.push(*b);
                        }
                    }
                    Symbol::N(sub) => {
                        let subs = &sets[sub.index()];
                        if subs.is_empty() {
                            ok = false;
                            break;
                        }
                        let mut next = Vec::new();
                        for p in &partial {
                            for s in subs {
                                let mut w = p.clone();
                                w.extend_from_slice(s);
                                next.push(w);
                                if next.len() > max_count {
                                    return None;
                                }
                            }
                        }
                        partial = next;
                    }
                }
            }
            if !ok {
                continue;
            }
            for w in partial {
                if sets[lhs.index()].insert(w) {
                    changed = true;
                }
            }
            if sets[lhs.index()].len() > max_count {
                return None;
            }
        }
        if !changed {
            break;
        }
    }
    let mut v: Vec<Vec<u8>> = sets[new_root.index()].iter().cloned().collect();
    v.sort();
    v.dedup();
    Some(v)
}

/// Enumerates up to `max_count` strings of length at most `max_len`
/// derivable from `root`, even when the language is infinite.
///
/// Breadth-first over sentential forms; intended for tests and for
/// sampling witness strings.
pub fn sample_strings(g: &Cfg, root: NtId, max_len: usize, max_count: usize) -> Vec<Vec<u8>> {
    use std::collections::VecDeque;
    let mut results: Vec<Vec<u8>> = Vec::new();
    let mut seen: HashSet<Vec<Symbol>> = HashSet::new();
    let mut queue: VecDeque<Vec<Symbol>> = VecDeque::new();
    queue.push_back(vec![Symbol::N(root)]);
    let budget = max_count * 200 + 1000; // exploration cap
    let mut explored = 0usize;
    while let Some(form) = queue.pop_front() {
        explored += 1;
        if explored > budget || results.len() >= max_count {
            break;
        }
        // Count terminals; prune overly long forms.
        let terminal_len = form.iter().filter(|s| matches!(s, Symbol::T(_))).count();
        if terminal_len > max_len {
            continue;
        }
        // Find leftmost nonterminal.
        match form.iter().position(|s| matches!(s, Symbol::N(_))) {
            None => {
                let s: Vec<u8> = form
                    .iter()
                    .map(|s| s.as_terminal().expect("all terminals"))
                    .collect();
                if !results.contains(&s) {
                    results.push(s);
                }
            }
            Some(pos) => {
                let Symbol::N(id) = form[pos] else { unreachable!() };
                for rhs in g.productions(id) {
                    // A form queued at or past the pop budget is never
                    // popped, and `queue.len() + explored` never
                    // decreases: stop pushing.
                    if queue.len() + explored >= budget {
                        break;
                    }
                    let mut next = Vec::with_capacity(form.len() + rhs.len());
                    next.extend_from_slice(&form[..pos]);
                    next.extend_from_slice(rhs);
                    next.extend_from_slice(&form[pos + 1..]);
                    if next.len() <= max_len * 2 + 16 && seen.insert(next.clone()) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol as S;

    fn simple() -> (Cfg, NtId) {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_literal_production(a, b"one");
        g.add_literal_production(a, b"two22");
        (g, a)
    }

    #[test]
    fn finite_language_detected() {
        let (g, a) = simple();
        assert!(!is_infinite(&g, a));
        let lang = bounded_language(&g, a, 10).unwrap();
        assert_eq!(lang, vec![b"one".to_vec(), b"two22".to_vec()]);
    }

    #[test]
    fn infinite_language_detected() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'x'), S::N(a)]);
        g.add_production(a, vec![]);
        assert!(is_infinite(&g, a));
        assert!(bounded_language(&g, a, 100).is_none());
    }

    #[test]
    fn unproductive_cycles_do_not_count() {
        // A -> 'x' | B; B -> B  (B is unproductive, cycle is dead)
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        let b = g.add_nonterminal("B");
        g.add_literal_production(a, b"x");
        g.add_production(a, vec![S::N(b)]);
        g.add_production(b, vec![S::N(b)]);
        assert!(!is_infinite(&g, a));
        assert_eq!(bounded_language(&g, a, 10).unwrap(), vec![b"x".to_vec()]);
    }

    #[test]
    fn shortest_string_picks_minimum() {
        let (g, a) = simple();
        assert_eq!(shortest_string(&g, a), Some(b"one".to_vec()));
        let mut g2 = Cfg::new();
        let b = g2.add_nonterminal("B");
        g2.add_production(b, vec![S::N(b)]); // empty language
        assert_eq!(shortest_string(&g2, b), None);
    }

    #[test]
    fn shortest_string_through_recursion() {
        // A -> '(' A ')' | ε  — shortest is ""
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'('), S::N(a), S::T(b')')]);
        g.add_production(a, vec![]);
        assert_eq!(shortest_string(&g, a), Some(Vec::new()));
    }

    #[test]
    fn bounded_language_respects_cap() {
        // 2^4 = 16 strings
        let mut g = Cfg::new();
        let bit = g.add_nonterminal("bit");
        g.add_literal_production(bit, b"0");
        g.add_literal_production(bit, b"1");
        let word = g.add_nonterminal("word");
        g.add_production(word, vec![S::N(bit), S::N(bit), S::N(bit), S::N(bit)]);
        assert_eq!(bounded_language(&g, word, 16).unwrap().len(), 16);
        assert!(bounded_language(&g, word, 15).is_none());
    }

    #[test]
    fn sampling_infinite_language() {
        let mut g = Cfg::new();
        let a = g.add_nonterminal("A");
        g.add_production(a, vec![S::T(b'x'), S::N(a)]);
        g.add_production(a, vec![]);
        let samples = sample_strings(&g, a, 5, 4);
        assert!(samples.contains(&b"".to_vec()));
        assert!(samples.contains(&b"x".to_vec()));
        assert!(samples.len() >= 3);
    }
}
