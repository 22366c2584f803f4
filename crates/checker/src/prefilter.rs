//! Zero-dependency Aho–Corasick prefilter for attack steps (the C4
//! attack-fragment check).
//!
//! C4 asks whether `L(G, x) ∩ L(Σ* f Σ*)` is nonempty for any attack
//! fragment `f` (case-insensitively). The exact answer comes from a
//! Bar-Hillel intersection, which is the single most expensive query of
//! the cascade. This module answers a cheaper question first:
//!
//! > Can *any* fragment even be spelled with the bytes the grammar can
//! > realize?
//!
//! Every string of `L(G, x)` is drawn from the prepared grammar's
//! realized terminal alphabet ([`PreparedGrammar::alphabet`]). If no
//! fragment can be written using only (case-folds of) those bytes, then
//! no string of the language contains a fragment, the intersection is
//! provably empty, and the engine query can be skipped outright.
//!
//! Soundness: the prefilter may only ever *prove absence*. A negative
//! [`Prefilter::any_spellable`] answer is a proof that the intersection
//! is empty (alphabet closure is an over-approximation of the
//! language); a positive answer proves nothing and falls through to the
//! exact engine. The prefilter therefore can never introduce a finding,
//! and can never suppress one.
//!
//! The patterns are the attack step's own fragment list
//! (`strtaint_policy::StepAction::Attack`) — the list its exact
//! automaton is built from — so the filter and the automaton cannot
//! drift apart. The full Aho–Corasick scan
//! ([`Prefilter::contains_match`]) backs a debug assertion that every
//! C4 witness really contains a fragment, and is cross-validated
//! against the DFA in tests.
//!
//! [`PreparedGrammar::alphabet`]: strtaint_grammar::prepared::PreparedGrammar::alphabet

use std::collections::VecDeque;

/// Sentinel for a missing trie edge during construction.
const NO_EDGE: u32 = u32::MAX;

/// Case-insensitive multi-pattern matcher over an attack step's
/// fragments.
///
/// Built once per checker; both operations are allocation-free.
#[derive(Debug, Clone)]
pub(crate) struct Prefilter {
    /// Dense transition function of the Aho–Corasick automaton (goto
    /// edges with failure links pre-resolved), indexed by
    /// `[state][folded byte]`. Tiny: one state per pattern byte.
    delta: Vec<[u32; 256]>,
    /// States at which some fragment has been fully matched (output
    /// states, closed under failure links).
    accepting: Vec<bool>,
    /// The case-folded patterns, kept for the spellability test.
    fragments: Vec<Vec<u8>>,
}

impl Prefilter {
    pub(crate) fn new(fragments: &[&[u8]]) -> Self {
        let fragments: Vec<Vec<u8>> = fragments.iter().map(|f| f.to_ascii_lowercase()).collect();

        // Trie over the folded patterns.
        let mut goto_fn: Vec<[u32; 256]> = vec![[NO_EDGE; 256]];
        let mut accepting = vec![false];
        for f in &fragments {
            let mut s = 0usize;
            for &b in f {
                let t = goto_fn[s][b as usize];
                s = if t == NO_EDGE {
                    goto_fn.push([NO_EDGE; 256]);
                    accepting.push(false);
                    let id = (goto_fn.len() - 1) as u32;
                    goto_fn[s][b as usize] = id;
                    id as usize
                } else {
                    t as usize
                };
            }
            accepting[s] = true;
        }

        // Breadth-first failure-link computation, resolving missing
        // edges into a total transition function as we go. BFS order
        // guarantees `delta[fail(s)]` is final before `s` is expanded.
        let mut fail = vec![0u32; goto_fn.len()];
        let mut delta = goto_fn.clone();
        let mut queue = VecDeque::new();
        for b in 0..256 {
            let t = goto_fn[0][b];
            if t == NO_EDGE {
                delta[0][b] = 0;
            } else if !queue.contains(&t) {
                fail[t as usize] = 0;
                queue.push_back(t);
            }
        }
        while let Some(s) = queue.pop_front() {
            let s = s as usize;
            let f = fail[s] as usize;
            if accepting[f] {
                accepting[s] = true;
            }
            for b in 0..256 {
                let t = goto_fn[s][b];
                if t == NO_EDGE {
                    delta[s][b] = delta[f][b];
                } else {
                    fail[t as usize] = delta[f][b];
                    queue.push_back(t);
                }
            }
        }

        Prefilter {
            delta,
            accepting,
            fragments,
        }
    }

    /// `true` iff `text` contains some attack fragment
    /// (case-insensitively). Linear single-pass scan; agrees with the
    /// step's automaton (`strtaint_policy::dfas::attack_fragments`)
    /// by construction (verified in tests).
    pub(crate) fn contains_match(&self, text: &[u8]) -> bool {
        let mut s = 0usize;
        for &b in text {
            s = self.delta[s][b.to_ascii_lowercase() as usize] as usize;
            if self.accepting[s] {
                return true;
            }
        }
        false
    }

    /// `true` iff some fragment can be spelled using only bytes of
    /// `alphabet` (after case folding).
    ///
    /// When this returns `false`, no string over `alphabet` — hence no
    /// string of a language realized over it — contains a fragment, so
    /// the C4 intersection is empty without running the engine.
    pub(crate) fn any_spellable(&self, alphabet: &[u8]) -> bool {
        let mut present = [false; 256];
        for &b in alphabet {
            present[b.to_ascii_lowercase() as usize] = true;
        }
        self.fragments
            .iter()
            .any(|f| f.iter().all(|&b| present[b as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strtaint_policy::dfas::{attack_fragments, ATTACK_FRAGMENTS};

    #[test]
    fn scan_agrees_with_exact_dfa() {
        let pf = Prefilter::new(ATTACK_FRAGMENTS);
        let dfa = attack_fragments(ATTACK_FRAGMENTS);
        let samples: &[&[u8]] = &[
            b"",
            b"plain value",
            b"12345",
            b"1'; DROP TABLE unp_user; --",
            b"1 union select password",
            b"DrOp TaBlE x",
            b"a-b",
            b"--",
            b"- -",
            b"x' or 'a'='a",
            b" OR ",
            b"nor mal",
            b"/*comment*/",
            b"/ *",
            b"a;b",
            b"#",
            b"drop tabl",
            b"union selec",
            b"UNION SELECT",
        ];
        for s in samples {
            assert_eq!(
                pf.contains_match(s),
                dfa.accepts(s),
                "prefilter vs DFA on {:?}",
                String::from_utf8_lossy(s)
            );
        }
    }

    #[test]
    fn overlapping_and_boundary_matches() {
        let pf = Prefilter::new(ATTACK_FRAGMENTS);
        // Fragment found mid-string, overlapping a near-miss prefix.
        assert!(pf.contains_match(b"drop drop table"));
        // Suffix-only match.
        assert!(pf.contains_match(b"xxxxx;"));
        // One-byte fragments.
        assert!(pf.contains_match(b"#"));
        assert!(!pf.contains_match(b"ab"));
    }

    #[test]
    fn spellability_is_an_alphabet_overapproximation() {
        let pf = Prefilter::new(ATTACK_FRAGMENTS);
        // Digits alone cannot spell any fragment.
        assert!(!pf.any_spellable(b"0123456789"));
        // Any alphabet containing ';' can spell the ';' fragment.
        assert!(pf.any_spellable(b"0123456789;"));
        // "--" needs only '-'.
        assert!(pf.any_spellable(b"-"));
        // Case folding: upper-case letters spell lower-folded patterns.
        assert!(pf.any_spellable(b"DROPTABLE "));
        // Letters without space/punctuation cannot spell the
        // multi-word fragments, '--', ';', '#', or '/*'.
        assert!(!pf.any_spellable(b"abcdefghijklmnopqrstuvwxyz"));
    }

    #[test]
    fn unspellable_alphabet_implies_no_match() {
        // The soundness direction: if `any_spellable(alpha)` is false,
        // no string over `alpha` may match. Exhaustively check short
        // strings over a small unspellable alphabet.
        let pf = Prefilter::new(ATTACK_FRAGMENTS);
        let alpha = b"0123456789";
        assert!(!pf.any_spellable(alpha));
        let dfa = attack_fragments(ATTACK_FRAGMENTS);
        let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
        while let Some(s) = stack.pop() {
            assert!(!pf.contains_match(&s));
            assert!(!dfa.accepts(&s));
            if s.len() < 3 {
                for &b in alpha {
                    let mut t = s.clone();
                    t.push(b);
                    stack.push(t);
                }
            }
        }
    }
}
