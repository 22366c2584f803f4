//! Property-based equivalence between the reference intersection
//! engine (`strtaint_grammar::intersect`) and the prepared engine
//! (`strtaint_grammar::prepared`): random CFGs crossed with random
//! regex DFAs must agree on emptiness, witness length, and the
//! language of the reconstructed intersection grammar, in both
//! early-exit and full query modes.

use proptest::prelude::*;

use strtaint_automata::{ClassDfa, Regex};
use strtaint_grammar::intersect::{intersect, is_intersection_empty, is_intersection_empty_with};
use strtaint_grammar::lang::{sample_strings, shortest_string};
use strtaint_grammar::prepared::{PreparedGrammar, QueryMode};
use strtaint_grammar::{Budget, Cfg, NtId, Symbol};

/// A small random grammar: literals, concatenations, alternations, and
/// an optional self-recursive wrap (same shape as tests/properties.rs).
fn grammar() -> impl Strategy<Value = (Cfg, NtId)> {
    let lit = prop_oneof![
        Just(b"a".to_vec()),
        Just(b"bb".to_vec()),
        Just(b"a'c".to_vec()),
        Just(b"12".to_vec()),
        Just(b"".to_vec()),
    ];
    (
        proptest::collection::vec(lit, 1..4),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(lits, recursive, wrap)| {
            let mut g = Cfg::new();
            let leaf = g.add_nonterminal("leaf");
            for l in &lits {
                g.add_literal_production(leaf, l);
            }
            let root = g.add_nonterminal("root");
            if wrap {
                let mut rhs = g.literal_symbols(b"[");
                rhs.push(Symbol::N(leaf));
                rhs.extend(g.literal_symbols(b"]"));
                g.add_production(root, rhs);
            } else {
                g.add_production(root, vec![Symbol::N(leaf)]);
            }
            if recursive {
                // root -> root leaf (left recursion)
                g.add_production(root, vec![Symbol::N(root), Symbol::N(leaf)]);
            }
            (g, root)
        })
}

/// Random byte strings mixing pattern-relevant and arbitrary bytes.
fn byte_string() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        Just(b'a'),
        Just(b'b'),
        Just(b'c'),
        Just(b'\''),
        Just(b'0'),
        Just(b'9'),
        Just(b'['),
        Just(b']'),
        Just(b'z'),
        Just(0u8),
        Just(0xffu8),
    ];
    proptest::collection::vec(byte, 0..12)
}

/// Regexes covering empty-ish, universal-ish, and structured patterns.
/// The last has more than 64 DFA states, so the prepared engine's bit
/// rows span two words.
fn pattern() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("'"),
        Just("a"),
        Just("[ab]*"),
        Just("a'c"),
        Just("[0-9][0-9]*"),
        Just("\\[a*\\]"),
        Just("zzz"),
        Just(WIDE),
    ]
}

/// A pattern whose minimal DFA has more than 64 states.
const WIDE: &str = "^[\\[\\]ab']{0,70}c";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prepared_agrees_with_naive((g, root) in grammar(), pat in pattern()) {
        let dfa = Regex::new(pat).unwrap().match_dfa();
        let classes = ClassDfa::new(&dfa);
        let budget = Budget::unlimited();
        let prep = PreparedGrammar::new(&g, root);

        // Fuel: both engines charge one unit per discovery attempt and
        // per worklist pop, so the full fixpoints draw the same fuel.
        let (naive_fuel, prep_fuel) = (Budget::new(None, Some(u64::MAX), None), Budget::new(None, Some(u64::MAX), None));
        is_intersection_empty_with(&g, root, &dfa, &naive_fuel).expect("ample fuel");
        let full = prep.query(&classes, &prep_fuel, QueryMode::Full).expect("ample fuel");
        prop_assert_eq!(naive_fuel.fuel_left(), prep_fuel.fuel_left(), "pattern {}", pat);
        prop_assert_eq!(full.charged(), u64::MAX - prep_fuel.fuel_left().unwrap());

        // Emptiness: early-exit prepared query vs the naive engine.
        let naive_empty = is_intersection_empty(&g, root, &dfa);
        let mut ix = prep
            .query(&classes, &budget, QueryMode::EarlyExit)
            .expect("unlimited budget");
        prop_assert_eq!(ix.is_empty(), naive_empty, "pattern {}", pat);

        // Witness: both engines must find one iff nonempty, and both
        // produce the *canonical* (length, lexicographic)-minimal
        // string — so the bytes agree exactly, not just the lengths.
        // The query cache depends on this: replayed witness bytes must
        // be indistinguishable from recomputed ones.
        let naive_witness = {
            let (gx, rx) = intersect(&g, root, &dfa);
            shortest_string(&gx, rx)
        };
        let prep_witness = ix.witness(&budget).expect("unlimited budget");
        prop_assert_eq!(&naive_witness, &prep_witness, "pattern {}", pat);
        if let Some(pw) = &prep_witness {
            prop_assert!(g.derives(root, pw), "witness {:?} not derivable", pw);
            prop_assert!(dfa.accepts(pw), "witness {:?} rejected by DFA", pw);
        }
    }

    /// Lazy witness extraction: an early-exited query resumed on
    /// demand (`witness()` after `is_empty()`) must produce the same
    /// canonical bytes as an eager full-mode run — and a query used
    /// only for its emptiness answer must perform zero completions.
    #[test]
    fn lazy_witness_matches_eager((g, root) in grammar(), pat in pattern()) {
        let dfa = Regex::new(pat).unwrap().match_dfa();
        let classes = ClassDfa::new(&dfa);
        let budget = Budget::unlimited();
        let prep = PreparedGrammar::new(&g, root);

        // Lazy path: decide emptiness first, extract only if needed —
        // exactly the reporting-hotspot discipline of the checker.
        let mut lazy = prep
            .query(&classes, &budget, QueryMode::EarlyExit)
            .expect("unlimited budget");
        let lazy_witness = if lazy.is_empty() {
            // Non-reporting: emptiness alone must not resume the
            // fixpoint (zero `complete()` calls).
            prop_assert_eq!(lazy.completions(), 0, "pattern {}", pat);
            None
        } else {
            lazy.witness(&budget).expect("unlimited budget")
        };

        // Eager path: run the full fixpoint up front, then extract.
        let mut eager = prep
            .query(&classes, &budget, QueryMode::Full)
            .expect("unlimited budget");
        let eager_witness = eager.witness(&budget).expect("unlimited budget");

        prop_assert_eq!(&lazy_witness, &eager_witness, "pattern {}", pat);
        prop_assert_eq!(lazy.is_empty(), lazy_witness.is_none());
    }

    #[test]
    fn full_mode_reconstruction_is_exact((g, root) in grammar(), pat in pattern()) {
        let dfa = Regex::new(pat).unwrap().match_dfa();
        let classes = ClassDfa::new(&dfa);
        let budget = Budget::unlimited();
        let prep = PreparedGrammar::new(&g, root);

        let mut ix = prep
            .query(&classes, &budget, QueryMode::Full)
            .expect("unlimited budget");
        prop_assert!(!ix.exited_early());
        let (out, new_root) = ix.grammar(&budget).expect("unlimited budget");
        // The reconstructed grammar recognizes exactly L(g) ∩ L(dfa)
        // on samples from g.
        for s in sample_strings(&g, root, 10, 16) {
            prop_assert_eq!(out.derives(new_root, &s), dfa.accepts(&s), "{:?}", s);
        }
        prop_assert_eq!(out.is_empty_language(new_root), ix.is_empty());
    }

    #[test]
    fn early_exit_matches_full_emptiness((g, root) in grammar(), pat in pattern()) {
        let dfa = Regex::new(pat).unwrap().match_dfa();
        let classes = ClassDfa::new(&dfa);
        let budget = Budget::unlimited();
        let prep = PreparedGrammar::new(&g, root);

        let early = prep
            .query(&classes, &budget, QueryMode::EarlyExit)
            .expect("unlimited budget");
        let full = prep
            .query(&classes, &budget, QueryMode::Full)
            .expect("unlimited budget");
        prop_assert_eq!(early.is_empty(), full.is_empty());
        // An early exit never does more work than the full run.
        prop_assert!(early.triples() <= full.triples());
    }

    #[test]
    fn class_dfa_steps_like_dfa(pat in pattern(), bytes in byte_string()) {
        let dfa = Regex::new(pat).unwrap().match_dfa();
        let classes = ClassDfa::new(&dfa);
        prop_assert_eq!(classes.accepts(&bytes), dfa.accepts(&bytes));
    }
}

/// `root → root leaf | [ leaf ]`, `leaf → a | bb | a'c`, with `leaf`
/// tainted: the left-recursive shape of [`grammar`], fixed.
fn recursive_grammar() -> (Cfg, NtId) {
    let mut g = Cfg::new();
    let leaf = g.add_nonterminal("leaf");
    g.set_taint(leaf, strtaint_grammar::Taint::DIRECT);
    for l in [&b"a"[..], b"bb", b"a'c"] {
        g.add_literal_production(leaf, l);
    }
    let root = g.add_nonterminal("root");
    let mut rhs = g.literal_symbols(b"[");
    rhs.push(Symbol::N(leaf));
    rhs.extend(g.literal_symbols(b"]"));
    g.add_production(root, rhs);
    g.add_production(root, vec![Symbol::N(root), Symbol::N(leaf)]);
    (g, root)
}

/// `A → ( A ) | x`: balanced parentheses around one `x`.
fn paren_grammar() -> (Cfg, NtId) {
    let mut g = Cfg::new();
    let a = g.add_nonterminal("A");
    g.add_production(a, vec![Symbol::T(b'('), Symbol::N(a), Symbol::T(b')')]);
    g.add_literal_production(a, b"x");
    (g, a)
}

/// Every nonterminal of `g` in id order with its name, taint and
/// productions in order.
fn dump(g: &Cfg) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for x in g.nonterminals() {
        write!(s, "{x} {} {}:", g.name(x), g.taint(x)).unwrap();
        for rhs in g.productions(x) {
            s.push_str(" |");
            for sym in rhs {
                write!(s, " {sym}").unwrap();
            }
        }
        s.push('\n');
    }
    s
}

/// 64-bit FNV-1a.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The reconstructed product grammar is a pure function of the
/// realized set and the discovery schedule: its nonterminal numbering,
/// names, taints and production order are pinned here, per (grammar,
/// pattern), as (nonterminals, productions, FNV-1a of the dump). One
/// pattern's DFA has more than 64 states, so its bit rows span two
/// words. The naive engine orders productions differently, so it cannot
/// serve as this reference.
#[test]
fn product_grammar_is_pinned() {
    type Case = (
        &'static str,
        fn() -> (Cfg, NtId),
        &'static str,
        (usize, usize, u64),
    );
    let cases: [Case; 6] = [
        ("paren", paren_grammar, ".*", (3, 4, 0x872f714eeb715f8e)),
        (
            "paren",
            paren_grammar,
            "^\\(\\(.*$",
            (13, 16, 0xffbc6cb2985edb79),
        ),
        (
            "recursive",
            recursive_grammar,
            "a'c",
            (32, 56, 0xb87942201599a0f5),
        ),
        (
            "recursive",
            recursive_grammar,
            "'",
            (12, 19, 0xa948074c922ec984),
        ),
        (
            "recursive",
            recursive_grammar,
            "^\\[bb\\]a",
            (35, 56, 0x7bff647ef621347b),
        ),
        (
            "recursive",
            recursive_grammar,
            WIDE,
            (2984, 7690, 0x75e2fa19ae75fde0),
        ),
    ];
    let budget = Budget::unlimited();
    for (name, make, pat, want) in cases {
        let (g, root) = make();
        let classes = ClassDfa::new(&Regex::new(pat).unwrap().match_dfa());
        let prep = PreparedGrammar::new(&g, root);
        for mode in [QueryMode::EarlyExit, QueryMode::Full] {
            let mut ix = prep
                .query(&classes, &budget, mode)
                .expect("unlimited budget");
            let (out, _) = ix.grammar(&budget).expect("unlimited budget");
            let text = dump(&out);
            let got = (out.num_nonterminals(), out.num_productions(), fnv(&text));
            assert_eq!(got, want, "{name} ∩ {pat} [{mode:?}]:\n{text}");
        }
    }
    let wide = ClassDfa::new(&Regex::new(WIDE).unwrap().match_dfa());
    assert!(wide.num_states() > 64, "two-word rows are exercised");
}
