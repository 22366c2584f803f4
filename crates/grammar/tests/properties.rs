//! Property-based tests of the grammar algebra (normalization,
//! intersection, image) against membership oracles.

use proptest::prelude::*;

use strtaint_automata::fst::builders;
use strtaint_automata::Regex;
use strtaint_grammar::image::image;
use strtaint_grammar::intersect::{intersect, is_intersection_empty};
use strtaint_grammar::lang::{sample_strings, shortest_string};
use strtaint_grammar::normal::{is_normalized, normalize};
use strtaint_grammar::{Cfg, NtId, Symbol};

/// A small random grammar: literals, concatenations, alternations, and
/// an optional self-recursive wrap.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normalization_preserves_membership((g, root) in grammar()) {
        let n = normalize(&g);
        prop_assert!(is_normalized(&n));
        for s in sample_strings(&g, root, 10, 12) {
            prop_assert!(n.derives(root, &s), "{:?}", s);
        }
        // And conversely on samples of the normalized grammar.
        for s in sample_strings(&n, root, 10, 12) {
            prop_assert!(g.derives(root, &s), "{:?}", s);
        }
    }

    #[test]
    fn intersection_is_exact((g, root) in grammar()) {
        let dfa = Regex::new("'").unwrap().match_dfa(); // contains a quote
        let (out, new_root) = intersect(&g, root, &dfa);
        for s in sample_strings(&g, root, 10, 16) {
            let expected = dfa.accepts(&s);
            prop_assert_eq!(out.derives(new_root, &s), expected, "{:?}", s);
        }
        // Emptiness agrees with the constructed grammar.
        prop_assert_eq!(
            is_intersection_empty(&g, root, &dfa),
            out.is_empty_language(new_root)
        );
    }

    #[test]
    fn image_agrees_with_transduction((g, root) in grammar()) {
        let fst = builders::addslashes();
        let (out, new_root) = image(&g, root, &fst);
        for s in sample_strings(&g, root, 10, 12) {
            let expected = fst.transduce_unique(&s).expect("addslashes is a function");
            prop_assert!(out.derives(new_root, &expected), "{:?} -> {:?}", s, expected);
        }
    }

    #[test]
    fn shortest_string_is_derivable_and_minimal((g, root) in grammar()) {
        if let Some(w) = shortest_string(&g, root) {
            prop_assert!(g.derives(root, &w));
            for s in sample_strings(&g, root, 10, 16) {
                prop_assert!(s.len() >= w.len(), "{:?} shorter than witness {:?}", s, w);
            }
        } else {
            prop_assert!(g.is_empty_language(root));
        }
    }

    #[test]
    fn trim_preserves_language_and_taint((g, root) in grammar()) {
        let (t, new_root) = g.trimmed(root);
        for s in sample_strings(&g, root, 10, 12) {
            prop_assert!(t.derives(new_root, &s));
        }
        prop_assert!(t.num_productions() <= g.num_productions());
    }

    #[test]
    fn import_roundtrip((g, root) in grammar()) {
        let mut host = Cfg::new();
        host.literal_nonterminal("unrelated", b"zzz");
        let new_root = host.import_from(&g, root);
        for s in sample_strings(&g, root, 10, 12) {
            prop_assert!(host.derives(new_root, &s));
        }
    }
}
