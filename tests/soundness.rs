//! Property-based soundness and invariant tests (Theorem 3.4 and
//! Theorem 3.1 at system level).

use proptest::prelude::*;

use strtaint::{analyze_page, Config, Vfs};
use strtaint_automata::{Dfa, Regex};
use strtaint_grammar::intersect::intersect;
use strtaint_grammar::lang::sample_strings;
use strtaint_grammar::{Cfg, Symbol, Taint};

fn page(src: &str) -> strtaint::PageReport {
    let mut vfs = Vfs::new();
    vfs.add("p.php", src);
    analyze_page(&vfs, "p.php", &Config::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: a raw GET parameter spliced into a query must be
    /// reported regardless of the surrounding constant SQL text.
    #[test]
    fn raw_source_always_reported(
        table in "[a-z]{1,8}",
        column in "[a-z]{1,8}",
        param in "[a-z]{1,8}",
    ) {
        let src = format!(
            "<?php\n$v = $_GET['{param}'];\n$DB->query(\"SELECT * FROM {table} WHERE {column}='$v'\");\n"
        );
        let r = page(&src);
        prop_assert!(!r.is_verified());
    }

    /// Precision: an anchored-numeric-checked parameter verifies in a
    /// quoted position, whatever the constant skeleton.
    #[test]
    fn checked_numeric_always_verifies(
        table in "[a-z]{1,8}",
        column in "[a-z]{1,8}",
    ) {
        let src = format!(
            "<?php\n$v = $_GET['x'];\nif (!preg_match('/^[0-9]+$/', $v)) {{ exit; }}\n$DB->query(\"SELECT * FROM {table} WHERE {column}='$v'\");\n"
        );
        let r = page(&src);
        prop_assert!(r.is_verified(), "{}", r);
    }

    /// Soundness of the grammar phase: every string of the generated
    /// query grammar must actually be producible by the program text
    /// skeleton — here, it must start with the constant prefix.
    #[test]
    fn grammar_respects_constant_skeleton(prefix in "[A-Z]{3,10}") {
        let src = format!(
            "<?php\n$v = $_GET['x'];\n$DB->query(\"{prefix} '$v'\");\n"
        );
        let mut vfs = Vfs::new();
        vfs.add("p.php", src);
        let analysis = strtaint_analysis::analyze(&vfs, "p.php", &Config::default()).unwrap();
        let root = analysis.hotspots[0].root;
        for s in sample_strings(&analysis.cfg, root, 30, 16) {
            prop_assert!(
                s.starts_with(prefix.as_bytes()),
                "{:?} lost the constant prefix {:?}", s, prefix
            );
        }
    }

    /// Theorem 3.1 at the API level: intersection preserves taint — a
    /// tainted sub-language that survives the filter is still labeled.
    #[test]
    fn intersection_preserves_taint(strings in prop::collection::vec("[a-z0-9']{0,6}", 1..6)) {
        let mut g = Cfg::new();
        let x = g.add_nonterminal("src");
        g.set_taint(x, Taint::DIRECT);
        for s in &strings {
            g.add_literal_production(x, s.as_bytes());
        }
        let root = g.add_nonterminal("root");
        let mut rhs = g.literal_symbols(b"v=");
        rhs.push(Symbol::N(x));
        g.add_production(root, rhs);
        let filter = Regex::new("[0-9]").unwrap().match_dfa();
        let (out, new_root) = intersect(&g, root, &filter);
        let survives = strings.iter().any(|s| s.bytes().any(|b| b.is_ascii_digit()));
        if survives {
            let labeled = out.labeled_nonterminals();
            prop_assert!(
                labeled.iter().any(|&id| out.taint(id).is_direct()
                    && !out.is_empty_language(id)),
                "direct label lost through intersection"
            );
        } else {
            prop_assert!(out.is_empty_language(new_root));
        }
    }

    /// The C1 automaton agrees with a direct character-count oracle on
    /// arbitrary inputs.
    #[test]
    fn odd_quote_dfa_matches_oracle(s in "[a-z'\\\\]{0,24}") {
        let d = strtaint_policy::dfas::odd_unescaped_quotes();
        let bytes = s.as_bytes();
        // Oracle: scan counting quotes not preceded by an unconsumed
        // backslash escape.
        let mut count = 0usize;
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'\'' => {
                    count += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        prop_assert_eq!(d.accepts(bytes), count % 2 == 1, "{}", s);
    }

    /// Regex-engine / automata cross-check: `matches` agrees with the
    /// determinized-minimized automaton.
    #[test]
    fn regex_dfa_agreement(input in "[a-c']{0,12}") {
        for pat in ["^[a-c]+$", "a.*c", "^(a|bb)*$", "'.*'"] {
            let re = Regex::new(pat).unwrap();
            let d = re.match_dfa();
            prop_assert_eq!(re.matches(input.as_bytes()), d.accepts(input.as_bytes()),
                "pattern {} on {:?}", pat, input);
        }
    }

    /// FST sanity: addslashes output never contains an unescaped quote
    /// (the property that makes it a sanitizer inside string literals).
    #[test]
    fn addslashes_output_never_has_lone_quote(input in "[ a-z'\"\\\\]{0,16}") {
        let f = strtaint_automata::fst::builders::addslashes();
        let out = f.transduce_unique(input.as_bytes()).unwrap();
        let d = strtaint_policy::dfas::contains_unescaped_quote();
        prop_assert!(!d.accepts(&out), "{:?} -> {:?}", input, out);
    }

    /// Baseline comparison: on pages where both run, the grammar-based
    /// analyzer never misses something the baseline finds on raw
    /// sources (the baseline's findings on *unsanitized* flows are a
    /// subset of ours).
    #[test]
    fn grammar_finds_what_baseline_finds_raw(param in "[a-z]{1,6}") {
        let src = format!(
            "<?php\n$v = $_GET['{param}'];\n$DB->query(\"SELECT * FROM t WHERE c='$v'\");\n"
        );
        let mut vfs = Vfs::new();
        vfs.add("p.php", src.clone());
        let base = strtaint_baseline::taint_analyze(&vfs, "p.php");
        let ours = analyze_page(&vfs, "p.php", &Config::default()).unwrap();
        if !base.findings.is_empty() {
            prop_assert!(!ours.is_verified());
        }
    }
}

/// Deterministic check of the intersection-emptiness/derives agreement
/// on a recursive grammar.
#[test]
fn intersection_agrees_with_membership() {
    let mut g = Cfg::new();
    let a = g.add_nonterminal("A");
    g.add_production(a, vec![Symbol::T(b'('), Symbol::N(a), Symbol::T(b')')]);
    g.add_literal_production(a, b"x");
    for pat in ["^\\(+x\\)+$", "^x$", "^[()]*$", "^\\(\\(x\\)\\)$"] {
        let d: Dfa = Regex::new(pat).unwrap().match_dfa();
        let (out, root) = intersect(&g, a, &d);
        for s in sample_strings(&g, a, 12, 24) {
            let expected = d.accepts(&s);
            assert_eq!(
                out.derives(root, &s),
                expected,
                "pattern {pat} on {:?}",
                String::from_utf8_lossy(&s)
            );
        }
    }
}
