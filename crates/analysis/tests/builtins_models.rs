//! Behavior tests for the builtin function models: each category of
//! the spec catalog (paper §4: "specifications for 243 PHP functions")
//! must produce the right language and taint.

use strtaint_analysis::{analyze, Config, Vfs};
use strtaint_grammar::lang::{bounded_language, sample_strings};
use strtaint_grammar::NtId;

/// Analyzes a one-hotspot page and returns (cfg, hotspot root).
fn grammar_of(src: &str) -> (strtaint_grammar::Cfg, NtId) {
    let mut vfs = Vfs::new();
    vfs.add("p.php", src);
    let a = analyze(&vfs, "p.php", &Config::default()).unwrap();
    assert_eq!(a.hotspots.len(), 1, "warnings: {:?}", a.warnings);
    let root = a.hotspots[0].root;
    (a.cfg, root)
}

#[test]
fn identity_models() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . strval('abc'));"#);
    assert!(g.derives(root, b"Qabc"));
    assert!(!g.derives(root, b"Qx"));
}

#[test]
fn transducer_models_precise() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . addslashes("it's"));"#);
    assert_eq!(
        bounded_language(&g, root, 4).unwrap(),
        vec![b"Qit\\'s".to_vec()]
    );
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . strtoupper("ab1"));"#);
    assert!(g.derives(root, b"QAB1"));
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . nl2br("a\nb"));"#);
    assert!(g.derives(root, b"Qa<br />\nb"));
}

#[test]
fn rawurlencode_encodes_space_as_percent_20() {
    // PHP's rawurlencode follows RFC 3986; only urlencode maps ' ' to '+'.
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . rawurlencode("a b"));"#);
    assert!(g.derives(root, b"Qa%20b"));
    assert!(!g.derives(root, b"Qa+b"));
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . urlencode("a b"));"#);
    assert!(g.derives(root, b"Qa+b"));
    assert!(!g.derives(root, b"Qa%20b"));
}

#[test]
fn numeric_models() {
    for call in ["intval($_GET['x'])", "count($_GET['x'])", "strlen($_GET['x'])", "time()"] {
        let src = format!(r#"<?php $DB->query("Q" . {call});"#);
        let (g, root) = grammar_of(&src);
        assert!(g.derives(root, b"Q42"), "{call}");
        assert!(g.derives(root, b"Q-7"), "{call}");
        assert!(!g.derives(root, b"Qx"), "{call} admits non-numeric");
        assert!(!g.derives(root, b"Q1'"), "{call} admits quotes");
    }
}

#[test]
fn numeric_keeps_taint() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . intval($_GET['x']));"#);
    // Taint survives (the value is user-chosen) but the language is
    // numeric, so the checker will verify it.
    let labeled = g.labeled_nonterminals();
    let reach = g.reachable(root);
    assert!(
        labeled.iter().any(|&id| reach[id.index()]),
        "intval keeps the taint label"
    );
}

#[test]
fn hash_models() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . md5($_POST['pw']));"#);
    assert!(g.derives(root, b"Qd41d8cd98f00b204e9800998ecf8427e"));
    assert!(!g.derives(root, b"Q'"), "hex language has no quotes");
    assert!(!g.derives(root, b"QABC"), "lowercase hex only");
}

#[test]
fn base64_model() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . base64_encode($_GET['x']));"#);
    assert!(g.derives(root, b"QaGk="));
    assert!(!g.derives(root, b"Q'"));
}

#[test]
fn bool_model() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . is_numeric($_GET['x']));"#);
    let lang = bounded_language(&g, root, 4).unwrap();
    assert_eq!(lang, vec![b"Q".to_vec(), b"Q1".to_vec()]);
}

#[test]
fn const_empty_model() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . sort($a));"#);
    assert_eq!(bounded_language(&g, root, 4).unwrap(), vec![b"Q".to_vec()]);
}

#[test]
fn any_untainted_model() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . date('Y-m-d'));"#);
    assert!(g.derives(root, b"Q2026-07-05"));
    assert!(g.derives(root, b"Qanything"));
    let labeled = g.labeled_nonterminals();
    let reach = g.reachable(root);
    assert!(
        !labeled.iter().any(|&id| reach[id.index()]),
        "date() output is untainted"
    );
}

#[test]
fn any_keep_taint_model() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . substr($_GET['x'], 0, 4));"#);
    assert!(g.derives(root, b"Qwhatever"));
    let labeled = g.labeled_nonterminals();
    let reach = g.reachable(root);
    assert!(
        labeled.iter().any(|&id| reach[id.index()]),
        "substr keeps taint"
    );
}

#[test]
fn str_replace_array_patterns() {
    // Array arguments — the construct the paper's prototype could not
    // handle (§5.3) — apply as a sequential chain.
    let (g, root) = grammar_of(
        r#"<?php $DB->query("Q" . str_replace(array('[b]', '[i]'), array('<b>', '<i>'), '[b]x[i]'));"#,
    );
    assert_eq!(
        bounded_language(&g, root, 4).unwrap(),
        vec![b"Q<b>x<i>".to_vec()]
    );
}

#[test]
fn str_replace_scalar_replacement_for_array_pattern() {
    let (g, root) = grammar_of(
        r#"<?php $DB->query("Q" . str_replace(array('a', 'b'), '-', 'ab c'));"#,
    );
    assert_eq!(
        bounded_language(&g, root, 4).unwrap(),
        vec![b"Q-- c".to_vec()]
    );
}

#[test]
fn preg_replace_literal_model() {
    let (g, root) = grammar_of(
        r#"<?php $DB->query("Q" . preg_replace('/[0-9]+/', 'N', 'a12b3'));"#,
    );
    // Over-approximation: contains the true result.
    assert!(g.derives(root, b"QaNbN"));
}

#[test]
fn sprintf_model() {
    let (g, root) = grammar_of(
        r#"<?php $DB->query(sprintf("SELECT %s FROM t LIMIT %d", 'x', 3));"#,
    );
    assert!(g.derives(root, b"SELECT x FROM t LIMIT 3"));
    assert!(g.derives(root, b"SELECT x FROM t LIMIT 999"));
    assert!(!g.derives(root, b"SELECT x FROM t LIMIT y"));
}

#[test]
fn implode_model() {
    let (g, root) = grammar_of(
        r#"<?php $a = array('1', '2'); $DB->query("Q" . implode(',', $a));"#,
    );
    assert!(g.derives(root, b"Q1"));
    assert!(g.derives(root, b"Q1,2"));
    assert!(g.derives(root, b"Q2,2,1"), "order and count are abstracted");
    assert!(!g.derives(root, b"Q3"));
}

#[test]
fn explode_model() {
    let (g, root) = grammar_of(
        r#"<?php $p = explode('.', 'a.bc'); $DB->query("Q" . $p[0]);"#,
    );
    // Elements of the split (order lost, paper Fig. 8).
    assert!(g.derives(root, b"Qa"));
    assert!(g.derives(root, b"Qbc"));
    assert!(!g.derives(root, b"Qa.bc"), "pieces never contain the delimiter");
}

#[test]
fn unknown_function_records_name() {
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        r#"<?php $DB->query("Q" . mystery_fn($_GET['x']));"#,
    );
    let a = analyze(&vfs, "p.php", &Config::default()).unwrap();
    assert!(a.unmodeled.contains("mystery_fn"));
    // Σ*-widened result keeps taint.
    let root = a.hotspots[0].root;
    let strings = sample_strings(&a.cfg, root, 4, 4);
    assert!(!strings.is_empty());
}

#[test]
fn ucfirst_lcfirst_models() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . ucfirst('abc'));"#);
    assert_eq!(bounded_language(&g, root, 4).unwrap(), vec![b"QAbc".to_vec()]);
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . lcfirst('ABC'));"#);
    assert_eq!(bounded_language(&g, root, 4).unwrap(), vec![b"QaBC".to_vec()]);
}

#[test]
fn str_repeat_constant_unrolls() {
    let (g, root) = grammar_of(r#"<?php $DB->query("Q" . str_repeat('ab', 3));"#);
    assert_eq!(
        bounded_language(&g, root, 4).unwrap(),
        vec![b"Qababab".to_vec()]
    );
}

#[test]
fn str_repeat_dynamic_is_star() {
    let (g, root) = grammar_of(
        r#"<?php $n = intval($_GET['n']); $DB->query("Q" . str_repeat('-', $n));"#,
    );
    assert!(g.derives(root, b"Q"));
    assert!(g.derives(root, b"Q---"));
    assert!(!g.derives(root, b"Qx"));
}
