//! XSS analysis over the corpus: the synthetic subjects were designed
//! for the SQLCIV evaluation, but their echo sinks exercise the XSS
//! checker on realistic pages.

use strtaint::{analyze_page, analyze_page_cached, Config, PageReport, PolicyChecker, SummaryCache, Vfs};

fn xss_config() -> Config {
    Config {
        policies: vec![strtaint::policy::XSS_POLICY.to_owned()],
        ..Config::default()
    }
}

fn analyze_xss(vfs: &Vfs, entry: &str) -> PageReport {
    analyze_page(vfs, entry, &xss_config()).unwrap()
}

#[test]
fn utopia_escaped_messages_are_xss_safe() {
    // unp_msg() routes everything through htmlspecialchars.
    let app = strtaint_corpus::apps::utopia::build();
    let r = analyze_xss(&app.vfs, "search.php");
    for (h, f) in r.findings() {
        // The only tolerated finding source would be raw fetch echoes;
        // search.php has none.
        panic!("unexpected XSS finding on search.php: {} {}", h.label, f);
    }
}

#[test]
fn utopia_raw_row_echo_is_stored_xss() {
    // news.php echoes a fetched subject without escaping — a stored
    // XSS with the indirect label, exactly the paper's §7 scenario.
    let app = strtaint_corpus::apps::utopia::build();
    let r = analyze_xss(&app.vfs, "news.php");
    let findings: Vec<_> = r.findings().collect();
    assert!(
        findings.iter().any(|(_, f)| f.taint.is_indirect()),
        "expected a stored-XSS report: {r}"
    );
}

#[test]
fn xss_verdicts_replay_across_pages_of_one_checker() {
    // One `PolicyChecker` serves every page of a run, so the XSS
    // cascade's verdicts are memoized across pages like SQL's.
    let app = strtaint_corpus::apps::utopia::build();
    let config = xss_config();
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let run = || analyze_page_cached(&app.vfs, "news.php", &config, &checker, &summaries).unwrap();
    let first = run();
    let second = run();
    assert!(first.engine_stats().queries > 0, "news.php has echo sinks to check");
    assert!(
        second.engine_stats().qcache_hits > 0,
        "the second page replays XSS verdicts from the first: {:?}",
        second.engine_stats()
    );
    assert_eq!(
        strtaint::render::sarif(std::slice::from_ref(&first)),
        strtaint::render::sarif(std::slice::from_ref(&second))
    );
}

#[test]
fn xss_checker_runs_on_every_corpus_page() {
    // Robustness: no panics, deterministic outcome on repeat.
    for app in [
        strtaint_corpus::apps::eve::build(),
        strtaint_corpus::apps::warp::build(),
    ] {
        for e in &app.entries {
            let a = analyze_xss(&app.vfs, e);
            let b = analyze_xss(&app.vfs, e);
            assert_eq!(
                a.findings().count(),
                b.findings().count(),
                "{}: nondeterministic XSS result",
                e
            );
        }
    }
}

#[test]
fn mixed_page_sql_safe_xss_unsafe() {
    let mut vfs = Vfs::new();
    vfs.add(
        "p.php",
        r#"<?php
$q = intval($_GET['q']);
$r = $DB->query("SELECT * FROM t WHERE id=$q");
echo "<h1>Search: " . $_GET['q'] . "</h1>";
"#,
    );
    let sql = strtaint::analyze_page(&vfs, "p.php", &Config::default()).unwrap();
    let xss = analyze_xss(&vfs, "p.php");
    assert!(sql.is_verified());
    assert!(!xss.is_verified());
}
