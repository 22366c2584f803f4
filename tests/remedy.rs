//! End-to-end tests for the remediation subsystem (`strtaint-remedy`):
//! fix planning, apply-and-reprove round trips, SARIF fixes against
//! pinned golden fixtures, renderer agreement on witness truncation,
//! and guard-profile determinism.

use std::time::Duration;

use strtaint::report::PageReport;
use strtaint::{analyze_page_cached, CheckOptions, Config, PolicyChecker, SummaryCache};
use strtaint_analysis::{Hotspot, Provenance, Vfs};
use strtaint_checker::{CheckKind, Finding, HotspotReport};
use strtaint_corpus::{policies, remedy as remedy_corpus};
use strtaint_grammar::{NtId, Taint};
use strtaint_php::Span;
use strtaint_remedy::{plan_fixes, run_fix, to_result_fixes, Strategy};

fn analyze_all(vfs: &Vfs, entries: &[String], config: &Config) -> Vec<PageReport> {
    let checker = PolicyChecker::with_options(CheckOptions::default());
    let summaries = SummaryCache::new();
    entries
        .iter()
        .map(|e| analyze_page_cached(vfs, e, config, &checker, &summaries).expect(e))
        .collect()
}

#[test]
fn fix_apply_discharges_fixable_seeds_and_preserves_ambiguous_pages() {
    let vfs = remedy_corpus::vfs();
    let entries: Vec<String> = remedy_corpus::seeds()
        .iter()
        .map(|s| s.entry.to_owned())
        .collect();
    let config = Config {
        policies: vec!["sql".into(), "xss".into()],
        ..Config::default()
    };
    let outcome = run_fix(&vfs, &entries, &config).expect("fix pipeline");

    for seed in remedy_corpus::seeds() {
        let plans: Vec<_> = outcome
            .plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.entry == seed.entry)
            .collect();
        assert!(!plans.is_empty(), "{}: no finding was planned", seed.entry);
        if seed.fixable {
            for (i, plan) in &plans {
                assert!(
                    plan.is_applicable(),
                    "{}: plan unexpectedly ambiguous: {:?}",
                    seed.entry,
                    plan.ambiguous
                );
                assert!(outcome.applied[*i], "{}: plan not applied", seed.entry);
                assert!(
                    outcome.discharged[*i],
                    "{}: finding not discharged by re-analysis",
                    seed.entry
                );
                match &plan.strategy {
                    Some(Strategy::Sanitize { function }) => {
                        assert_eq!(
                            function, seed.sanitizer,
                            "{}: wrong sanitizer",
                            seed.entry
                        );
                    }
                    other => panic!("{}: expected sanitize strategy, got {other:?}", seed.entry),
                }
            }
            let re = outcome
                .reanalyzed
                .iter()
                .find(|r| r.entry == seed.entry)
                .expect("reanalyzed report");
            assert_eq!(
                re.findings().count(),
                0,
                "{}: findings remain after apply",
                seed.entry
            );
        } else {
            for (i, plan) in &plans {
                assert!(
                    plan.ambiguous.is_some(),
                    "{}: expected an ambiguous plan",
                    seed.entry
                );
                assert!(!outcome.applied[*i]);
            }
            assert_eq!(
                outcome.fixed_vfs.get(seed.entry),
                vfs.get(seed.entry),
                "{}: ambiguous page was modified",
                seed.entry
            );
        }
    }
}

#[test]
fn fix_apply_discharges_policy_corpus_vulns_and_keeps_safe_pages_identical() {
    let vfs = policies::vfs();
    let entries: Vec<String> = policies::seeds()
        .iter()
        .map(|s| s.entry.to_owned())
        .collect();
    let config = Config {
        policies: vec!["shell".into(), "path".into(), "eval".into()],
        ..Config::default()
    };
    let outcome = run_fix(&vfs, &entries, &config).expect("fix pipeline");

    for seed in policies::seeds() {
        if seed.vulnerable {
            let plan_idx: Vec<usize> = outcome
                .plans
                .iter()
                .enumerate()
                .filter(|(_, p)| p.entry == seed.entry)
                .map(|(i, _)| i)
                .collect();
            assert!(!plan_idx.is_empty(), "{}: no plan", seed.entry);
            for i in plan_idx {
                assert!(
                    outcome.discharged[i],
                    "{}: not discharged ({:?})",
                    seed.entry, outcome.plans[i].ambiguous
                );
                assert!(matches!(
                    outcome.plans[i].strategy,
                    Some(Strategy::Guard { .. })
                ));
            }
            let re = outcome
                .reanalyzed
                .iter()
                .find(|r| r.entry == seed.entry)
                .expect("reanalyzed report");
            assert_eq!(
                re.findings().count(),
                0,
                "{}: findings remain after apply",
                seed.entry
            );
        } else {
            // Sanitized pages carry no findings, get no plans, and
            // must come through the apply step byte-identical.
            assert!(
                !outcome.plans.iter().any(|p| p.entry == seed.entry),
                "{}: unexpected plan for a safe page",
                seed.entry
            );
            assert_eq!(
                outcome.fixed_vfs.get(seed.entry),
                vfs.get(seed.entry),
                "{}: safe page was modified",
                seed.entry
            );
        }
    }
    // Shared layout files are untouched too.
    assert_eq!(outcome.fixed_vfs.get("pages/home.php"), vfs.get("pages/home.php"));
}

/// A synthetic one-finding report with a truncated witness, for
/// renderer-agreement checks (real witnesses this long need
/// pathological grammars; the flag's plumbing is what's under test).
fn truncated_report() -> PageReport {
    let finding = Finding {
        nonterminal: NtId(1),
        name: "_GET[id]".into(),
        taint: Taint::DIRECT,
        kind: CheckKind::OddQuotes,
        witness: Some(vec![b'\''; strtaint_checker::MAX_WITNESS_BYTES]),
        witness_truncated: true,
        example_query: None,
        detail: String::new(),
        at: None,
    };
    let hotspot = Hotspot {
        file: "index.php".into(),
        span: Span::new(3, 1),
        label: "mysql_query".into(),
        root: NtId(0),
        policy: "sql".into(),
        provenance: Provenance::default(),
    };
    let report = HotspotReport {
        findings: vec![finding],
        checked: 1,
        verified: 0,
        ..HotspotReport::default()
    };
    PageReport {
        entry: "index.php".into(),
        hotspots: vec![(hotspot, report)],
        grammar_nonterminals: 2,
        grammar_productions: 2,
        analysis_time: Duration::default(),
        check_time: Duration::default(),
        warnings: Vec::new(),
        unmodeled: Vec::new(),
        files_analyzed: 1,
        inputs: vec!["index.php".into()],
        degradations: Vec::new(),
        skipped: None,
    }
}

#[test]
fn all_three_renderers_mark_witness_truncation() {
    let reports = vec![truncated_report()];

    // Text renderer: the Display impl flags the capped witness.
    let text = reports[0].to_string();
    assert!(text.contains("[truncated]"), "text renderer: {text}");

    // JSON renderer: structured boolean member.
    let json = strtaint::render::json_report(&reports, None);
    assert!(
        json.contains("\"witness_truncated\": true"),
        "json renderer: {json}"
    );

    // SARIF renderer: structured result property (not just prose).
    let sarif = strtaint::render::sarif(&reports);
    assert!(
        sarif.contains("\"properties\": {\"witnessTruncated\": true}"),
        "sarif renderer: {sarif}"
    );
    assert!(sarif.contains("… [truncated]"), "sarif message: {sarif}");

    // And an untruncated finding renders `false` everywhere.
    let mut clean = truncated_report();
    clean.hotspots[0].1.findings[0].witness = Some(b"1'".to_vec());
    clean.hotspots[0].1.findings[0].witness_truncated = false;
    let reports = vec![clean];
    assert!(!reports[0].to_string().contains("[truncated]"));
    let json = strtaint::render::json_report(&reports, None);
    assert!(json.contains("\"witness_truncated\": false"));
    let sarif = strtaint::render::sarif(&reports);
    assert!(sarif.contains("\"properties\": {\"witnessTruncated\": false}"));
}

/// Renders the SARIF-with-fixes document for one seeded page.
fn sarif_fixes_for(vfs: &Vfs, entry: &str, policies_list: &[&str]) -> String {
    let config = Config {
        policies: policies_list.iter().map(|s| s.to_string()).collect(),
        ..Config::default()
    };
    let entries = vec![entry.to_owned()];
    let reports = analyze_all(vfs, &entries, &config);
    let plans = plan_fixes(vfs, &reports);
    assert!(
        plans.iter().any(|p| p.is_applicable()),
        "{entry}: no applicable plan"
    );
    let fixes = to_result_fixes(vfs, &plans);
    strtaint::render::sarif_with_fixes(&reports, &fixes)
}

fn assert_golden(generated: &str, golden: &str, path: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, generated).expect("update golden");
        return;
    }
    assert_eq!(
        generated, golden,
        "SARIF fixes drifted from {path}; if intentional, regenerate \
         with UPDATE_GOLDEN=1"
    );
}

#[test]
fn sarif_fixes_match_golden_fixture_per_policy_class() {
    let rv = remedy_corpus::vfs();
    let pv = policies::vfs();
    let cases: [(&Vfs, &str, &[&str], &str, &str); 5] = [
        (
            &rv,
            "sql_quoted_vuln.php",
            &["sql"],
            include_str!("golden/sarif_fixes_sql.sarif"),
            "tests/golden/sarif_fixes_sql.sarif",
        ),
        (
            &rv,
            "xss_vuln.php",
            &["sql", "xss"],
            include_str!("golden/sarif_fixes_xss.sarif"),
            "tests/golden/sarif_fixes_xss.sarif",
        ),
        (
            &pv,
            "shell_vuln.php",
            &["shell"],
            include_str!("golden/sarif_fixes_shell.sarif"),
            "tests/golden/sarif_fixes_shell.sarif",
        ),
        (
            &pv,
            "path_vuln.php",
            &["path"],
            include_str!("golden/sarif_fixes_path.sarif"),
            "tests/golden/sarif_fixes_path.sarif",
        ),
        (
            &pv,
            "eval_vuln.php",
            &["eval"],
            include_str!("golden/sarif_fixes_eval.sarif"),
            "tests/golden/sarif_fixes_eval.sarif",
        ),
    ];
    for (vfs, entry, pols, golden, path) in cases {
        let generated = sarif_fixes_for(vfs, entry, pols);
        assert_golden(&generated, golden, path);
    }
}

#[test]
fn profile_render_is_deterministic_and_carries_skeletons() {
    let vfs = remedy_corpus::vfs();
    let entries: Vec<String> = remedy_corpus::seeds()
        .iter()
        .map(|s| s.entry.to_owned())
        .collect();
    let config = Config {
        policies: vec!["sql".into(), "xss".into()],
        ..Config::default()
    };
    let a = strtaint_remedy::render_profile(&strtaint_remedy::profile_pages(&analyze_all(
        &vfs, &entries, &config,
    )));
    let b = strtaint_remedy::render_profile(&strtaint_remedy::profile_pages(&analyze_all(
        &vfs, &entries, &config,
    )));
    assert_eq!(a, b, "profile must be deterministic across runs");
    assert!(a.contains("strtaint-profile/1"));
    assert!(a.contains(strtaint_checker::engine_version()));
    // The quoted-context page's skeleton shows the placeholder inside
    // the string literal — the exact evidence the fix planner used.
    assert!(
        a.contains("'?'"),
        "expected a quoted placeholder skeleton in:\n{a}"
    );
}
