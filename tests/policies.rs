//! Policy-layer acceptance tests.
//!
//! - Every seeded vulnerable corpus page reports a finding with its
//!   class's rule id; every sanitized variant verifies clean.
//! - The three new classes carry distinct SARIF rule ids.
//! - With the default policy set (`["sql"]`) the skeleton-exporting
//!   page entry (`analyze_page_cached`, the daemon's) is byte-identical
//!   on the corpus to reports assembled call by call from
//!   `Checker::check_hotspots_with` + `skeletons_for` — the sequence
//!   the traced bench driver replays — in findings, skeletons, JSON and
//!   SARIF.
//! - Running the `sql` cascade in the paper's C1–C5 order instead of
//!   the registry's (C3 first) changes no verdict on the corpus.
//! - The SARIF rule-id namespace is pinned by a golden file
//!   (`tests/golden/rule_ids.txt`); adding or renaming a rule id is an
//!   intentional, reviewed change.

use std::collections::HashSet;
use std::time::Duration;

use strtaint::{
    analyze_page, analyze_page_cached, render, CheckOptions, Checker, Config, NtId, PageReport,
    PolicyChecker, SummaryCache, Vfs,
};
use strtaint_corpus::policies::{seeds, vfs};

fn config_with(policies: &[&str]) -> Config {
    Config {
        policies: policies.iter().map(|&p| p.to_owned()).collect(),
        ..Config::default()
    }
}

#[test]
fn seeded_pages_match_ground_truth() {
    let vfs = vfs();
    for seed in seeds() {
        let config = config_with(&["sql", seed.policy]);
        let report = analyze_page(&vfs, seed.entry, &config)
            .unwrap_or_else(|e| panic!("{}: {e}", seed.entry));
        if seed.vulnerable {
            let rules: Vec<&str> = report
                .findings()
                .map(|(_, f)| f.kind.rule_id())
                .collect();
            assert!(
                rules.contains(&seed.rule),
                "{}: expected rule {}, got {rules:?}\n{report}",
                seed.entry,
                seed.rule
            );
        } else {
            assert!(
                report.is_verified(),
                "{}: sanitized variant must verify\n{report}",
                seed.entry
            );
            assert_eq!(
                report.findings().count(),
                0,
                "{}: sanitized variant must have zero findings",
                seed.entry
            );
        }
    }
}

#[test]
fn new_classes_have_distinct_sarif_rule_ids() {
    let vfs = vfs();
    let config = config_with(&["sql", "shell", "path", "eval"]);
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let mut reports = Vec::new();
    for seed in seeds().iter().filter(|s| s.vulnerable) {
        reports.push(
            analyze_page_cached(&vfs, seed.entry, &config, &checker, &summaries)
                .expect("seeded page analyzes"),
        );
    }
    let sarif = render::sarif(&reports);
    let mut classes = HashSet::new();
    for rule in [
        "strtaint/shell-metachar",
        "strtaint/path-traversal",
        "strtaint/code-injection",
    ] {
        assert!(sarif.contains(rule), "SARIF must carry {rule}:\n{sarif}");
        classes.insert(rule);
    }
    assert_eq!(classes.len(), 3, "one distinct rule id per class");
}

/// One page assembled call by call from the SQL checker's public
/// surface, as the traced bench driver does: analysis, one parallel
/// `check_hotspots_with` batch, then `skeletons_for` per hotspot.
fn assembled_page(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
    checker: &Checker,
    summaries: &SummaryCache,
) -> PageReport {
    let budget = config.page_budget();
    let analysis = strtaint_analysis::analyze_cached(vfs, entry, config, &budget, summaries)
        .expect("page analyzes");
    let roots: Vec<NtId> = analysis.hotspots.iter().map(|h| h.root).collect();
    checker.set_query_scope(config.fingerprint());
    let checked = checker.check_hotspots_with(&analysis.cfg, &roots, &budget, 2);
    let mut hotspots = Vec::new();
    for (h, mut r) in analysis.hotspots.iter().zip(checked) {
        if let Some(span) = h.provenance.arg_span {
            for f in &mut r.findings {
                f.at = Some((span.line, span.col));
            }
        }
        (r.skeletons, r.skeletons_complete) = checker.skeletons_for(&analysis.cfg, h.root);
        hotspots.push((h.clone(), r));
    }
    let reached = analysis.cfg.reachable_from(&roots);
    PageReport {
        entry: entry.to_owned(),
        hotspots,
        grammar_nonterminals: reached.len(),
        grammar_productions: reached.iter().map(|&id| analysis.cfg.productions(id).len()).sum(),
        analysis_time: Duration::ZERO,
        check_time: Duration::ZERO,
        warnings: analysis.warnings,
        unmodeled: analysis.unmodeled.into_iter().collect(),
        files_analyzed: analysis.files_analyzed,
        inputs: analysis.inputs.into_iter().collect(),
        degradations: analysis.degradations,
        skipped: None,
    }
}

#[test]
fn sql_only_policy_run_is_byte_identical_to_dedicated_path() {
    // The default config through the one page pipeline must not differ
    // by a byte from the SQL checker driven call by call — the program
    // the traced bench ledger measures is the program the CLI runs.
    for app in [strtaint_corpus::apps::utopia::build(), strtaint_corpus::apps::eve::build()] {
        let config = Config::default();
        let checker = Checker::new();
        let pchecker = PolicyChecker::new();
        let s1 = SummaryCache::new();
        let s2 = SummaryCache::new();
        let mut assembled = Vec::new();
        let mut pipeline = Vec::new();
        for entry in &app.entries {
            assembled.push(assembled_page(&app.vfs, entry, &config, &checker, &s1));
            let mut p = analyze_page_cached(&app.vfs, entry, &config, &pchecker, &s2).expect("page");
            p.analysis_time = Duration::ZERO;
            p.check_time = Duration::ZERO;
            pipeline.push(p);
        }
        assert_eq!(
            render::sarif(&assembled),
            render::sarif(&pipeline),
            "{}: SARIF bytes must match",
            app.name
        );
        assert_eq!(
            render::json_report(&assembled, None),
            render::json_report(&pipeline, None),
            "{}: JSON bytes must match",
            app.name
        );
        for (d, p) in assembled.iter().zip(&pipeline) {
            assert_eq!(d.is_verified(), p.is_verified(), "{}: verdict", d.entry);
            for ((_, hd), (_, hp)) in d.hotspots.iter().zip(&p.hotspots) {
                assert_eq!(hd.skeletons, hp.skeletons, "{}: skeletons", d.entry);
                assert_eq!(hd.skeletons_complete, hp.skeletons_complete, "{}", d.entry);
            }
            assert_eq!(d.findings().count(), p.findings().count(), "{}", d.entry);
            for ((hd, fd), (hp, fp)) in d.findings().zip(p.findings()) {
                assert_eq!(hd.label, hp.label);
                assert_eq!(fd.kind, fp.kind);
                assert_eq!(fd.name, fp.name);
                assert_eq!(fd.witness, fp.witness);
                assert_eq!(fd.example_query, fp.example_query);
                assert_eq!(fd.at, fp.at);
            }
        }
    }
}

/// The registry's `sql` cascade in the paper's published order: C3
/// moves from first to after C2.
fn paper_order() -> strtaint::policy::Cascade {
    let sql = strtaint::policy::find("sql").expect("sql policy");
    let mut c = (sql.cascade)();
    c.steps[..3].rotate_left(1);
    c
}

#[test]
fn paper_order_preserves_corpus_verdicts() {
    let app = strtaint_corpus::apps::eve::build();
    let config = Config::default();
    let fast = PolicyChecker::new();
    let sql = strtaint::policy::Policy {
        cascade: paper_order,
        ..strtaint::policy::find("sql").expect("sql policy")
    };
    let slow = PolicyChecker::with_policies(&[sql], CheckOptions::default());
    let s1 = SummaryCache::new();
    let s2 = SummaryCache::new();
    for entry in &app.entries {
        let a = analyze_page_cached(&app.vfs, entry, &config, &fast, &s1).expect("page");
        let b = analyze_page_cached(&app.vfs, entry, &config, &slow, &s2).expect("page");
        assert_eq!(a.is_verified(), b.is_verified(), "{entry}");
        assert_eq!(a.findings().count(), b.findings().count(), "{entry}");
        for ((_, fa), (_, fb)) in a.findings().zip(b.findings()) {
            assert_eq!(fa.kind, fb.kind, "{entry}");
            assert_eq!(fa.witness, fb.witness, "{entry}");
            assert_eq!(fa.example_query, fb.example_query, "{entry}");
        }
        let verified = |r: &PageReport| r.hotspots.iter().map(|(_, h)| h.verified).sum::<usize>();
        assert_eq!(verified(&a), verified(&b), "{entry}");
    }
}

#[test]
fn rule_id_namespace_matches_golden_file() {
    let mut lines = Vec::new();
    lines.push("# SARIF rule ids, pinned. Regenerate only on an".to_owned());
    lines.push("# intentional policy/kind change (see tests/policies.rs).".to_owned());
    for kind in strtaint::policy::CheckKind::all() {
        lines.push(format!("kind {}", kind.rule_id()));
    }
    for policy in strtaint::policy::builtin() {
        lines.push(format!("policy {} {}", policy.id, policy.rule_ids.join(" ")));
    }
    let generated = format!("{}\n", lines.join("\n"));
    let golden = include_str!("golden/rule_ids.txt");
    assert_eq!(
        generated, golden,
        "rule-id namespace drifted from tests/golden/rule_ids.txt; \
         if intentional, update the golden file to:\n{generated}"
    );
}
