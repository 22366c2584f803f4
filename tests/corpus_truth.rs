//! Table 1 ground truth: each corpus application must produce exactly
//! the findings profile of the corresponding paper subject, and the
//! totals must reproduce the paper's headline numbers (19 real + 5
//! false direct reports → 20.8% false-positive rate; 17 indirect).

use strtaint::{analyze_app, Config};
use strtaint_corpus::apps;

fn check(app: strtaint_corpus::App) -> (usize, usize) {
    check_report(&app, analyze_app(app.name, &app.vfs, &app.entry_refs(), &Config::default()))
}

fn check_report(app: &strtaint_corpus::App, report: strtaint::AppReport) -> (usize, usize) {
    let direct = report.direct_findings().len();
    let indirect = report.indirect_findings().len();
    assert_eq!(
        direct,
        app.truth.direct_total(),
        "{}: direct findings (got {direct}, want {})\n{report}",
        app.name,
        app.truth.direct_total()
    );
    assert_eq!(
        indirect, app.truth.indirect,
        "{}: indirect findings",
        app.name
    );
    (direct, indirect)
}

#[test]
fn eve_matches_table1() {
    check(apps::eve::build());
}

#[test]
fn utopia_matches_table1() {
    check(apps::utopia::build());
}

#[test]
fn e107_matches_table1() {
    check(apps::e107::build());
}

#[test]
fn warp_matches_table1() {
    let app = apps::warp::build();
    let report = analyze_app(app.name, &app.vfs, &app.entry_refs(), &Config::default());
    assert!(report.distinct_findings().is_empty(), "Warp verifies clean");
    // Every page fully verified.
    for p in &report.pages {
        assert!(p.is_verified(), "{p}");
    }
}

#[test]
fn tiger_matches_table1() {
    let app = apps::tiger::build();
    let report = analyze_app(app.name, &app.vfs, &app.entry_refs(), &Config::default());
    // EXPERIMENTS.md Table 1: the grammar size is exact, not just the
    // findings profile — the FST image must add the same nonterminals
    // and productions as the paper's construction.
    assert_eq!(report.grammar_size(), (154_052, 384_801), "Tiger |V|, |R|");
    check_report(&app, report);
}

#[test]
fn paper_totals_without_tiger() {
    // Totals minus the tiger row (covered by `tiger_matches_table1`):
    // direct 16+4+1 = 21 of 24, indirect 12+1+4 = 17 of 19.
    let mut direct = 0;
    let mut indirect = 0;
    for app in [apps::eve::build(), apps::utopia::build(), apps::e107::build(), apps::warp::build()] {
        let (d, i) = check(app);
        direct += d;
        indirect += i;
    }
    assert_eq!(direct, 21);
    assert_eq!(indirect, 17);
}

#[test]
fn false_positive_rate_matches_paper() {
    // 5 seeded false positives over 19+5 direct reports = 20.8%.
    let apps = apps::all();
    let real: usize = apps.iter().map(|a| a.truth.direct_real).sum();
    let false_pos: usize = apps.iter().map(|a| a.truth.direct_false).sum();
    let indirect: usize = apps.iter().map(|a| a.truth.indirect).sum();
    assert_eq!(real, 19, "Table 1 total real direct errors");
    assert_eq!(false_pos, 5, "Table 1 total false direct errors");
    // Table 1's per-row indirect counts sum to 19 although the paper's
    // totals row prints 17 — an internal inconsistency in the published
    // table; we follow the per-row values (see EXPERIMENTS.md).
    assert_eq!(indirect, 19, "Table 1 per-row indirect errors");
    let rate = false_pos as f64 / (real + false_pos) as f64;
    assert!((rate - 0.208).abs() < 0.001, "paper reports 20.8%, got {rate:.3}");
}
