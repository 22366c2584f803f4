//! Differential tests for the optimized check path: the cross-page
//! query cache and lazy witness extraction must be *observationally
//! invisible*. The assertions here are deliberately the strongest
//! available — byte-identical SARIF documents across the optimized
//! path (cold and warm), the prepared baseline with the verdict cache
//! off, and eager witness extraction, on the full corpus with every
//! built-in policy enabled, and byte-identical budget-exhaustion
//! findings with the cache on and off under tight fuel. Any divergence is a replay or
//! soundness bug, not a formatting nit. (The prepared engine itself is
//! checked against the naive reference model query by query in
//! `tests/engine_equivalence.rs`.)

use strtaint::{
    analyze_page_cached, render, CheckOptions, Config, PageReport, PolicyChecker,
    SummaryCache, Vfs,
};
use strtaint_analysis::analyze;
use strtaint_checker::{CheckKind, Checker};
use strtaint_corpus::{apps, synth::synth_app, synth::SynthConfig, App};
use strtaint_grammar::Budget;

/// Every built-in policy id, so the differential covers the SQLCIV and
/// XSS checkers plus all three cascade classes in one run.
fn all_policies() -> Vec<String> {
    strtaint::policy::builtin()
        .iter()
        .map(|p| p.id.to_owned())
        .collect()
}

/// Analyzes every page of `vfs` with `checker` and renders the SARIF
/// document the CLI would print. Unanalyzable entries are skipped
/// identically for every engine (analysis is checker-independent).
fn sarif_for(vfs: &Vfs, entries: &[&str], config: &Config, checker: &PolicyChecker) -> String {
    let summaries = SummaryCache::new();
    let mut reports: Vec<PageReport> = Vec::new();
    for entry in entries {
        if let Ok(r) = analyze_page_cached(vfs, entry, config, checker, &summaries) {
            reports.push(r);
        }
    }
    assert!(!reports.is_empty(), "no analyzable pages in corpus app");
    render::sarif(&reports)
}

/// The tentpole differential: optimized (cache + lazy witnesses),
/// prepared baseline (no verdict cache) and
/// eager witness extraction must render byte-identical SARIF for `app`
/// under all five policies. The optimized checker runs the corpus
/// twice so the second pass replays memoized verdicts — warm-cache
/// SARIF must also match.
fn assert_sarif_identical(app: &App) {
    let config = Config {
        policies: all_policies(),
        ..Config::default()
    };
    let entries: Vec<&str> = app.entry_refs();

    let optimized = PolicyChecker::new();
    let prepared = PolicyChecker::with_options(CheckOptions {
        query_cache: false,
        ..CheckOptions::default()
    });
    let eager = PolicyChecker::with_options(CheckOptions {
        eager_witness: true,
        ..CheckOptions::default()
    });

    let cold = sarif_for(&app.vfs, &entries, &config, &optimized);
    let warm = sarif_for(&app.vfs, &entries, &config, &optimized);
    let base = sarif_for(&app.vfs, &entries, &config, &prepared);
    let eagerly = sarif_for(&app.vfs, &entries, &config, &eager);

    assert_eq!(cold, base, "{}: optimized vs prepared SARIF differ", app.name);
    assert_eq!(cold, warm, "{}: cold vs warm-cache SARIF differ", app.name);
    assert_eq!(cold, eagerly, "{}: lazy vs eager-witness SARIF differ", app.name);
}

#[test]
fn eve_sarif_identical_across_engines() {
    assert_sarif_identical(&apps::eve::build());
}

#[test]
fn utopia_sarif_identical_across_engines() {
    assert_sarif_identical(&apps::utopia::build());
}

#[test]
fn synth_sarif_identical_across_engines() {
    let app = synth_app(&SynthConfig {
        pages: 6,
        replace_chain: 2,
        ..SynthConfig::default()
    });
    assert_sarif_identical(&app);
}

/// A comparable rendering of one hotspot report, including witness
/// bytes and truncation flags — everything the user can observe.
fn render_reports(reports: &[strtaint_checker::HotspotReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let mut s = format!("safe={} checked={} verified={}", r.is_safe(), r.checked, r.verified);
            for f in &r.findings {
                s.push_str(&format!(
                    " [{:?} {} w={:?} t={}]",
                    f.kind, f.name, f.witness, f.witness_truncated
                ));
            }
            s
        })
        .collect()
}

/// Checks every hotspot of every page serially (one worker, so fuel
/// draw order is deterministic) under `fuel`, returning the rendered
/// reports of all pages concatenated.
fn check_under_fuel(app: &App, checker: &Checker, fuel: u64) -> Vec<String> {
    let config = Config::default();
    let mut out = Vec::new();
    for entry in app.entry_refs() {
        let analysis = match analyze(&app.vfs, entry, &config) {
            Ok(a) => a,
            Err(_) => continue,
        };
        let roots: Vec<_> = analysis.hotspots.iter().map(|h| h.root).collect();
        // Fresh budget per page, checking phase only: identical fuel
        // pools for every engine variant.
        let budget = Budget::new(None, Some(fuel), None);
        out.extend(render_reports(&checker.check_hotspots_with(
            &analysis.cfg,
            &roots,
            &budget,
            1,
        )));
    }
    assert!(!out.is_empty(), "{}: no hotspot reports", app.name);
    out
}

/// The budget-parity regression (satellite): with `--fuel` tight
/// enough to trip mid-page, the cache-on and cache-off runs must
/// produce identical reports — same `BudgetExhausted` findings at the
/// same hotspots — because replaying a memoized verdict re-charges
/// exactly the fuel the original computation paid. A warm second pass
/// with the same checker must also agree (replayed charges trip at
/// the same point as live ones).
#[test]
fn budget_exhaustion_identical_with_cache_on_and_off() {
    let app = apps::eve::build();
    // Sweep fuel levels so at least one lands mid-page: too high and
    // nothing trips, too low and everything trips immediately.
    let mut saw_exhaustion = false;
    for fuel in [200, 1_000, 5_000, 20_000] {
        let cached = Checker::new();
        let uncached = Checker::with_options(CheckOptions {
            query_cache: false,
            ..CheckOptions::default()
        });
        let cold = check_under_fuel(&app, &cached, fuel);
        let warm = check_under_fuel(&app, &cached, fuel);
        let off = check_under_fuel(&app, &uncached, fuel);
        assert_eq!(cold, off, "fuel={fuel}: cache-on vs cache-off reports differ");
        assert_eq!(cold, warm, "fuel={fuel}: cold vs warm-cache reports differ");
        saw_exhaustion |= cold
            .iter()
            .any(|r| r.contains(&format!("{:?}", CheckKind::BudgetExhausted)));
    }
    assert!(
        saw_exhaustion,
        "fuel sweep never produced a BudgetExhausted finding — the parity \
         assertion is vacuous; lower the sweep"
    );
}
