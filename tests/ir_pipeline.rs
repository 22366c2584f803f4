//! The staged AST→IR→grammar pipeline must be invisible in results:
//! summaries are a pure caching layer, so a page analyzed through a
//! cold cache, a warm cache, or no shared cache at all yields the same
//! grammars, hotspots, and warnings — while a warm cache does strictly
//! less lowering work (measured by the cache counters).

use strtaint::{
    analyze_page_cached, analyze_pages, Config, Evidence, PageReport, PolicyChecker,
    SummaryCache, Vfs,
};
use strtaint_corpus::synth::{synth_app, SynthConfig};

/// A small app exercising the IR features the cache must preserve:
/// a shared include defining a function, branch joins feeding a
/// hotspot, and a loop fixpoint.
fn join_app() -> Vfs {
    let mut vfs = Vfs::new();
    vfs.add(
        "lib.php",
        r#"<?php
function fetch_row($w) {
    global $DB;
    return $DB->query("SELECT * FROM t WHERE " . $w);
}
"#,
    );
    for page in ["p1.php", "p2.php"] {
        vfs.add(
            page,
            r#"<?php
include('lib.php');
$id = $_GET['id'];
if (isset($_GET['alt'])) {
    $cond = "id='" . $id . "'";
} else {
    $cond = "id=''";
}
for ($i = 0; $i < 3; $i = $i + 1) {
    $cond = $cond . " OR id=''";
}
$r = fetch_row($cond);
"#,
        );
    }
    vfs
}

/// Canonical text form of a page's per-hotspot query grammars, plus
/// everything else observable about the page.
fn fingerprint(p: &PageReport) -> String {
    let mut out = String::new();
    for (h, r) in &p.hotspots {
        out.push_str(&format!(
            "hotspot {} @ {}:{} safe={} checked={} findings={}\n",
            h.label,
            h.file,
            h.span,
            r.is_safe(),
            r.checked,
            r.findings.len()
        ));
    }
    out.push_str(&format!(
        "V={} R={} files={}\n",
        p.grammar_nonterminals, p.grammar_productions, p.files_analyzed
    ));
    for w in &p.warnings {
        out.push_str(w);
        out.push('\n');
    }
    out
}

/// Canonical dump of every hotspot's grammar (productions reachable
/// from the hotspot root, in creation order).
fn grammar_dump(vfs: &Vfs, entry: &str, config: &Config, summaries: &SummaryCache) -> String {
    let budget = config.page_budget();
    let a = strtaint_analysis::analyze_cached(vfs, entry, config, &budget, summaries).unwrap();
    a.hotspots
        .iter()
        .map(|h| a.cfg.display_from(h.root))
        .collect::<Vec<_>>()
        .join("\n---\n")
}

#[test]
fn cold_and_warm_cache_grammars_identical() {
    let vfs = join_app();
    let config = Config::default();
    let cache = SummaryCache::new();

    // Cold: first pass lowers everything.
    let cold: Vec<String> = ["p1.php", "p2.php"]
        .iter()
        .map(|e| grammar_dump(&vfs, e, &config, &cache))
        .collect();
    let misses_after_cold = cache.misses();
    assert!(misses_after_cold > 0, "cold pass must lower files");

    // Warm: same cache, zero new lowerings, bit-identical grammars.
    let warm: Vec<String> = ["p1.php", "p2.php"]
        .iter()
        .map(|e| grammar_dump(&vfs, e, &config, &cache))
        .collect();
    assert_eq!(cache.misses(), misses_after_cold, "warm pass must not lower");
    assert!(cache.hits() > 0);
    assert_eq!(cold, warm, "warm-cache grammars must be bit-identical");
}

#[test]
fn shared_cache_reports_match_uncached_path() {
    let vfs = join_app();
    let config = Config::default();
    let checker = PolicyChecker::new();
    let cache = SummaryCache::new();
    for entry in ["p1.php", "p2.php"] {
        let uncached =
            analyze_page_cached(&vfs, entry, &config, &checker, &SummaryCache::new()).unwrap();
        let cached = analyze_page_cached(&vfs, entry, &config, &checker, &cache).unwrap();
        assert_eq!(
            fingerprint(&uncached),
            fingerprint(&cached),
            "{entry}: cached result differs"
        );
    }
    // p2 rides entirely on p1's lowerings: lib.php and the (identical)
    // page body are both content-hash hits.
    assert!(cache.hits() > 0, "second page must hit the shared cache");
}

#[test]
fn include_and_function_summaries_reused_across_pages() {
    let vfs = join_app();
    let config = Config::default();
    let checker = PolicyChecker::new();
    let cache = SummaryCache::new();
    let first = analyze_page_cached(&vfs, "p1.php", &config, &checker, &cache).unwrap();
    let after_first = cache.misses();
    let second = analyze_page_cached(&vfs, "p2.php", &config, &checker, &cache).unwrap();
    // p2.php's body is byte-identical to p1.php's and lib.php is shared,
    // so the second page lowers nothing new.
    assert_eq!(cache.misses(), after_first, "p2 must reuse all summaries");
    // Both pages see the include-defined function and the env joins.
    assert_eq!(first.hotspots.len(), 1);
    assert_eq!(second.hotspots.len(), 1);
    assert!(!first.is_verified(), "raw-GET branch is a SQLCIV");
    assert_eq!(fingerprint(&first).replace("p1.php", "X"),
               fingerprint(&second).replace("p2.php", "X"));
}

#[test]
fn warm_parallel_app_lowered_at_least_30_percent_less() {
    let app = synth_app(&SynthConfig::default());
    let entries = app.entry_refs();
    let config = Config::default();
    let checker = PolicyChecker::new();

    // Cold baseline: every page gets a private cache, so shared
    // includes are lowered once *per page*.
    let mut cold_lowerings = 0u64;
    for e in &entries {
        let fresh = SummaryCache::new();
        analyze_page_cached(&app.vfs, e, &config, &checker, &fresh).unwrap();
        cold_lowerings += fresh.misses();
    }

    // Warm: the page driver shares one cache across its workers.
    let shared = SummaryCache::new();
    let pages = analyze_pages(
        &app.vfs,
        &entries,
        &config,
        &checker,
        &shared,
        Evidence::Verdicts,
    );
    assert!(pages.iter().all(Result::is_ok));
    let warm_lowerings = shared.misses();
    assert!(warm_lowerings > 0);
    assert_eq!(
        shared.hits() + shared.misses(),
        cold_lowerings,
        "cache sees one lookup per (page, file) traversal"
    );
    assert!(
        warm_lowerings * 10 <= cold_lowerings * 7,
        "warm cache must lower >=30% less: {warm_lowerings} vs {cold_lowerings}"
    );
}
#[test]
fn page_driver_summary_counters_are_repeatable() {
    // Lowering is single-flight: pages fanned out over threads that
    // reach a shared include at once lower it once, so two runs over
    // the same tree count the same hits and misses, and every miss is
    // one resident summary.
    let synth = synth_app(&SynthConfig {
        pages: 30,
        sinks_per_page: 3,
        replace_chain: 1,
        ..SynthConfig::default()
    });
    let config = Config::default();
    for app in [strtaint_corpus::apps::tiger::build(), synth] {
        let entries = app.entry_refs();
        let counters = || {
            let cache = SummaryCache::new();
            let pages = analyze_pages(
                &app.vfs,
                &entries,
                &config,
                &PolicyChecker::new(),
                &cache,
                Evidence::Verdicts,
            );
            assert!(pages.iter().all(Result::is_ok), "{}", app.name);
            assert_eq!(cache.misses(), cache.len() as u64, "{}", app.name);
            (cache.hits(), cache.misses())
        };
        let first = counters();
        assert!(first.0 > 0, "{}: shared includes hit", app.name);
        assert_eq!(first, counters(), "{}", app.name);
    }
}
