//! **strtaint** — a sound and precise static analysis for SQL command
//! injection vulnerabilities in PHP web applications.
//!
//! This crate is the public entry point of a from-scratch reproduction
//! of *Sound and Precise Analysis of Web Applications for Injection
//! Vulnerabilities* (Wassermann & Su, PLDI 2007). The pipeline has the
//! paper's two phases:
//!
//! 1. **String-taint analysis** (`strtaint-analysis`): conservatively
//!    characterizes the SQL query strings a page can generate as a
//!    context-free grammar whose nonterminals carry `direct`/`indirect`
//!    taint labels, modeling sanitizers as finite-state transducers and
//!    regex conditionals as grammar–automaton intersections.
//! 2. **Policy conformance** (`strtaint-checker`): checks that every
//!    tainted subgrammar is *syntactically confined* — derivable from a
//!    single symbol of the reference SQL grammar in every query context
//!    (Definition 2.3). Violations are reported with witness strings;
//!    no reports means the page is verified (Theorem 3.4).
//!
//! # Examples
//!
//! The paper's Figure 2 vulnerability end to end:
//!
//! ```
//! use strtaint::{analyze_page, Config, Vfs};
//!
//! let mut vfs = Vfs::new();
//! vfs.add("useredit.php", r#"<?php
//! isset($_GET['userid']) ?
//!     $userid = $_GET['userid'] : $userid = '';
//! if (!eregi('[0-9]+', $userid)) {
//!     exit;
//! }
//! $getuser = $DB->query("SELECT * FROM `unp_user` WHERE userid='$userid'");
//! "#);
//! let report = analyze_page(&vfs, "useredit.php", &Config::default()).unwrap();
//! assert!(!report.is_verified(), "the unanchored eregi is a SQLCIV");
//!
//! // With the anchored check the same page verifies:
//! let mut fixed = Vfs::new();
//! fixed.add("useredit.php", r#"<?php
//! isset($_GET['userid']) ?
//!     $userid = $_GET['userid'] : $userid = '';
//! if (!preg_match('/^[0-9]+$/', $userid)) {
//!     exit;
//! }
//! $getuser = $DB->query("SELECT * FROM `unp_user` WHERE userid='$userid'");
//! "#);
//! let report = analyze_page(&fixed, "useredit.php", &Config::default()).unwrap();
//! assert!(report.is_verified());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod render;
pub mod report;

use std::time::Instant;

pub use strtaint_analysis::{AnalyzeError, Config, Hotspot, Provenance, SummaryCache, Vfs};
pub use strtaint_checker::{
    CheckKind, CheckOptions, Checker, EngineStats, Finding, HotspotReport, PolicyChecker,
};
pub use strtaint_grammar::{Budget, Cfg, DegradeAction, Degradation, NtId, Resource, Taint};
pub use strtaint_policy as policy;

/// Worker-thread count for checking the hotspots of one page — the
/// machine's available parallelism (hotspots are independent given the
/// immutable grammar; see `PolicyChecker::check_hotspots_with`).
fn hotspot_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub use report::{AppReport, PageReport};

/// Analyzes one web page (top-level PHP or template file) and checks
/// every sink of the **enabled policy set** (`Config::policies`): SQL
/// hotspots, shell/path/eval sinks, and (when the `xss` policy is
/// enabled) `echo` sinks, each by the cascade its policy defines.
///
/// # Errors
///
/// Returns [`AnalyzeError`] if the entry file is missing or fails to
/// parse. Problems in included files become warnings on the report.
pub fn analyze_page(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
) -> Result<PageReport, AnalyzeError> {
    analyze_page_cached(vfs, entry, config, &PolicyChecker::new(), &SummaryCache::new())
}

/// Like [`analyze_page`], reusing a prebuilt [`PolicyChecker`] (its
/// automata, query cache and prepared memo are page-independent) and
/// sharing a caller-owned [`SummaryCache`], so AST→IR lowering of files
/// reached by many pages (shared includes) happens once per app instead
/// of once per page. The app drivers ([`analyze_app`],
/// [`analyze_app_parallel`]) use this internally; the reports are
/// identical to [`analyze_page`]'s.
///
/// # Errors
///
/// Returns [`AnalyzeError`] if the entry file is missing or fails to
/// parse.
pub fn analyze_page_cached(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
    checker: &PolicyChecker,
    summaries: &SummaryCache,
) -> Result<PageReport, AnalyzeError> {
    // One budget covers both phases: the deadline clock starts here and
    // the fuel pool is shared between analysis and checking.
    let _span = strtaint_obs::Span::enter("page", entry);
    let budget = config.page_budget();
    let t0 = Instant::now();
    let analysis = strtaint_analysis::analyze_cached(vfs, entry, config, &budget, summaries)?;
    let analysis_time = t0.elapsed();

    let t1 = Instant::now();
    // Sink sites in program order, echo sinks after (they are collected
    // separately by the analysis and only checked when `xss` is on).
    let mut sites: Vec<Hotspot> = analysis.hotspots.clone();
    if config.policies.iter().any(|p| p == policy::XSS_POLICY) {
        sites.extend(analysis.echo_sinks.iter().cloned());
    }
    let items: Vec<(NtId, String)> = sites.iter().map(|h| (h.root, h.policy.clone())).collect();
    // All sinks of the page are checked in one parallel batch sharing a
    // prepared-grammar cache; reports come back in program order,
    // identical to the serial loop. The cross-page query cache is
    // namespaced by the config fingerprint so memoized verdicts never
    // leak across configs (same rule the artifact store applies).
    checker.set_query_scope(config.fingerprint());
    let reports = checker.check_hotspots_with(&analysis.cfg, &items, &budget, hotspot_workers());
    let mut hotspots = Vec::new();
    for (h, mut r) in sites.iter().zip(reports) {
        if let Some(span) = h.provenance.arg_span {
            for f in &mut r.findings {
                f.at = Some((span.line, span.col));
            }
        }
        // Skeleton evidence rides on every report (fix planning and
        // guard profiles consume it downstream); the prepared memo
        // makes this a warm lookup after the check above.
        let (skeletons, complete) = checker.skeletons_for(&analysis.cfg, h.root);
        r.skeletons = skeletons;
        r.skeletons_complete = complete;
        hotspots.push((h.clone(), r));
    }
    let check_time = t1.elapsed();

    // Grammar size restricted to the sink grammars (Table 1 columns).
    let roots: Vec<NtId> = items.iter().map(|&(root, _)| root).collect();
    let (grammar_nonterminals, grammar_productions) = query_grammar_size(&analysis.cfg, &roots);

    Ok(PageReport {
        entry: entry.to_owned(),
        hotspots,
        grammar_nonterminals,
        grammar_productions,
        analysis_time,
        check_time,
        warnings: analysis.warnings,
        unmodeled: analysis.unmodeled.into_iter().collect(),
        files_analyzed: analysis.files_analyzed,
        inputs: analysis.inputs.into_iter().collect(),
        degradations: analysis.degradations,
        skipped: None,
    })
}

/// Nonterminal and production counts of the grammar reachable from the
/// page's sink roots — the Table 1 |V| and |R| columns.
fn query_grammar_size(cfg: &Cfg, roots: &[NtId]) -> (usize, usize) {
    let reached = cfg.reachable_from(roots);
    let productions = reached.iter().map(|&id| cfg.productions(id).len()).sum();
    (reached.len(), productions)
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one page analysis with panic isolation: a panic inside the
/// analyzer or checker becomes a skipped page, not a crashed run.
fn isolated<F>(entry: &str, analyze: F) -> PageReport
where
    F: FnOnce() -> Result<PageReport, AnalyzeError> + std::panic::UnwindSafe,
{
    match std::panic::catch_unwind(analyze) {
        Ok(Ok(p)) => p,
        Ok(Err(err)) => PageReport::skipped_page(entry, format!("page skipped: {err}")),
        Err(payload) => PageReport::skipped_page(
            entry,
            format!("page skipped: analyzer panicked: {}", panic_message(&*payload)),
        ),
    }
}

/// Analyzes a whole application: each entry is a page's top-level file
/// (the paper analyzes every page of each subject).
///
/// Pages that fail to parse — or whose analysis panics — are skipped
/// with a synthetic report ([`PageReport::skipped_page`]); skipped
/// pages are never counted verified.
pub fn analyze_app(name: &str, vfs: &Vfs, entries: &[&str], config: &Config) -> AppReport {
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let pages = entries
        .iter()
        .map(|&e| {
            isolated(e, std::panic::AssertUnwindSafe(|| {
                analyze_page_cached(vfs, e, config, &checker, &summaries)
            }))
        })
        .collect();
    AppReport {
        name: name.to_owned(),
        files: vfs.len(),
        lines: vfs.total_lines(),
        pages,
        summary_hits: summaries.hits(),
        summary_misses: summaries.misses(),
    }
}

/// Like [`analyze_app`], analyzing pages on worker threads — the
/// "concurrent executions of the analyzer" speedup the paper suggests
/// in §5.3 (pages are independent; each re-analyzes its includes).
///
/// Fault isolation: each page runs under `catch_unwind`, so a panic in
/// one page yields a skipped [`PageReport`] for that page while every
/// other page completes normally. No lock is held across page analyses
/// (workers buffer results locally), so a worker fault can never poison
/// shared state.
pub fn analyze_app_parallel(
    name: &str,
    vfs: &Vfs,
    entries: &[&str],
    config: &Config,
    workers: usize,
) -> AppReport {
    let summaries = SummaryCache::new();
    analyze_app_parallel_cached(name, vfs, entries, config, workers, &summaries)
}

/// Like [`analyze_app_parallel`], sharing a caller-owned
/// [`SummaryCache`]: each file reached from several pages is parsed and
/// lowered to IR once, then instantiated per page. The cache is
/// thread-safe (lowering happens outside its lock), and the report's
/// `summary_hits`/`summary_misses` expose its effectiveness.
pub fn analyze_app_parallel_cached(
    name: &str,
    vfs: &Vfs,
    entries: &[&str],
    config: &Config,
    workers: usize,
    summaries: &SummaryCache,
) -> AppReport {
    let checker = PolicyChecker::new();
    let mut app = analyze_app_parallel_with(name, vfs, entries, workers, |vfs, entry| {
        analyze_page_cached(vfs, entry, config, &checker, summaries)
    });
    app.summary_hits = summaries.hits();
    app.summary_misses = summaries.misses();
    app
}

/// The engine behind [`analyze_app_parallel`], generic over the
/// per-page analysis so callers (and fault-injection tests) can
/// substitute their own. `analyze` runs under `catch_unwind`; a panic
/// or error produces a skipped page report in that page's slot.
pub fn analyze_app_parallel_with<F>(
    name: &str,
    vfs: &Vfs,
    entries: &[&str],
    workers: usize,
    analyze: F,
) -> AppReport
where
    F: Fn(&Vfs, &str) -> Result<PageReport, AnalyzeError> + Sync,
{
    let workers = workers.max(1).min(entries.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let analyze = &analyze;

    // Workers buffer (index, report) pairs locally; results are merged
    // after joining. No shared mutable state, hence nothing to poison.
    let mut produced: Vec<(usize, PageReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= entries.len() {
                            break;
                        }
                        let page = isolated(
                            entries[i],
                            std::panic::AssertUnwindSafe(|| analyze(vfs, entries[i])),
                        );
                        local.push((i, page));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker death is unreachable in practice (pages are
            // caught individually), but must not take down the run:
            // its pages fall through to the skipped-page backfill.
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });

    produced.sort_by_key(|&(i, _)| i);
    let mut pages: Vec<PageReport> = Vec::with_capacity(entries.len());
    let mut produced = produced.into_iter().peekable();
    for (i, &entry) in entries.iter().enumerate() {
        match produced.peek() {
            Some(&(j, _)) if j == i => {
                pages.push(produced.next().map(|(_, p)| p).expect("peeked entry exists"));
            }
            _ => pages.push(PageReport::skipped_page(
                entry,
                "page skipped: worker thread terminated abnormally".to_owned(),
            )),
        }
    }

    AppReport {
        name: name.to_owned(),
        files: vfs.len(),
        lines: vfs.total_lines(),
        pages,
        summary_hits: 0,
        summary_misses: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_safe_page() {
        let mut vfs = Vfs::new();
        vfs.add(
            "a.php",
            "<?php $r = $DB->query(\"SELECT * FROM t WHERE id=1\");",
        );
        let r = analyze_page(&vfs, "a.php", &Config::default()).unwrap();
        assert!(r.is_verified());
        assert_eq!(r.hotspots.len(), 1);
    }

    #[test]
    fn unsanitized_get_is_reported() {
        let mut vfs = Vfs::new();
        vfs.add(
            "a.php",
            r#"<?php
$id = $_GET['id'];
$r = $DB->query("SELECT * FROM t WHERE id='$id'");
"#,
        );
        let r = analyze_page(&vfs, "a.php", &Config::default()).unwrap();
        assert!(!r.is_verified());
        let findings: Vec<_> = r.findings().collect();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.taint.is_direct());
    }

    #[test]
    fn addslashes_in_quotes_verifies() {
        let mut vfs = Vfs::new();
        vfs.add(
            "a.php",
            r#"<?php
$name = addslashes($_POST['name']);
$r = $DB->query("SELECT * FROM u WHERE name='$name'");
"#,
        );
        let r = analyze_page(&vfs, "a.php", &Config::default()).unwrap();
        assert!(r.is_verified(), "{r}");
    }

    #[test]
    fn addslashes_unquoted_numeric_context_reported() {
        // The taint-analysis blind spot from the paper's introduction:
        // escape_quotes-style sanitization does NOT protect an unquoted
        // numeric position.
        let mut vfs = Vfs::new();
        vfs.add(
            "a.php",
            r#"<?php
$id = addslashes($_GET['id']);
$r = $DB->query("SELECT * FROM t WHERE id=$id");
"#,
        );
        let r = analyze_page(&vfs, "a.php", &Config::default()).unwrap();
        assert!(!r.is_verified(), "escaped-but-unquoted must be flagged");
    }

    #[test]
    fn missing_entry_errors() {
        let vfs = Vfs::new();
        assert!(analyze_page(&vfs, "nope.php", &Config::default()).is_err());
    }

    #[test]
    fn app_aggregation_dedups() {
        let mut vfs = Vfs::new();
        vfs.add(
            "lib.php",
            r#"<?php
function get_user($id) {
    global $DB;
    return $DB->query("SELECT * FROM u WHERE id='" . $id . "'");
}
"#,
        );
        for page in ["p1.php", "p2.php"] {
            vfs.add(
                page,
                r#"<?php
include('lib.php');
$u = get_user($_GET['id']);
"#,
            );
        }
        let app = analyze_app("demo", &vfs, &["p1.php", "p2.php"], &Config::default());
        // Same vulnerable hotspot (lib.php) reached from two pages:
        // counted once.
        assert_eq!(app.distinct_findings().len(), 1);
        assert_eq!(app.direct_findings().len(), 1);
        assert!(app.indirect_findings().is_empty());
    }

    #[test]
    fn missing_page_is_skipped_not_verified() {
        let mut vfs = Vfs::new();
        vfs.add("ok.php", "<?php $r = $DB->query(\"SELECT 1\");");
        let app = analyze_app("demo", &vfs, &["ok.php", "nope.php"], &Config::default());
        assert_eq!(app.pages.len(), 2);
        assert!(app.pages[0].is_verified());
        assert!(app.pages[1].skipped.is_some());
        assert!(!app.pages[1].is_verified(), "skipped is never verified");
        assert_eq!(app.skipped_pages(), 1);
        assert_eq!(app.files_analyzed(), 1, "skipped pages analyze no files");
    }

    #[test]
    fn worker_panic_isolated_to_its_page() {
        let mut vfs = Vfs::new();
        for p in ["a.php", "b.php", "c.php"] {
            vfs.add(p, "<?php $r = $DB->query(\"SELECT 1\");");
        }
        let config = Config::default();
        let checker = PolicyChecker::new();
        let summaries = SummaryCache::new();
        let app = analyze_app_parallel_with(
            "demo",
            &vfs,
            &["a.php", "b.php", "c.php"],
            2,
            |vfs, entry| {
                if entry == "b.php" {
                    panic!("injected fault for {entry}");
                }
                analyze_page_cached(vfs, entry, &config, &checker, &summaries)
            },
        );
        assert_eq!(app.pages.len(), 3);
        assert!(app.pages[0].is_verified());
        assert!(app.pages[2].is_verified());
        let skipped = app.pages[1].skipped.as_deref().expect("b.php skipped");
        assert!(skipped.contains("injected fault"), "{skipped}");
        assert!(!app.pages[1].is_verified());
        assert_eq!(app.skipped_pages(), 1);
    }

    #[test]
    fn fuel_exhaustion_never_verifies() {
        // This page verifies under an unlimited budget (see
        // `addslashes_in_quotes_verifies`); proving it costs fuel, so a
        // tiny budget trips mid-proof.
        let mut vfs = Vfs::new();
        vfs.add(
            "a.php",
            r#"<?php
$name = addslashes($_POST['name']);
$r = $DB->query("SELECT * FROM u WHERE name='$name'");
"#,
        );
        let config = Config {
            fuel: Some(5),
            ..Config::default()
        };
        let r = analyze_page(&vfs, "a.php", &config).unwrap();
        // The page is actually safe, but fuel ran out before the proof
        // finished: it must NOT be reported verified.
        assert!(!r.is_verified(), "budget trip must not claim verified");
        assert!(r.is_degraded(), "exhaustion must surface as a degradation");
        assert!(
            r.findings().count() > 0,
            "an unproven hotspot must carry a conservative finding"
        );
    }
}
