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

use strtaint_checker::fan_out;

pub use strtaint_analysis::{AnalyzeError, Config, Hotspot, Provenance, SummaryCache, Vfs};
pub use strtaint_checker::{
    CheckKind, CheckOptions, Checker, EngineStats, Evidence, Finding, HotspotReport, PolicyChecker,
};
pub use strtaint_grammar::{Budget, Cfg, DegradeAction, Degradation, NtId, Resource, Taint};
pub use strtaint_policy as policy;

/// Worker threads for one level of fan-out: the machine's available
/// parallelism.
fn parallelism() -> usize {
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
/// of once per page. A one-entry [`analyze_pages`] run: the page fans
/// its hotspots out across threads and exports their skeleton evidence
/// ([`Evidence::Skeletons`]).
///
/// # Errors
///
/// Returns [`AnalyzeError`] if the entry file is missing or fails to
/// parse, or if its analysis panics.
pub fn analyze_page_cached(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
    checker: &PolicyChecker,
    summaries: &SummaryCache,
) -> Result<PageReport, AnalyzeError> {
    let mut results = analyze_pages(
        vfs,
        &[entry],
        config,
        checker,
        summaries,
        Evidence::Skeletons,
    );
    results.pop().expect("one result per entry")
}

/// The page driver: analyzes every entry with one level of fan-out
/// and returns one result per entry, in entry order.
///
/// Pages are independent (the paper's §5.3 remark), so several entries
/// run as [`fan_out`] jobs on the machine's available parallelism,
/// sharing one [`PolicyChecker`] and one [`SummaryCache`], and each
/// page checks its hotspots on its own worker; a lone entry runs inline
/// and fans out its hotspots instead. The rule reads only the number
/// of entries. `evidence` selects whether the hotspot jobs also export
/// skeletons. Reports are identical to those of a serial loop over
/// the entries, timings aside. A page whose analysis panics yields
/// [`AnalyzeError::Panicked`] in its slot (see [`analyze_pages_with`]).
pub fn analyze_pages<E: AsRef<str> + Sync>(
    vfs: &Vfs,
    entries: &[E],
    config: &Config,
    checker: &PolicyChecker,
    summaries: &SummaryCache,
    evidence: Evidence,
) -> Vec<Result<PageReport, AnalyzeError>> {
    analyze_pages_then(
        vfs,
        entries,
        config,
        checker,
        summaries,
        evidence,
        |_, result| result,
    )
}

/// [`analyze_pages`], finishing each page on its worker as it
/// completes: `then` turns an entry's result into what the caller
/// keeps, so a run over many entries holds one report per worker at a
/// time, not one per entry.
pub fn analyze_pages_then<E, R, T>(
    vfs: &Vfs,
    entries: &[E],
    config: &Config,
    checker: &PolicyChecker,
    summaries: &SummaryCache,
    evidence: Evidence,
    then: T,
) -> Vec<R>
where
    E: AsRef<str> + Sync,
    R: Send,
    T: Fn(&E, Result<PageReport, AnalyzeError>) -> R + Sync,
{
    // The one-level fan-out rule: a run over several pages fans out
    // pages, so each page checks its hotspots on its own worker; a lone
    // page fans out its hotspots instead. Nesting both levels would
    // multiply the threads and the working sets in flight for no extra
    // cores.
    let hotspot_workers = if entries.len() > 1 { 1 } else { parallelism() };
    analyze_pages_with(
        entries,
        |entry| {
            page(
                vfs,
                entry,
                config,
                checker,
                summaries,
                evidence,
                hotspot_workers,
            )
        },
        then,
    )
}

/// The engine behind the page driver, generic over the per-page
/// analysis so fault-injection tests can substitute their own. Entries
/// run as [`fan_out`] jobs on the machine's available parallelism.
/// Each job runs `analyze` under `catch_unwind`, so a panic becomes
/// [`AnalyzeError::Panicked`] for that entry while every other page
/// completes normally, then hands the result to `then`.
pub fn analyze_pages_with<E, R, F, T>(entries: &[E], analyze: F, then: T) -> Vec<R>
where
    E: AsRef<str> + Sync,
    R: Send,
    F: Fn(&str) -> Result<PageReport, AnalyzeError> + Sync,
    T: Fn(&E, Result<PageReport, AnalyzeError>) -> R + Sync,
{
    fan_out(entries, parallelism(), |entry| {
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| analyze(entry.as_ref())))
                .unwrap_or_else(|payload| Err(AnalyzeError::Panicked(panic_message(&*payload))));
        then(entry, result)
    })
}

/// A page whose analysis failed, named by its entry.
#[derive(Debug)]
pub struct EntryError {
    /// The entry file, as the caller named it.
    pub entry: String,
    /// Why the page could not be analyzed.
    pub error: AnalyzeError,
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.entry, self.error)
    }
}

impl std::error::Error for EntryError {}

/// The [`analyze_pages`] results over `entries` as reports, or the
/// first failing entry in entry order.
///
/// # Errors
///
/// Returns the first failing entry and its [`AnalyzeError`].
pub fn first_error<E: AsRef<str>>(
    entries: &[E],
    results: Vec<Result<PageReport, AnalyzeError>>,
) -> Result<Vec<PageReport>, EntryError> {
    entries
        .iter()
        .zip(results)
        .map(|(entry, r)| {
            r.map_err(|error| EntryError {
                entry: entry.as_ref().to_owned(),
                error,
            })
        })
        .collect()
}

/// Analyzes and checks one page, its hotspots on `hotspot_workers`
/// threads.
fn page(
    vfs: &Vfs,
    entry: &str,
    config: &Config,
    checker: &PolicyChecker,
    summaries: &SummaryCache,
    evidence: Evidence,
    hotspot_workers: usize,
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
    // All sinks of the page are checked in one batch sharing the
    // checker's prepared memo; reports come back in program order,
    // identical to the serial loop.
    let reports =
        checker.check_hotspots_with(&analysis.cfg, &items, &budget, hotspot_workers, evidence);
    let mut hotspots = Vec::new();
    for (h, mut r) in sites.iter().zip(reports) {
        if let Some(span) = h.provenance.arg_span {
            for f in &mut r.findings {
                f.at = Some((span.line, span.col));
            }
        }
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

/// Analyzes a whole application: each entry is a page's top-level file
/// (the paper analyzes every page of each subject). Pages run one at a
/// time, each a one-entry [`analyze_pages`] run that fans out its
/// hotspots, so every page's timings are its own (Table 1 reads them);
/// reports carry verdicts only ([`Evidence::Verdicts`]).
///
/// Pages that fail to parse — or whose analysis panics — are skipped
/// with a synthetic report ([`PageReport::skipped_page`]); skipped
/// pages are never counted verified.
pub fn analyze_app(name: &str, vfs: &Vfs, entries: &[&str], config: &Config) -> AppReport {
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let pages = entries
        .iter()
        .map(|&entry| {
            analyze_pages(
                vfs,
                &[entry],
                config,
                &checker,
                &summaries,
                Evidence::Verdicts,
            )
            .pop()
            .expect("one result per entry")
            .unwrap_or_else(|err| PageReport::skipped_page(entry, format!("page skipped: {err}")))
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
        let faulty = |entry: &str| {
            if entry == "b.php" {
                panic!("injected fault for {entry}");
            }
            analyze_page_cached(&vfs, entry, &config, &checker, &summaries)
        };
        let results = analyze_pages_with(&["a.php", "b.php", "c.php"], faulty, |_, r| r);
        assert_eq!(results.len(), 3);
        assert!(results[0].as_ref().is_ok_and(PageReport::is_verified));
        assert!(results[2].as_ref().is_ok_and(PageReport::is_verified));
        match &results[1] {
            Err(err @ AnalyzeError::Panicked(_)) => assert_eq!(
                err.to_string(),
                "analyzer panicked: injected fault for b.php"
            ),
            other => panic!("b.php must fail as a panic: {other:?}"),
        }
    }

    #[test]
    fn panic_skip_reason_names_the_payload() {
        let err = analyze_pages_with(&["x.php"], |_| panic!("boom"), |_, r| r)
            .pop()
            .unwrap()
            .unwrap_err();
        assert_eq!(
            format!("page skipped: {err}"),
            "page skipped: analyzer panicked: boom"
        );
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
