//! Fault-tolerance and resource-governance tests: pathological pages
//! must return within their budgets, budget trips must surface as
//! degradations, and degradation may only lose *precision* — a hotspot
//! that is vulnerable under an unlimited budget must never be reported
//! verified under any budget (soundness of degradation).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use strtaint::{
    analyze_app_parallel_with, analyze_page, analyze_page_cached, CheckKind, Config,
    PolicyChecker, SummaryCache, Vfs,
};

/// A page chaining `n` `str_replace` calls over a tainted value into an
/// unquoted (vulnerable) numeric sink. Transducer images compose
/// multiplicatively, so deep chains are the classic blow-up (the
/// paper's Tiger PHP News System effect, §5.3).
fn deep_replace_page(n: usize) -> String {
    let mut src = String::from("<?php\n$x = $_GET['a'];\n");
    for i in 0..n {
        let a = (b'a' + (i % 26) as u8) as char;
        let b = (b'a' + ((i + 1) % 26) as u8) as char;
        writeln!(src, "$x = str_replace('{a}', '{b}{b}', $x);").expect("write to string");
    }
    src.push_str("$r = $DB->query(\"SELECT * FROM t WHERE id=$x\");\n");
    src
}

/// A page concatenating a tainted value into a query `n` times —
/// a 1000-way nested concatenation grows the grammar linearly but
/// stresses every worklist.
fn nested_concat_page(n: usize) -> String {
    let mut src = String::from("<?php\n$q = 'SELECT * FROM t WHERE a=';\n");
    for _ in 0..n {
        src.push_str("$q = $q . $_GET['a'];\n");
    }
    src.push_str("$r = $DB->query($q);\n");
    src
}

/// A page guarding a tainted value with an alternation-heavy —
/// and unanchored, hence useless — regex before a quoted sink.
/// Intersecting with the alternation automaton is the expensive step.
fn alternation_page(n: usize) -> String {
    let mut alts = Vec::new();
    for i in 0..n {
        let a = (b'a' + (i % 26) as u8) as char;
        let b = (b'a' + ((i / 26) % 26) as u8) as char;
        alts.push(format!("{a}{b}{a}"));
    }
    let mut src = String::from("<?php\n$x = $_GET['a'];\n");
    writeln!(src, "if (preg_match('/({})/', $x)) {{", alts.join("|")).expect("write to string");
    src.push_str("  $r = $DB->query(\"SELECT * FROM t WHERE name='$x'\");\n}\n");
    src
}

fn vfs_with(src: &str) -> Vfs {
    let mut vfs = Vfs::new();
    vfs.add("page.php", src);
    vfs
}

fn config_with(timeout: Option<Duration>, fuel: Option<u64>) -> Config {
    Config {
        timeout,
        fuel,
        ..Config::default()
    }
}

/// The core conservativity check: analyze a feasible-size variant of
/// the page under an unlimited budget to establish the true verdict,
/// then `src` (a same-shape page, possibly far larger) under each
/// constrained budget; when the unlimited run finds the construction
/// vulnerable, no constrained run may report it verified.
///
/// The unlimited baseline runs on the smaller variant because the
/// pathological sizes are intractable without budgets — which is the
/// point of this suite.
fn assert_budgets_conservative(
    baseline_src: &str,
    src: &str,
    budgets: &[(Option<Duration>, Option<u64>)],
) {
    let unlimited = analyze_page(&vfs_with(baseline_src), "page.php", &Config::default())
        .expect("baseline page parses");
    assert!(
        !unlimited.is_verified(),
        "baseline must be vulnerable under an unlimited budget"
    );
    let vfs = vfs_with(src);
    for &(timeout, fuel) in budgets {
        let r = analyze_page(&vfs, "page.php", &config_with(timeout, fuel))
            .expect("budgeted run still returns a report");
        assert!(
            !r.is_verified(),
            "vulnerable under unlimited budget but verified under \
             timeout={timeout:?} fuel={fuel:?} — degradation lost soundness"
        );
    }
}

#[test]
fn deep_str_replace_chain_stays_within_fuel() {
    // 24 chained transducer images blow up multiplicatively — an
    // unlimited run is intractable; the fuel budget must cut it short.
    let src = deep_replace_page(24);
    let vfs = vfs_with(&src);
    let t0 = Instant::now();
    let r = analyze_page(&vfs, "page.php", &config_with(None, Some(20_000)))
        .expect("fuel exhaustion must degrade, not error");
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "the fuel budget must bound the deep replace chain"
    );
    // The sink is genuinely vulnerable (unquoted numeric context), so
    // whether or not fuel ran out the page must not verify.
    assert!(!r.is_verified());
    // And if fuel did run out, that must be visible, with every
    // affected hotspot carrying a conservative finding.
    if r.is_degraded() {
        assert!(r.all_degradations().count() > 0);
        assert!(r.findings().count() > 0);
    }
    assert_budgets_conservative(
        &deep_replace_page(6),
        &src,
        &[
            (None, Some(1)),
            (None, Some(100)),
            (None, Some(10_000)),
            (Some(Duration::from_nanos(1)), None),
        ],
    );
}

#[test]
fn thousand_way_nested_concat_completes() {
    let src = nested_concat_page(1000);
    let vfs = vfs_with(&src);
    let t0 = Instant::now();
    let r = analyze_page(&vfs, "page.php", &config_with(None, Some(200_000)))
        .expect("deep concatenation must not error");
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "a 1000-way concat must finish promptly under a fuel budget"
    );
    // Tainted, unsanitized, string-context-free sink: vulnerable.
    assert!(!r.is_verified());
    assert_budgets_conservative(
        &nested_concat_page(20),
        &src,
        &[(None, Some(10)), (None, Some(100_000))],
    );
}

#[test]
fn alternation_heavy_regex_degrades_soundly() {
    let src = alternation_page(48);
    let vfs = vfs_with(&src);
    // Unlimited run: the unanchored alternation does not confine the
    // input, so the quoted sink is vulnerable.
    let unlimited =
        analyze_page(&vfs, "page.php", &Config::default()).expect("page parses");
    assert!(!unlimited.is_verified(), "unanchored guard must not verify");
    // A small fuel budget trips inside the grammar–automaton
    // intersection; the refinement is abandoned (kept unrefined /
    // widened), which must preserve the vulnerability verdict.
    for fuel in [1u64, 50, 1_000, 50_000] {
        let r = analyze_page(&vfs, "page.php", &config_with(None, Some(fuel)))
            .expect("budgeted run returns");
        assert!(!r.is_verified(), "fuel={fuel} must stay conservative");
    }
}

#[test]
fn expired_deadline_emits_degradations() {
    // A deadline that has already passed when analysis starts: the
    // amortized deadline check trips as soon as enough fuel ticks
    // accumulate, and every loss is recorded.
    let src = deep_replace_page(12);
    let vfs = vfs_with(&src);
    let t0 = Instant::now();
    let r = analyze_page(
        &vfs,
        "page.php",
        &config_with(Some(Duration::from_nanos(1)), None),
    )
    .expect("deadline expiry must degrade, not error");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "an expired deadline must cut the analysis short"
    );
    assert!(r.is_degraded(), "deadline trips must be reported");
    assert!(
        r.all_degradations()
            .any(|d| d.to_string().contains("deadline")),
        "degradations must name the exhausted resource"
    );
    assert!(!r.is_verified(), "degraded page must not claim verified");
    assert!(
        r.findings()
            .any(|(_, f)| f.kind == CheckKind::BudgetExhausted)
            || r.findings().count() > 0,
        "unproven hotspots must carry conservative findings"
    );
}

#[test]
fn panicking_page_is_isolated_in_parallel_run() {
    let mut vfs = Vfs::new();
    vfs.add("ok1.php", "<?php $r = $DB->query(\"SELECT 1\");");
    vfs.add("boom.php", "<?php $r = $DB->query(\"SELECT 2\");");
    vfs.add("ok2.php", "<?php $r = $DB->query(\"SELECT 3\");");
    let config = Config::default();
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let app = analyze_app_parallel_with(
        "faulty",
        &vfs,
        &["ok1.php", "boom.php", "ok2.php"],
        2,
        |vfs, entry| {
            if entry == "boom.php" {
                panic!("simulated analyzer fault");
            }
            analyze_page_cached(vfs, entry, &config, &checker, &summaries)
        },
    );
    assert_eq!(app.pages.len(), 3, "every page gets a report slot");
    assert!(app.pages[0].is_verified(), "healthy pages complete");
    assert!(app.pages[2].is_verified(), "healthy pages complete");
    let reason = app.pages[1].skipped.as_deref().expect("faulty page skipped");
    assert!(reason.contains("simulated analyzer fault"), "{reason}");
    assert!(!app.pages[1].is_verified(), "a skipped page never verifies");
    assert_eq!(app.skipped_pages(), 1);
    assert_eq!(
        app.files_analyzed(),
        2,
        "the skipped page contributes zero analyzed files"
    );
}

#[test]
fn per_page_deadline_skips_only_slow_pages() {
    // One cheap page and one page whose analysis is cut short by the
    // deadline: the cheap page must still verify while the slow page
    // degrades (per-page budgets, not per-app).
    let mut vfs = Vfs::new();
    vfs.add("fast.php", "<?php $r = $DB->query(\"SELECT 1\");");
    vfs.add("slow.php", deep_replace_page(12));
    let config = config_with(Some(Duration::from_nanos(1)), None);
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    let app = analyze_app_parallel_with(
        "mixed",
        &vfs,
        &["fast.php", "slow.php"],
        2,
        |vfs, entry| analyze_page_cached(vfs, entry, &config, &checker, &summaries),
    );
    assert_eq!(app.pages.len(), 2);
    // The fast page charges so little fuel that the amortized deadline
    // check never fires — it completes and verifies.
    assert!(app.pages[0].is_verified(), "cheap page unaffected");
    assert!(!app.pages[1].is_verified(), "slow page stays conservative");
    assert!(app.pages[1].is_degraded() || app.pages[1].skipped.is_some());
}
