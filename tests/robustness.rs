//! Fault-tolerance and resource-governance tests: pathological pages
//! must return within their budgets, budget trips must surface as
//! degradations, and degradation may only lose *precision* — a hotspot
//! that is vulnerable under an unlimited budget must never be reported
//! verified under any budget (soundness of degradation).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use strtaint::{
    analyze_page, analyze_page_cached, analyze_pages_then, analyze_pages_with, render, CheckKind,
    Config, Evidence, PageReport, PolicyChecker, SummaryCache, Vfs,
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

/// A driver result as `analyze_app` reports it.
fn app_page(entry: &str, result: Result<PageReport, strtaint::AnalyzeError>) -> PageReport {
    result.unwrap_or_else(|err| PageReport::skipped_page(entry, format!("page skipped: {err}")))
}

#[test]
fn panicking_page_is_isolated_in_parallel_run() {
    let mut vfs = Vfs::new();
    vfs.add("ok1.php", "<?php $r = $DB->query(\"SELECT 1\");");
    vfs.add("boom.php", "<?php $r = $DB->query(\"SELECT 2\");");
    vfs.add(
        "ok2.php",
        "<?php $id = $_GET['id']; $r = $DB->query(\"SELECT '$id'\");",
    );
    let entries = ["ok1.php", "boom.php", "ok2.php"];
    let config = Config::default();
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    // The seam under the page driver, with a fault injected into one
    // page of a multi-entry run.
    let faulty = |entry: &str| {
        if entry == "boom.php" {
            panic!("simulated analyzer fault");
        }
        analyze_page_cached(&vfs, entry, &config, &checker, &summaries)
    };
    let pages = analyze_pages_with(&entries, faulty, |e, r| app_page(e, r));
    assert_eq!(pages.len(), 3, "every page gets a report slot");
    assert_eq!(
        pages[1].skipped.as_deref(),
        Some("page skipped: analyzer panicked: simulated analyzer fault")
    );
    assert!(!pages[1].is_verified(), "a skipped page never verifies");
    assert_eq!(
        pages[1].files_analyzed, 0,
        "the skipped page analyzes no files"
    );

    // Every other page is intact: it renders as a fault-free run does.
    let clean = analyze_pages_then(
        &vfs,
        &entries,
        &config,
        &PolicyChecker::new(),
        &SummaryCache::new(),
        Evidence::Skeletons,
        |e, r| app_page(e, r),
    );
    for i in [0, 2] {
        let json = |p: &PageReport| render::json_report(std::slice::from_ref(p), None);
        let sarif = |p: &PageReport| render::sarif(std::slice::from_ref(p));
        let strip = |s: String| -> String {
            s.lines()
                .filter(|l| !l.contains("_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(json(&pages[i])),
            strip(json(&clean[i])),
            "{}",
            entries[i]
        );
        assert_eq!(sarif(&pages[i]), sarif(&clean[i]), "{}", entries[i]);
    }
    assert!(pages[0].is_verified(), "healthy pages complete");
    assert!(!pages[2].is_verified(), "healthy pages keep their findings");
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
    let pages = analyze_pages_then(
        &vfs,
        &["fast.php", "slow.php"],
        &config,
        &checker,
        &summaries,
        Evidence::Verdicts,
        |e, r| app_page(e, r),
    );
    assert_eq!(pages.len(), 2);
    // The fast page charges so little fuel that the amortized deadline
    // check never fires — it completes and verifies.
    assert!(pages[0].is_verified(), "cheap page unaffected");
    assert!(!pages[1].is_verified(), "slow page stays conservative");
    assert!(pages[1].is_degraded() || pages[1].skipped.is_some());
}

/// The prepared kernel's worst case on corpus-sized input: the full
/// Bar-Hillel fixpoint of the sql C4 attack automaton over the
/// `_GET[name]` grammar (after three transducer images) of the chain-2
/// synthetic app's `page1.php` (82,640 normalized nonterminals × 27
/// states). The checker's
/// early-exit query stops long before this, because the intersection is
/// non-empty; a grammar this size with an empty C4 answer runs the
/// whole fixpoint under the default unlimited fuel, so it must finish,
/// and it must realize exactly what every earlier kernel realized.
/// Ignored in the debug tier-1 run (~16 s there); CI runs it in release
/// with `--ignored`.
#[test]
#[ignore = "release-mode robustness case; run with --release -- --ignored"]
fn c4_worst_case_full_fixpoint_completes() {
    use strtaint_automata::ClassDfa;
    use strtaint_checker::abstraction::maximal_labeled;
    use strtaint_corpus::{synth_app, SynthConfig};
    use strtaint_grammar::{Budget, PreparedGrammar, QueryMode};

    let app = synth_app(&SynthConfig {
        pages: 6,
        replace_chain: 2,
        ..SynthConfig::default()
    });
    let config = Config {
        policies: vec!["sql".to_owned()],
        ..Config::default()
    };
    let a = strtaint_analysis::analyze(&app.vfs, "page1.php", &config).expect("page1 analyzes");
    let x = a
        .hotspots
        .iter()
        .flat_map(|h| maximal_labeled(&a.cfg, h.root))
        .find(|&x| a.cfg.name(x) == "_GET[name]↦↦↦")
        .expect("_GET[name]'s transducer image is labeled under a hotspot");
    let prep = PreparedGrammar::new(&a.cfg, x);
    assert_eq!(prep.num_nonterminals(), 82_640);

    let sql = strtaint::policy::builtin()
        .into_iter()
        .find(|p| p.id == "sql")
        .expect("the sql policy is built in");
    let c4 = (sql.cascade)()
        .steps
        .into_iter()
        .find(|s| s.span == Some("check:C4"))
        .expect("the sql cascade has a C4 step");
    let dfa = ClassDfa::new(&c4.dfa);
    assert_eq!(dfa.num_states(), 27);
    let t0 = Instant::now();
    let ix = prep
        .query(&dfa, &Budget::unlimited(), QueryMode::Full)
        .expect("an unlimited budget cannot trip");
    let wall = t0.elapsed();
    assert!(!ix.is_empty());
    assert_eq!((ix.triples(), ix.charged()), (56_808_036, 148_497_504));
    eprintln!("C4 worst case: full fixpoint in {wall:?}");
}
