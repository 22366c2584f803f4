//! Differential test: observation never perturbs analysis.
//!
//! The tracing layer promises that no verdict byte depends on the
//! tracing mode — spans read clocks and bump atomics, nothing else.
//! This test runs corpus applications once with tracing fully off and
//! once with full tracing active (the `--trace-json` configuration,
//! trace actually written), renders every page verdict through the
//! daemon's wire serializer and all findings through the SARIF
//! renderer, and requires the bytes to be identical.
//!
//! Wall-clock members (`analysis_ms`/`check_ms`) are zeroed before
//! rendering: they differ between any two runs regardless of mode and
//! carry no verdict content.
//!
//! The companion `#[ignore]`d test bounds the *overhead* of tracing
//! (aggregate mode within 5% of disabled on a warm corpus run); CI
//! runs it in a dedicated job where the machine is quiet.

use std::time::{Duration, Instant};

use strtaint::{analyze_page_cached, render, Config, PageReport, PolicyChecker, SummaryCache};
use strtaint_corpus::apps;
use strtaint_daemon::verdict::page_to_json;
use strtaint_obs as obs;

/// Analyzes every entry of `app`, zeroing the wall-clock members so
/// two runs of the same tree render identically.
fn run_app(app: &strtaint_corpus::App) -> Vec<PageReport> {
    let config = Config::default();
    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();
    app.entries
        .iter()
        .map(|entry| {
            let mut report = analyze_page_cached(&app.vfs, entry, &config, &checker, &summaries)
                .expect("corpus entries parse");
            report.analysis_time = Duration::ZERO;
            report.check_time = Duration::ZERO;
            report
        })
        .collect()
}

/// Renders the bytes a daemon client and a CI run would see: one wire
/// JSON line per page verdict, plus the SARIF document over all pages.
fn render_all(reports: &[PageReport]) -> (Vec<String>, String) {
    let verdicts = reports.iter().map(|r| page_to_json(r).to_string()).collect();
    (verdicts, render::sarif(reports))
}

#[test]
fn verdicts_and_sarif_are_byte_identical_across_tracing_modes() {
    for app in [apps::eve::build(), apps::utopia::build()] {
        // Baseline: tracing fully off.
        obs::set_mode(obs::Mode::Off);
        let (verdicts_off, sarif_off) = render_all(&run_app(&app));

        // Full tracing, trace written — the `--trace-json` path.
        obs::set_mode(obs::Mode::Full);
        obs::reset();
        let (verdicts_full, sarif_full) = render_all(&run_app(&app));
        let dir = std::env::temp_dir().join(format!("obs_invariance_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let trace_path = dir.join(format!("{}.trace.json", app.name));
        obs::write_chrome_trace(&trace_path).expect("trace written");
        obs::set_mode(obs::Mode::Off);

        assert_eq!(
            verdicts_off.len(),
            verdicts_full.len(),
            "{}: page count differs across modes",
            app.name
        );
        for (off, full) in verdicts_off.iter().zip(&verdicts_full) {
            assert_eq!(off, full, "{}: verdict bytes differ across modes", app.name);
        }
        assert_eq!(
            sarif_off, sarif_full,
            "{}: SARIF bytes differ across modes",
            app.name
        );

        // The written trace is well-formed under the daemon's parser
        // and covers the pipeline phases the run exercised.
        let trace = std::fs::read_to_string(&trace_path).expect("trace readable");
        let parsed = strtaint_daemon::json::parse(&trace).expect("trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(strtaint_daemon::json::Json::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty(), "{}: trace is empty", app.name);
        let names: std::collections::BTreeSet<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(strtaint_daemon::json::Json::as_str))
            .collect();
        for expected in ["page", "lower", "summary", "emit", "check"] {
            assert!(
                names.contains(expected),
                "{}: no {expected:?} span in trace (got {names:?})",
                app.name
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Tracing overhead bound: a warm corpus run with aggregate tracing
/// must stay within 5% of the same run with tracing off. Run with
/// `--ignored` (CI gives it a dedicated quiet job; laptop noise can
/// exceed the margin).
#[test]
#[ignore = "timing-sensitive; run via scripts/overhead.sh or CI's overhead job"]
fn aggregate_tracing_overhead_is_within_5_percent() {
    let app = apps::eve::build();
    // Each sample times several back-to-back corpus runs: a single
    // scheduler interruption (a couple of milliseconds on a busy CI
    // box) then costs a percent of the sample instead of swamping the
    // margin outright.
    let time_run = || {
        let t = Instant::now();
        for _ in 0..4 {
            run_app(&app);
        }
        t.elapsed().as_secs_f64()
    };
    // Warm up caches and the allocator before timing either mode.
    obs::set_mode(obs::Mode::Off);
    time_run();

    // Interleave the two modes round by round, alternating which goes
    // first, and take each mode's best. Two biases have to die here:
    // timing one mode's whole block after the other's turns load or
    // clock-frequency drift into a bias against the later mode, and on
    // a busy single-core machine even the *position within a round* is
    // biased — periodic background work can alias against the round
    // period and always land on the same slot. Alternating the order
    // gives both modes equal shots at every position, so min() finds
    // each mode's true floor.
    //
    // Samples on a loaded machine are roughly bimodal (clean vs
    // interrupted), so sample adaptively: stop as soon as both floors
    // demonstrate the bound, give up only after many rounds. A fixed
    // small round count flakes whenever one mode happens to draw only
    // interrupted samples.
    let mut off = f64::INFINITY;
    let mut aggregate = f64::INFINITY;
    for round in 0..12 {
        let pair = if round % 2 == 0 {
            [obs::Mode::Off, obs::Mode::Aggregate]
        } else {
            [obs::Mode::Aggregate, obs::Mode::Off]
        };
        for mode in pair {
            obs::set_mode(mode);
            obs::reset();
            let t = time_run();
            match mode {
                obs::Mode::Off => off = off.min(t),
                _ => aggregate = aggregate.min(t),
            }
        }
        if round >= 3 && aggregate <= off * 1.05 {
            break;
        }
    }
    obs::set_mode(obs::Mode::Off);

    let ratio = aggregate / off;
    assert!(
        ratio <= 1.05,
        "aggregate tracing overhead {:.1}% exceeds 5% (off {off:.4}s, aggregate {aggregate:.4}s)",
        (ratio - 1.0) * 100.0
    );
}

/// Diagnostic companion to the overhead bound: same harness, both
/// positions tracing-off. If this "null" pair ever shows a spread
/// comparable to the real pair, the discrepancy is measurement noise,
/// not tracing cost.
#[test]
#[ignore = "diagnostic; run manually with --ignored --nocapture"]
fn overhead_null_experiment() {
    let app = apps::eve::build();
    let time_run = || {
        let t = Instant::now();
        run_app(&app);
        t.elapsed().as_secs_f64()
    };
    obs::set_mode(obs::Mode::Off);
    time_run();
    let mut first = f64::INFINITY;
    let mut second = f64::INFINITY;
    for _ in 0..7 {
        obs::set_mode(obs::Mode::Off);
        first = first.min(time_run());
        obs::set_mode(obs::Mode::Off);
        obs::reset();
        second = second.min(time_run());
    }
    println!("null pair: first {first:.4}s second {second:.4}s ratio {:.3}", second / first);
}
