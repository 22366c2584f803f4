//! Phase-time breakdown from the structured tracing layer.
//!
//! Where `phases.rs` times the two paper phases by calling them
//! separately, this bench runs the *whole* pipeline under
//! `strtaint-obs` aggregate tracing and reports where the time went
//! phase by phase (page / summary / lower / emit / refine / prepare /
//! intersect / witness / check), exactly as `--stats` and
//! `--trace-json` would attribute it. The medians land in
//! BENCH_analyze.json via scripts/bench.sh, so a regression in any
//! single phase shows up in review even when the end-to-end time
//! stays flat.
//!
//! Also writes one full Chrome-trace artifact of the last run to
//! `target/trace_phases.json` (load in chrome://tracing) as the
//! smoke-level proof that the trace writer covers a corpus-sized run.
//!
//! Output format matches the vendored criterion shim line protocol
//! (`bench <name> median <duration> (<n> samples)`), which
//! scripts/bench.sh parses.

use std::collections::BTreeMap;
use std::time::Duration;

use strtaint::{analyze_page_cached, Config, PolicyChecker, SummaryCache};
use strtaint_obs as obs;

const SAMPLES: usize = 5;

fn corpus_run() {
    let config = Config::default();
    for app in [
        strtaint_corpus::apps::eve::build(),
        strtaint_corpus::apps::utopia::build(),
        strtaint_corpus::apps::warp::build(),
    ] {
        let checker = PolicyChecker::new();
        let summaries = SummaryCache::new();
        for e in &app.entries {
            let r = analyze_page_cached(&app.vfs, e, &config, &checker, &summaries)
                .expect("corpus entries parse");
            std::hint::black_box(r.findings().count());
        }
    }
}

fn main() {
    // Per-phase total for each sample run: phase name -> totals.
    let mut totals: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for sample in 0..SAMPLES {
        // Full mode on the last sample so the trace artifact exists;
        // aggregate mode (the cheap path) for the timed majority.
        obs::set_mode(if sample + 1 == SAMPLES {
            obs::Mode::Full
        } else {
            obs::Mode::Aggregate
        });
        obs::reset();
        corpus_run();
        for p in obs::phases() {
            totals.entry(p.name).or_default().push(p.total_us);
        }
    }

    let artifact = std::path::Path::new("../../target/trace_phases.json");
    obs::write_chrome_trace(artifact).expect("trace artifact written");
    obs::set_mode(obs::Mode::Off);

    for (name, mut samples) in totals {
        samples.sort_unstable();
        let median = Duration::from_micros(samples[samples.len() / 2]);
        let label = format!("phase/{name}");
        println!(
            "bench {label:<60} median {median:>12.3?} ({SAMPLES} samples)"
        );
    }
}
