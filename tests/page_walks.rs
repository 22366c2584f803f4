//! The checker walks each page grammar once. One page index per page
//! gives every hotspot its candidates, and each distinct candidate's
//! content key is computed once per page however many hotspots check
//! it. Span counts from one run over the 30-page synthetic app pin
//! both, so per-hotspot walks cannot creep back.
//!
//! Spans are collected process-wide, so this file holds one test.

use std::collections::BTreeSet;

use strtaint::{analyze_pages, Config, Evidence, PolicyChecker, SummaryCache};
use strtaint_analysis::analyze;
use strtaint_checker::abstraction::maximal_labeled;
use strtaint_corpus::synth::{synth_app, SynthConfig};
use strtaint_obs as obs;

#[test]
fn synth_pages_index_once_and_key_each_candidate_once() {
    let app = synth_app(&SynthConfig {
        pages: 30,
        sinks_per_page: 3,
        replace_chain: 1,
        seed: 7,
        ..SynthConfig::default()
    });
    let config = Config::default();

    obs::set_mode(obs::Mode::Aggregate);
    obs::reset();
    let pages = analyze_pages(
        &app.vfs,
        &app.entries,
        &config,
        &PolicyChecker::new(),
        &SummaryCache::new(),
        Evidence::Verdicts,
    );
    let phases = obs::phases();
    obs::set_mode(obs::Mode::Off);
    assert!(pages.iter().all(Result::is_ok));
    let count = |name: &str| {
        phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.count)
    };

    // The distinct candidates of each page's hotspots, the slow way.
    let distinct: u64 = app
        .entries
        .iter()
        .map(|entry| {
            let a = analyze(&app.vfs, entry, &config).expect("page analyzes");
            let candidates: BTreeSet<_> = a
                .hotspots
                .iter()
                .flat_map(|h| maximal_labeled(&a.cfg, h.root))
                .collect();
            candidates.len() as u64
        })
        .sum();

    assert_eq!(count("page-index"), 30, "one index per page");
    assert_eq!(
        count("pmemo:fp"),
        distinct,
        "one key walk per distinct candidate"
    );
    // Three hotspots per page share one candidate: 30 key walks where
    // a walk per hotspot and candidate would make 90.
    assert_eq!(distinct, 30);
    assert_eq!(count("check"), 90);
}
