//! Cold vs. warm summary-cache analysis over the synthetic corpus.
//!
//! Measures what the staged AST→IR→grammar pipeline buys: with one
//! [`SummaryCache`] shared across pages, a file reached by many pages
//! (the shared `lib.php` include, byte-identical page bodies) is parsed
//! and lowered once and instantiated per page, so the warm runs pay
//! only the IR→grammar emission cost. `scripts/bench.sh` turns this
//! output into `BENCH_analyze.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use strtaint::{analyze_page_cached, Config, PolicyChecker, SummaryCache};
use strtaint_corpus::synth::{synth_app, SynthConfig};

/// Page-count override from `STRTAINT_BENCH_PAGES` (set by
/// `scripts/bench.sh --pages N`), so the same bench sources sweep from
/// the committed baseline up to fleet-scale (1k+) corpora.
fn pages_override() -> Option<usize> {
    std::env::var("STRTAINT_BENCH_PAGES").ok()?.parse().ok()
}

fn bench_analyze(c: &mut Criterion) {
    let config = Config::default();
    let checker = PolicyChecker::new();
    let mut group = c.benchmark_group("analyze");
    group.sample_size(10);

    let page_counts = match pages_override() {
        Some(p) => vec![p],
        None => vec![10usize, 30],
    };
    for pages in page_counts {
        let app = synth_app(&SynthConfig {
            pages,
            ..SynthConfig::default()
        });
        let entries = app.entry_refs();

        // Cold: no shared cache — every page re-lowers its includes.
        group.bench_function(format!("cold/{pages}pages"), |b| {
            b.iter(|| {
                for e in &entries {
                    let fresh = SummaryCache::new();
                    let r = analyze_page_cached(&app.vfs, e, &config, &checker, &fresh).unwrap();
                    std::hint::black_box(r.hotspots.len());
                }
            })
        });

        // Warm: one cache shared across pages, pre-warmed so every
        // iteration measures pure instantiation (cache at steady state).
        let summaries = SummaryCache::new();
        for e in &entries {
            analyze_page_cached(&app.vfs, e, &config, &checker, &summaries).unwrap();
        }
        group.bench_function(format!("warm/{pages}pages"), |b| {
            b.iter(|| {
                for e in &entries {
                    let r =
                        analyze_page_cached(&app.vfs, e, &config, &checker, &summaries).unwrap();
                    std::hint::black_box(r.hotspots.len());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
