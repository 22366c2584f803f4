//! Ablations of the §5.3 observations.
//!
//! - **Replacement chains**: each `str_replace` multiplies the
//!   intermediate grammar ("a sequence of these replacement expressions
//!   leads to a blow up that is exponential in the number of
//!   replacements" — the Tiger PHP News System effect). We sweep chain
//!   length and print each length's query grammar size |R| beside its
//!   time: the EXPERIMENTS.md §5.3 replacement-chain table.
//! - **Operand-size budget**: the `max_transducer_grammar` widening
//!   knob that bounds the blow-up (the paper handled this by manually
//!   removing two code sections from Tiger).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use strtaint::Config;
use strtaint_corpus::{synth_app, SynthConfig};

fn chain_app(chain: usize) -> strtaint_corpus::App {
    synth_app(&SynthConfig {
        pages: 2,
        sinks_per_page: 1,
        helpers: 4,
        filler_lines: 10,
        vuln_every: 0,
        replace_chain: chain,
        seed: 11,
    })
}

fn bench_replace_chain(c: &mut Criterion) {
    let config = Config::default();
    let mut group = c.benchmark_group("ablation/replace_chain");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(6));
    for chain in [0usize, 1, 2, 3] {
        let app = chain_app(chain);
        let mut productions = None;
        group.bench_with_input(BenchmarkId::from_parameter(chain), &app, |b, app| {
            b.iter(|| {
                let r =
                    strtaint::analyze_app(app.name, &app.vfs, &app.entry_refs(), &config);
                productions = Some(r.grammar_size().1);
            })
        });
        if let Some(r) = productions {
            println!("ablation/replace_chain/{chain}: query |R| = {r}");
        }
    }
    group.finish();
}

fn bench_widening_budget(c: &mut Criterion) {
    // A tight budget widens the second replacement (cheap, coarse); a
    // loose one computes it (slow, precise).
    let mut group = c.benchmark_group("ablation/widening_budget");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(6));
    let app = chain_app(2);
    for budget in [2_000usize, 300_000] {
        let mut config = Config::default();
        config.max_transducer_grammar = budget;
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, _| {
            b.iter(|| {
                let r =
                    strtaint::analyze_app(app.name, &app.vfs, &app.entry_refs(), &config);
                std::hint::black_box(r.pages.len());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replace_chain, bench_widening_budget);
criterion_main!(benches);
