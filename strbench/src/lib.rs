//! Shared pieces of the strtaint benchmark: workload inputs and their
//! expected answers, a JSON reader, child-process timing, percentiles,
//! and the metric names the benchmark reports.
//!
//! See `README.md` in this directory for the workloads, the metrics
//! and how to run it.

pub mod json;
pub mod proc;
pub mod stats;
pub mod workload;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
/// A layer that a workload does not reach, or reaches only inside a
/// daemon call timed as a whole, reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analysis.read_ms", "ms"),
    ("analysis.lower_ms", "ms"),
    ("analysis.lowerings", "count"),
    ("analysis.emit_ms", "ms"),
    ("analysis.grammar_productions", "count"),
    ("checker.build_ms", "ms"),
    ("checker.check_ms", "ms"),
    ("checker.hotspots", "count"),
    ("checker.skeletons_ms", "ms"),
    ("checker.qcache_hits", "count"),
    ("checker.prefilter_skips", "count"),
    ("checker.witness_skipped", "count"),
    ("grammar.queries", "count"),
    ("grammar.normalizations", "count"),
    ("grammar.realized_triples", "count"),
    ("grammar.completions", "count"),
    ("grammar.early_exits", "count"),
    ("core.page_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.teardown_ms", "ms"),
    ("daemon.load_ms", "ms"),
    ("daemon.cold_analyze_ms", "ms"),
    ("daemon.invalidate_ms", "ms"),
    ("daemon.compute_ms", "ms"),
    ("daemon.pages_computed", "count"),
    ("daemon.replay_ms", "ms"),
    ("daemon.pages_replayed", "count"),
    ("daemon.protocol_ms", "ms"),
    ("daemon.response_bytes", "bytes"),
    ("ledger.traced_wall_ms", "ms"),
    ("ledger.untraced_wall_ms", "ms"),
    ("ledger.unaccounted_ms", "ms"),
    ("ledger.exact_mismatches", "count"),
    ("host.ref_ms", "ms"),
];

/// Layer times of one traced CLI op; with process start and exit they
/// make up its wall time, and `ledger.unaccounted_ms` is the rest.
pub const CLI_LEDGER: &[&str] = &[
    "analysis.read_ms",
    "checker.build_ms",
    "analysis.lower_ms",
    "analysis.emit_ms",
    "checker.check_ms",
    "checker.skeletons_ms",
    "core.page_ms",
    "core.render_ms",
    "core.teardown_ms",
];

/// Layer times of one traced daemon op (an edit plus analyze-all).
pub const DAEMON_LEDGER: &[&str] = &[
    "daemon.invalidate_ms",
    "daemon.compute_ms",
    "daemon.replay_ms",
    "daemon.protocol_ms",
];

/// Counters that repeat exactly across traced runs of the same inputs,
/// per workload. The others depend on how the two hotspot workers race
/// on the shared caches.
pub fn exact_counters(w: workload::Workload) -> &'static [&'static str] {
    match w {
        workload::Workload::TigerCli => &[
            "analysis.lowerings",
            "analysis.grammar_productions",
            "checker.hotspots",
            "checker.qcache_hits",
            "checker.prefilter_skips",
            "checker.witness_skipped",
            "grammar.queries",
            "grammar.normalizations",
            "grammar.realized_triples",
            "grammar.completions",
            "grammar.early_exits",
        ],
        workload::Workload::SynthCli => &[
            "analysis.lowerings",
            "analysis.grammar_productions",
            "checker.hotspots",
            "grammar.queries",
            "grammar.realized_triples",
            "grammar.completions",
        ],
        workload::Workload::FleetDaemon => &[],
    }
}
