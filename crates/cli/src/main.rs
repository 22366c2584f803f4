//! The `strtaint` command-line analyzer.
//!
//! ```text
//! strtaint [OPTIONS] <PROJECT_DIR> <ENTRY.php|ENTRY.tpl>...
//! strtaint serve --dir <PROJECT_DIR> [serve options]
//!
//! OPTIONS:
//!   --policy LIST   comma-separated policy ids to enable (default
//!                   sql; see --list-policies); sinks of every enabled
//!                   policy are recognized and checked in one run —
//!                   `--policy xss` checks `echo` output for XSS
//!   --list-policies print the built-in policy registry (id, severity,
//!                   name, description) and exit
//!   --slice         enable the backward query-relevance slice (faster)
//!   --json          machine-readable output
//!   --sarif         SARIF 2.1.0 output (for CI annotation)
//!   --include A=B   resolve the dynamic include at site A (file:line)
//!                   to file B (repeatable)
//!   --timeout SECS  wall-clock budget per page; on expiry the analysis
//!                   degrades soundly (widened grammars / unverified
//!                   hotspots reported as findings — never a silent
//!                   "verified")
//!   --fuel N        step budget per page (worklist pops, Earley items);
//!                   exhaustion degrades exactly like --timeout
//!   --stats         print one table of engine and summary-cache
//!                   counters (intersection queries, normalizations
//!                   saved, realized triples, early exits, cache
//!                   hits/misses) plus per-phase timing aggregates
//!                   (page / lower / emit / check / intersect / ...)
//!                   after the text report, or a "stats" member in
//!                   --json output
//!   --trace-json FILE
//!                   record a full structured trace of the run and
//!                   write it to FILE in Chrome trace-event format
//!                   (load in chrome://tracing or https://ui.perfetto.dev);
//!                   verdicts and reports are byte-identical with and
//!                   without this flag
//! ```
//!
//! `strtaint serve` starts the persistent incremental-analysis daemon
//! (see `strtaint-daemon`); run `strtaint serve --help` for its flags
//! and wire protocol.
//!
//! `strtaint fix` plans one deterministic repair per finding (drawn
//! from the per-policy fix-template table), applies the unambiguous
//! plans to an in-memory copy of the tree, and re-analyzes that copy
//! to prove each finding discharged; `--apply` writes the repaired
//! files back, `--sarif` emits the plans as SARIF `fixes`. `strtaint
//! profile` exports each hotspot's query-skeleton allowlist as a
//! versioned guard-profile artifact (see `strtaint-remedy`).
//!
//! Exit code: 0 = verified, 1 = findings reported (including
//! budget-exhaustion findings: a degraded run exits 1, it never
//! upgrades to 0), 2 = usage/IO error.

use std::path::Path;
use std::process::ExitCode;

use strtaint::{
    analyze_page_cached, Config, EngineStats, PageReport, PolicyChecker, SummaryCache, Vfs,
};

const USAGE: &str = "usage: strtaint [--policy LIST] [--slice] [--json] [--sarif] \
                     [--include SITE=FILE] [--timeout SECS] [--fuel N] \
                     [--stats] [--trace-json FILE] \
                     <dir> <entry.php|entry.tpl>...\n\
                     \x20      strtaint --list-policies\n\
                     \x20      strtaint serve --dir <dir> [options]\n\
                     \x20      strtaint fix [--policy LIST] [--apply|--sarif] <dir> <entry.php>...\n\
                     \x20      strtaint profile [--policy LIST] <dir> <entry.php>...";

struct Options {
    policies: Option<Vec<String>>,
    slice: bool,
    json: bool,
    sarif: bool,
    stats: bool,
    trace_json: Option<String>,
    dir: String,
    entries: Vec<String>,
    includes: Vec<(String, String)>,
    timeout: Option<std::time::Duration>,
    fuel: Option<u64>,
}

/// The unified `--stats` table: aggregate intersection-engine counters
/// plus the AST→IR summary-cache counters and the per-phase timing
/// aggregates (from `strtaint-obs`) of the same run.
struct RunStats {
    engine: EngineStats,
    cache_hits: u64,
    cache_misses: u64,
    phases: Vec<strtaint_obs::PhaseStat>,
}

impl RunStats {
    fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![
            ("engine.queries".to_owned(), self.engine.queries),
            ("engine.normalizations".to_owned(), self.engine.normalizations),
            (
                "engine.normalizations_saved".to_owned(),
                self.engine.normalizations_saved,
            ),
            (
                "engine.realized_triples".to_owned(),
                self.engine.realized_triples,
            ),
            ("engine.early_exits".to_owned(), self.engine.early_exits),
            ("engine.completions".to_owned(), self.engine.completions),
            ("qcache.hits".to_owned(), self.engine.qcache_hits),
            ("qcache.misses".to_owned(), self.engine.qcache_misses),
            ("qcache.evictions".to_owned(), self.engine.qcache_evictions),
            ("witness.skipped".to_owned(), self.engine.witness_skipped),
            ("prefilter.skips".to_owned(), self.engine.prefilter_skips),
            ("summary_cache.hits".to_owned(), self.cache_hits),
            ("summary_cache.misses".to_owned(), self.cache_misses),
        ];
        for p in &self.phases {
            rows.push((format!("phase.{}.count", p.name), p.count));
            rows.push((format!("phase.{}.total_us", p.name), p.total_us));
            rows.push((format!("phase.{}.max_us", p.name), p.max_us));
        }
        rows
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        policies: None,
        slice: false,
        json: false,
        sarif: false,
        stats: false,
        trace_json: None,
        dir: String::new(),
        entries: Vec::new(),
        includes: Vec::new(),
        timeout: None,
        fuel: None,
    };
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--policy" => {
                let v = args.next().ok_or("--policy requires a policy list")?;
                let sel = strtaint::policy::parse_selection(&v)
                    .map_err(|e| format!("--policy: {e}"))?;
                opts.policies = Some(sel);
            }
            "--list-policies" => {
                let mut out = String::new();
                for p in strtaint::policy::builtin() {
                    out.push_str(&format!(
                        "{:<6} {:<9} {:<26} {}\n",
                        p.id,
                        p.severity.as_str(),
                        p.name,
                        p.description
                    ));
                }
                print!("{out}");
                std::process::exit(0);
            }
            "--slice" => opts.slice = true,
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--stats" => opts.stats = true,
            "--trace-json" => {
                let v = args.next().ok_or("--trace-json requires FILE")?;
                opts.trace_json = Some(v);
            }
            "--include" => {
                let v = args.next().ok_or("--include requires SITE=FILE")?;
                let (site, file) = v
                    .split_once('=')
                    .ok_or("--include argument must be SITE=FILE")?;
                opts.includes.push((site.to_owned(), file.to_owned()));
            }
            "--timeout" => {
                let v = args.next().ok_or("--timeout requires SECS")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--timeout: not a number: {v}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--timeout: must be positive: {v}"));
                }
                opts.timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--fuel" => {
                let v = args.next().ok_or("--fuel requires N")?;
                let n: u64 = v.parse().map_err(|_| format!("--fuel: not a number: {v}"))?;
                if n == 0 {
                    return Err("--fuel: must be positive".to_owned());
                }
                opts.fuel = Some(n);
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"))
            }
            other => positional.push(other.to_owned()),
        }
    }
    if positional.len() < 2 {
        return Err(USAGE.to_owned());
    }
    opts.dir = positional.remove(0);
    opts.entries = positional;
    Ok(opts)
}


fn emit_json(reports: &[PageReport], stats: Option<&RunStats>) {
    let rows = stats.map(|s| s.rows());
    print!(
        "{}",
        strtaint::render::json_report(reports, rows.as_deref())
    );
}


/// SARIF 2.1.0 output — the renderer lives in `strtaint::render` so
/// the differential tests can compare the CLI's exact bytes.
fn emit_sarif(reports: &[PageReport]) {
    print!("{}", strtaint::render::sarif(reports));
}

mod remedy_cmd;

fn main() -> ExitCode {
    // Subcommand routing: `strtaint serve ...` starts the daemon;
    // `fix` / `profile` run the remediation subsystem.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        return ExitCode::from(strtaint_daemon::cli_serve(&raw[1..]) as u8);
    }
    if raw.first().map(String::as_str) == Some("fix") {
        return ExitCode::from(remedy_cmd::cli_fix(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("profile") {
        return ExitCode::from(remedy_cmd::cli_profile(&raw[1..]));
    }

    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let vfs = match Vfs::from_dir(Path::new(&opts.dir)) {
        Ok(v) if !v.is_empty() => v,
        Ok(_) => {
            eprintln!("no .php or .tpl files under {}", opts.dir);
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.dir);
            return ExitCode::from(2);
        }
    };
    let mut config = Config {
        backward_slice: opts.slice,
        timeout: opts.timeout,
        fuel: opts.fuel,
        ..Config::default()
    };
    if let Some(policies) = &opts.policies {
        config.policies = policies.clone();
    }
    for (site, file) in &opts.includes {
        config
            .include_overrides
            .entry(site.clone())
            .or_default()
            .push(file.clone());
    }
    // Tracing mode: --trace-json needs full span events; --stats only
    // needs the per-phase aggregates. Verdicts are mode-independent
    // (pinned by tests/obs_invariance.rs).
    if opts.trace_json.is_some() {
        strtaint_obs::set_mode(strtaint_obs::Mode::Full);
    } else if opts.stats {
        strtaint_obs::set_mode(strtaint_obs::Mode::Aggregate);
    }
    strtaint_obs::reset();

    let checker = PolicyChecker::new();
    let summaries = SummaryCache::new();

    let mut reports = Vec::new();
    let mut any_findings = false;
    for entry in &opts.entries {
        match analyze_page_cached(&vfs, entry, &config, &checker, &summaries) {
            Ok(r) => {
                any_findings |= !r.is_verified();
                reports.push(r);
            }
            Err(e) => {
                eprintln!("{entry}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let run_stats = opts.stats.then(|| {
        let mut engine = EngineStats::default();
        for r in &reports {
            engine.merge(&r.engine_stats());
        }
        RunStats {
            engine,
            cache_hits: summaries.hits(),
            cache_misses: summaries.misses(),
            phases: strtaint_obs::phases(),
        }
    });

    if let Some(path) = &opts.trace_json {
        if let Err(e) = strtaint_obs::write_chrome_trace(Path::new(path)) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if opts.sarif {
        emit_sarif(&reports);
    } else if opts.json {
        emit_json(&reports, run_stats.as_ref());
    } else {
        // Degradations are rendered by the PageReport/HotspotReport
        // Display impls (`~ degraded:` lines).
        for r in &reports {
            print!("{r}");
            for w in &r.warnings {
                println!("  warning: {w}");
            }
        }
        let total: usize = reports.iter().map(|r| r.findings().count()).sum();
        let degraded = reports.iter().filter(|r| r.is_degraded()).count();
        if any_findings {
            println!("\n{total} finding(s).");
        } else {
            println!("\nAll pages verified.");
        }
        if degraded > 0 {
            println!(
                "{degraded} page(s) degraded by resource budgets — \
                 results are conservative, not complete."
            );
        }
        if let Some(s) = &run_stats {
            println!("stats:");
            let width = s.rows().iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, value) in s.rows() {
                println!("  {name:<width$}  {value}");
            }
        }
    }
    if any_findings {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
