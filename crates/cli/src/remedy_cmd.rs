//! The `strtaint fix` and `strtaint profile` subcommands (the CLI
//! surface of `strtaint-remedy`).
//!
//! `fix` plans one deterministic repair per finding, applies the
//! unambiguous plans to an in-memory copy of the tree, and re-analyzes
//! that copy to prove each finding discharged. The default is a dry
//! run (nothing on disk changes); `--apply` writes the repaired files
//! back, and `--sarif` renders the plans as SARIF `fixes` instead.
//! `profile` exports each hotspot's query-skeleton allowlist as the
//! versioned guard-profile artifact.

use std::path::Path;

use strtaint::{Config, Vfs};
use strtaint_remedy::{profile_pages, render_profile, run_fix, to_result_fixes, Strategy};

const FIX_USAGE: &str = "usage: strtaint fix [--policy LIST] [--apply] [--sarif] \
                         [--timeout SECS] [--fuel N] <dir> <entry.php>...";
const PROFILE_USAGE: &str = "usage: strtaint profile [--policy LIST] [--timeout SECS] \
                             [--fuel N] <dir> <entry.php>...";

struct RemedyOptions {
    policies: Option<Vec<String>>,
    apply: bool,
    sarif: bool,
    timeout: Option<std::time::Duration>,
    fuel: Option<u64>,
    dir: String,
    entries: Vec<String>,
}

fn parse(args: &[String], allow_apply: bool, usage: &str) -> Result<RemedyOptions, String> {
    let mut opts = RemedyOptions {
        policies: None,
        apply: false,
        sarif: false,
        timeout: None,
        fuel: None,
        dir: String::new(),
        entries: Vec::new(),
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--policy" => {
                let v = it.next().ok_or("--policy requires a policy list")?;
                let sel =
                    strtaint::policy::parse_selection(v).map_err(|e| format!("--policy: {e}"))?;
                opts.policies = Some(sel);
            }
            "--apply" if allow_apply => opts.apply = true,
            "--sarif" if allow_apply => opts.sarif = true,
            "--timeout" => {
                let v = it.next().ok_or("--timeout requires SECS")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--timeout: not a number: {v}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--timeout: must be positive: {v}"));
                }
                opts.timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--fuel" => {
                let v = it.next().ok_or("--fuel requires N")?;
                let n: u64 = v.parse().map_err(|_| format!("--fuel: not a number: {v}"))?;
                if n == 0 {
                    return Err("--fuel: must be positive".to_owned());
                }
                opts.fuel = Some(n);
            }
            "--help" | "-h" => return Err(usage.to_owned()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_owned()),
        }
    }
    if opts.apply && opts.sarif {
        return Err("--apply and --sarif are mutually exclusive".to_owned());
    }
    if positional.len() < 2 {
        return Err(usage.to_owned());
    }
    opts.dir = positional.remove(0);
    opts.entries = positional;
    Ok(opts)
}

fn load(dir: &str) -> Result<Vfs, String> {
    match Vfs::from_dir(Path::new(dir)) {
        Ok(v) if !v.is_empty() => Ok(v),
        Ok(_) => Err(format!("no .php files under {dir}")),
        Err(e) => Err(format!("cannot read {dir}: {e}")),
    }
}

fn config_of(opts: &RemedyOptions) -> Config {
    let mut config = Config {
        timeout: opts.timeout,
        fuel: opts.fuel,
        ..Config::default()
    };
    if let Some(policies) = &opts.policies {
        config.policies = policies.clone();
    }
    config
}

/// Runs `strtaint fix`; returns the process exit code (0 = every
/// finding discharged or none found, 1 = findings remain, 2 = usage
/// or IO error).
pub fn cli_fix(args: &[String]) -> u8 {
    let opts = match parse(args, true, FIX_USAGE) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let vfs = match load(&opts.dir) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let config = config_of(&opts);
    let outcome = match run_fix(&vfs, &opts.entries, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    if opts.sarif {
        // SARIF mode renders the *original* findings with their fixes
        // attached; editors apply the changes themselves.
        let fixes = to_result_fixes(&vfs, &outcome.plans);
        print!(
            "{}",
            strtaint::render::sarif_with_fixes(&outcome.reports, &fixes)
        );
    } else {
        for (i, plan) in outcome.plans.iter().enumerate() {
            let what = match (&plan.strategy, &plan.ambiguous) {
                (Some(Strategy::Sanitize { function }), _) => {
                    format!("wrap in {function}()")
                }
                (Some(Strategy::Guard { pattern, var }), _) => {
                    format!("guard ${var} with {pattern}")
                }
                (None, Some(reason)) => format!("ambiguous: {reason}"),
                (None, None) => "no strategy".to_owned(),
            };
            let status = if !plan.is_applicable() {
                "skipped"
            } else if outcome.discharged[i] {
                "discharged"
            } else if outcome.applied[i] {
                "applied, NOT discharged"
            } else {
                "conflicting, not applied"
            };
            println!(
                "{}: {} [{}] — {what} ({status})",
                plan.entry, plan.source, plan.rule
            );
        }
        let applied = outcome.applied.iter().filter(|&&b| b).count();
        let discharged = outcome.discharged.iter().filter(|&&b| b).count();
        let remaining = outcome.remaining_findings();
        println!(
            "\n{} plan(s): {applied} applied, {discharged} discharged; \
             {remaining} finding(s) remain after repair.",
            outcome.plans.len()
        );
        if opts.apply {
            let mut written = 0usize;
            for path in outcome.fixed_vfs.paths() {
                let new = outcome.fixed_vfs.get(path);
                if new.is_some() && new != vfs.get(path) {
                    let target = Path::new(&opts.dir).join(path);
                    if let Err(e) = std::fs::write(&target, new.unwrap_or_default()) {
                        eprintln!("cannot write {}: {e}", target.display());
                        return 2;
                    }
                    println!("rewrote {path}");
                    written += 1;
                }
            }
            println!("{written} file(s) rewritten in {}.", opts.dir);
        } else {
            println!("dry run: no files changed (use --apply to write).");
        }
    }
    u8::from(outcome.remaining_findings() > 0)
}

/// Runs `strtaint profile`; returns the process exit code (0 = profile
/// rendered, 2 = usage or IO error).
pub fn cli_profile(args: &[String]) -> u8 {
    let opts = match parse(args, false, PROFILE_USAGE) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let vfs = match load(&opts.dir) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let config = config_of(&opts);
    let checker = strtaint::PolicyChecker::new();
    let summaries = strtaint::SummaryCache::new();
    let results = strtaint::analyze_pages(
        &vfs,
        &opts.entries,
        &config,
        &checker,
        &summaries,
        strtaint::Evidence::Skeletons,
    );
    let reports = match strtaint::first_error(&opts.entries, results) {
        Ok(reports) => reports,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    print!("{}", render_profile(&profile_pages(&reports)));
    0
}
