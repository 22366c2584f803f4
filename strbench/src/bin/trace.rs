//! The traced driver: replays one benchmark op call by call through the
//! crates' public functions, timing each layer from outside.
//!
//! ```text
//! strbench-trace cli <metrics.json> <dir> <entry>...
//! strbench-trace daemon <metrics.json> <dir> <seed> <seconds>
//! strbench-trace drain
//! ```
//!
//! `cli` does what `strtaint --json <dir> <entry>...` does with default
//! options, prints the same report on stdout and exits with the same
//! code. `daemon` loads the tree as `strtaint serve --dir <dir>` does,
//! answers the cold analyze-all request, then runs the fleet-daemon
//! edit stream for `seconds`. Both write their layer times and counts
//! to `metrics.json` as one flat JSON object. `drain` is the reading
//! end the `daemon` mode writes its responses to.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use strbench::workload::{self, EditStream, Workload};
use strbench::{stats, DAEMON_LEDGER};
use strtaint::{CheckOptions, Checker, Config, EngineStats, NtId, PageReport, SummaryCache, Vfs};
use strtaint_analysis::frontend::FrontendSet;
use strtaint_daemon::json::{self as djson, Json};
use strtaint_daemon::{ArtifactStore, DaemonState, PageOutcome};

/// Accumulated layer times (ms) and counts, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn add(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += v,
            None => self.0.push((name, v)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Runs `f`, adding its wall time in ms to `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.add(name, ms(t0.elapsed()));
        r
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        std::fs::write(path, format!("{{{}}}\n", body.join(", ")))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn add_engine(m: &mut Metrics, e: &EngineStats) {
    m.add("grammar.queries", e.queries as f64);
    m.add("grammar.normalizations", e.normalizations as f64);
    m.add("grammar.realized_triples", e.realized_triples as f64);
    m.add("grammar.completions", e.completions as f64);
    m.add("grammar.early_exits", e.early_exits as f64);
    m.add("checker.qcache_hits", e.qcache_hits as f64);
    m.add("checker.prefilter_skips", e.prefilter_skips as f64);
    m.add("checker.witness_skipped", e.witness_skipped as f64);
}

/// The CLI op, mirroring `strtaint --json` and `analyze_page_cached`.
fn cli(out: &Path, dir: &Path, entries: &[String]) -> Result<ExitCode, String> {
    let mut m = Metrics::default();
    let vfs = m
        .time("analysis.read_ms", || Vfs::from_dir(dir))
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let config = Config::default();
    let checker = m.time("checker.build_ms", || {
        Checker::with_options(CheckOptions {
            query_cache: true,
            eager_witness: false,
            ..Default::default()
        })
    });
    let summaries = SummaryCache::new();
    // Lower every file first so the analysis below only hits the cache.
    m.time("analysis.lower_ms", || {
        let frontends = FrontendSet::from_config(&config);
        for p in vfs.paths() {
            let _ =
                summaries.get_or_lower(frontends.for_path(p), vfs.get(p).unwrap_or(b""), &config);
        }
    });
    m.add("analysis.lowerings", summaries.misses() as f64);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut reports = Vec::new();
    for entry in entries {
        let budget = config.page_budget();
        let t0 = Instant::now();
        let analysis = m
            .time("analysis.emit_ms", || {
                strtaint_analysis::analyze_cached(&vfs, entry, &config, &budget, &summaries)
            })
            .map_err(|e| format!("{entry}: {e}"))?;
        let analysis_time = t0.elapsed();
        let t1 = Instant::now();
        let roots: Vec<NtId> = analysis.hotspots.iter().map(|h| h.root).collect();
        let checked = m.time("checker.check_ms", || {
            checker.set_query_scope(config.fingerprint());
            checker.check_hotspots_with(&analysis.cfg, &roots, &budget, workers)
        });
        m.add("checker.hotspots", roots.len() as f64);
        let mut hotspots = Vec::new();
        for (h, mut r) in analysis.hotspots.iter().zip(checked) {
            if let Some(span) = h.provenance.arg_span {
                for f in &mut r.findings {
                    f.at = Some((span.line, span.col));
                }
            }
            let (skeletons, complete) = m.time("checker.skeletons_ms", || {
                checker.skeletons_for(&analysis.cfg, h.root)
            });
            r.skeletons = skeletons;
            r.skeletons_complete = complete;
            hotspots.push((h.clone(), r));
        }
        let check_time = t1.elapsed();
        let report = m.time("core.page_ms", || {
            let mut reachable = vec![false; analysis.cfg.num_nonterminals()];
            for h in &analysis.hotspots {
                for (i, r) in analysis.cfg.reachable(h.root).into_iter().enumerate() {
                    reachable[i] = reachable[i] || r;
                }
            }
            let grammar_productions = analysis
                .cfg
                .nonterminals()
                .filter(|id| reachable[id.index()])
                .map(|id| analysis.cfg.productions(id).len())
                .sum();
            PageReport {
                entry: entry.clone(),
                hotspots,
                grammar_nonterminals: reachable.iter().filter(|&&b| b).count(),
                grammar_productions,
                analysis_time,
                check_time,
                warnings: analysis.warnings,
                unmodeled: analysis.unmodeled.into_iter().collect(),
                files_analyzed: analysis.files_analyzed,
                inputs: analysis.inputs.into_iter().collect(),
                degradations: analysis.degradations,
                skipped: None,
            }
        });
        m.add(
            "analysis.grammar_productions",
            report.grammar_productions as f64,
        );
        add_engine(&mut m, &report.engine_stats());
        reports.push(report);
    }
    let any_findings = reports.iter().any(|r| !r.is_verified());
    m.time("core.render_ms", || {
        let doc = strtaint::render::json_report(&reports, None);
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(doc.as_bytes())
            .and_then(|()| stdout.flush())
    })
    .map_err(|e| format!("cannot write the report: {e}"))?;
    m.time("core.teardown_ms", || {
        drop((reports, summaries, checker, vfs))
    });
    m.write(out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(ExitCode::from(u8::from(any_findings)))
}

/// One daemon request, handled as the stdio server does, with the page
/// calls timed apart from the protocol work around them.
fn daemon_request(
    m: &mut Metrics,
    state: &DaemonState,
    line: &str,
    sink: &mut impl Write,
) -> Result<String, String> {
    let t_proto = Instant::now();
    let request = djson::parse(line).map_err(|e| e.to_string())?;
    let batch = request.get("cmd").and_then(Json::as_str) == Some("batch");
    let ops = if batch {
        request
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("batch without ops")?
    } else {
        std::slice::from_ref(&request)
    };
    let mut pages_ms = Duration::ZERO;
    let mut results = Vec::new();
    for op in ops {
        match op.get("cmd").and_then(Json::as_str) {
            Some("invalidate") => {
                let path = op.get("path").and_then(Json::as_str).ok_or("no path")?;
                let contents = op
                    .get("contents")
                    .and_then(Json::as_str)
                    .map(|c| c.as_bytes().to_vec());
                let t0 = Instant::now();
                let changed = state.invalidate(path, contents);
                pages_ms += t0.elapsed();
                m.add("daemon.invalidate_ms", ms(t0.elapsed()));
                results.push(Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("changed", Json::Bool(changed)),
                ]));
            }
            Some("analyze") => {
                let config = state.effective_config(None, None, None);
                let (mut computed, mut replayed) = (0u64, 0u64);
                let mut pages = Vec::new();
                for e in op
                    .get("entries")
                    .and_then(Json::as_arr)
                    .ok_or("no entries")?
                {
                    let entry = e.as_str().ok_or("entry is not a string")?;
                    let t0 = Instant::now();
                    let (page, outcome) = state.analyze_page(entry, false, &config);
                    let took = t0.elapsed();
                    pages_ms += took;
                    match outcome {
                        PageOutcome::Computed => {
                            computed += 1;
                            m.add("daemon.compute_ms", ms(took));
                        }
                        PageOutcome::Replayed => {
                            replayed += 1;
                            m.add("daemon.replay_ms", ms(took));
                        }
                    }
                    pages.push(page);
                }
                m.add("daemon.pages_computed", computed as f64);
                m.add("daemon.pages_replayed", replayed as f64);
                results.push(Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("pages", Json::Arr(pages)),
                    ("computed", Json::Num(computed as f64)),
                    ("replayed", Json::Num(replayed as f64)),
                ]));
            }
            other => return Err(format!("unexpected op {other:?}")),
        }
    }
    let response = if batch {
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("results", Json::Arr(results)),
        ])
    } else {
        results.pop().expect("one result")
    };
    let mut out = String::new();
    response.write(&mut out);
    out.push('\n');
    // The server writes the line to its client and drops the request
    // and response trees before it reads the next request.
    sink.write_all(out.as_bytes())
        .map_err(|e| format!("cannot write the response: {e}"))?;
    drop((request, response));
    m.add(
        "daemon.protocol_ms",
        ms(t_proto.elapsed().saturating_sub(pages_ms)),
    );
    m.add("daemon.response_bytes", out.len() as f64);
    Ok(out)
}

/// The daemon workload: cold load and analyze-all, then edit ops.
fn daemon(out: &Path, dir: &Path, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let inputs = workload::inputs(Workload::FleetDaemon, seed);
    let mut stream = EditStream::new(&inputs.app, seed);
    let mut setup = Metrics::default();
    let vfs = setup
        .time("analysis.read_ms", || Vfs::from_dir(dir))
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let state = setup.time("daemon.load_ms", || {
        let store = ArtifactStore::open(&dir.join(".strtaint-cache")).ok();
        DaemonState::new(vfs, Config::default(), store)
    });
    setup.time("analysis.lower_ms", || {
        let config = state.base_config();
        let frontends = FrontendSet::from_config(config);
        for p in inputs.app.vfs.paths() {
            let src = inputs.app.vfs.get(p).unwrap_or(b"");
            let _ = state
                .summaries()
                .get_or_lower(frontends.for_path(p), src, config);
        }
    });
    setup.add("analysis.lowerings", state.summaries().misses() as f64);
    // Responses travel over a pipe to a reading process, as they do
    // from a real daemon to its client.
    let mut client = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("drain")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn the response reader: {e}"))?;
    let mut sink = client.stdin.take().expect("stdin is piped");
    let mut failed = 0u64;
    let t_cold = Instant::now();
    let cold = daemon_request(
        &mut Metrics::default(),
        &state,
        &stream.analyze_all(),
        &mut sink,
    )?;
    setup.add("daemon.cold_analyze_ms", ms(t_cold.elapsed()));
    let cold_doc = strbench::json::parse(cold.as_bytes())?;
    if let Err(e) = workload::check_analyze_result(&cold_doc, &inputs.oracle) {
        eprintln!("cold analyze: {e}");
        failed += 1;
    }

    let mut ops: Vec<(Metrics, f64)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while ops.len() < 10 || Instant::now() < deadline {
        let (_, line) = stream.next_op(&inputs.app);
        let mut m = Metrics::default();
        let t0 = Instant::now();
        let response = daemon_request(&mut m, &state, &line, &mut sink)?;
        let wall = ms(t0.elapsed());
        if let Err(e) = workload::check_batch_response(response.as_bytes(), &inputs.oracle) {
            eprintln!("op {}: {e}", ops.len());
            failed += 1;
        }
        ops.push((m, wall));
    }
    drop(sink);
    client.wait().map_err(|e| format!("response reader: {e}"))?;

    let mut report = setup;
    let names: Vec<&'static str> = ops[0].0 .0.iter().map(|(n, _)| *n).collect();
    for name in names {
        let xs: Vec<f64> = ops.iter().map(|(m, _)| m.get(name)).collect();
        report.add(name, stats::median(&xs));
    }
    let walls: Vec<f64> = ops.iter().map(|(_, w)| *w).collect();
    let unaccounted: Vec<f64> = ops
        .iter()
        .map(|(m, w)| w - DAEMON_LEDGER.iter().map(|n| m.get(n)).sum::<f64>())
        .collect();
    report.add("ledger.traced_wall_ms", stats::median(&walls));
    report.add("ledger.unaccounted_ms", stats::median(&unaccounted));
    report.add("ops", ops.len() as f64);
    report.add("failed", failed as f64);
    report
        .write(out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(ExitCode::SUCCESS)
}

/// Reads response lines from stdin and discards them, with the same
/// buffering as the benchmark client.
fn drain() -> Result<ExitCode, String> {
    let mut input = BufReader::with_capacity(1 << 20, std::io::stdin().lock());
    let mut line = Vec::with_capacity(8 << 20);
    while input
        .read_until(b'\n', &mut line)
        .map_err(|e| e.to_string())?
        > 0
    {
        line.clear();
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["cli", out, dir, entries @ ..] if !entries.is_empty() => {
            cli(Path::new(out), Path::new(dir), &args[3..])
        }
        ["drain"] => drain(),
        ["daemon", out, dir, seed, seconds] => match (seed.parse(), seconds.parse()) {
            (Ok(seed), Ok(seconds)) => daemon(Path::new(out), Path::new(dir), seed, seconds),
            _ => Err("seed and seconds must be numbers".to_owned()),
        },
        _ => Err(
            "usage: strbench-trace cli <metrics.json> <dir> <entry>...\n       \
                  strbench-trace daemon <metrics.json> <dir> <seed> <seconds>"
                .to_owned(),
        ),
    };
    result.unwrap_or_else(|e| {
        eprintln!("strbench-trace: {e}");
        ExitCode::from(2)
    })
}
