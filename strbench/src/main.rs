//! The strtaint benchmark client.
//!
//! ```text
//! strbench --workload <tiger-cli|synth-cli|fleet-daemon> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the release `strtaint`
//! binary, writes the workload's generated tree under `.bench_work/`,
//! drives the program in a closed loop (one client, one op at a time)
//! for `--seconds`, checks every verdict against the oracle, and prints
//! one JSON result object as its last line of output. With `--trace 1`
//! it also runs the traced driver (`strbench-trace`) and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use strbench::proc::{self, Watchdog};
use strbench::workload::{self, EditStream, Inputs, Workload};
use strbench::{json, stats, CLI_LEDGER, END_TO_END, PER_LAYER};

/// Untraced runs set up this many times and report the median.
const SETUPS: usize = 3;
/// A CLI op that takes longer than this fails.
const CLI_TIMEOUT: Duration = Duration::from_secs(120);
/// A daemon request that takes longer than this fails.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Metric values by name, in report order.
type Metrics = Vec<(&'static str, f64)>;

/// Ops attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("failed {what}: {e}");
        }
    }
}

/// End-to-end measurements of one run.
struct EndToEnd {
    latencies_ms: Vec<f64>,
    peak_rss_kib: u64,
    setups_s: Vec<f64>,
}

impl EndToEnd {
    fn metrics(&self) -> Metrics {
        vec![
            ("op_p50_ms", stats::median(&self.latencies_ms)),
            ("op_p90_ms", stats::quantile(&self.latencies_ms, 0.9)),
            ("peak_rss_mb", self.peak_rss_kib as f64 / 1024.0),
            ("setup_s", stats::median(&self.setups_s)),
        ]
    }
}

/// Builds a release binary with cargo, its output on our stderr.
fn cargo_build(args: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    status
        .success()
        .then_some(())
        .ok_or(format!("cargo build {} failed", args.join(" ")))
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// One cold `strtaint --json` process over `tree`: the timed exit and
/// whether its exit code and every verdict were right.
type CliOp = (Result<(), String>, proc::Exit);

fn cli_op(bin: &Path, tree: &Path, inputs: &Inputs) -> Result<CliOp, String> {
    let exit = proc::run_timed(
        Command::new(bin)
            .arg("--json")
            .arg(tree)
            .args(&inputs.app.entries),
        CLI_TIMEOUT,
    )
    .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    Ok((check_cli_output(&exit, inputs), exit))
}

fn check_cli_output(exit: &proc::Exit, inputs: &Inputs) -> Result<(), String> {
    let expected = i32::from(inputs.oracle.expects_findings());
    if exit.code != Some(expected) {
        return Err(format!("exit code {:?}, expected {expected}", exit.code));
    }
    let doc = json::parse(&exit.stdout)?;
    inputs.oracle.check(&workload::cli_pages(&doc)?)
}

/// Writes a fresh copy of the tree at `tree`.
fn fresh_tree(inputs: &Inputs, tree: &Path) -> Result<(), String> {
    if tree.exists() {
        std::fs::remove_dir_all(tree)
            .map_err(|e| format!("cannot clear {}: {e}", tree.display()))?;
    }
    workload::write_tree(&inputs.app, tree).map_err(|e| format!("cannot write tree: {e}"))
}

/// CLI workloads: each set-up writes the tree and runs one discarded
/// warm-up op; then ops run back to back for `seconds`.
fn cli_e2e(
    bin: &Path,
    inputs: &Inputs,
    tree: &Path,
    seconds: f64,
    setups: usize,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let mut setups_s = Vec::new();
    for _ in 0..setups {
        let t0 = Instant::now();
        fresh_tree(inputs, tree)?;
        let (outcome, _) = cli_op(bin, tree, inputs)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        outcome.map_err(|e| format!("warm-up op: {e}"))?;
    }
    let mut latencies_ms = Vec::new();
    let mut peak_rss_kib = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while latencies_ms.is_empty() || Instant::now() < deadline {
        let (outcome, exit) = cli_op(bin, tree, inputs)?;
        latencies_ms.push(exit.wall.as_secs_f64() * 1e3);
        peak_rss_kib = peak_rss_kib.max(exit.max_rss_kib);
        tally.record("op", outcome);
    }
    Ok(EndToEnd {
        latencies_ms,
        peak_rss_kib,
        setups_s,
    })
}

/// A running `strtaint serve` process with a buffered response reader.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: Vec<u8>,
}

impl Daemon {
    fn spawn(bin: &Path, tree: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--dir")
            .arg(tree)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        // A large buffer: responses run to megabytes, and reading them
        // in small pieces costs more than the op.
        let stdout =
            BufReader::with_capacity(1 << 20, child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
            line: Vec::with_capacity(8 << 20),
        })
    }

    /// Sends one request line and reads the response line. The clock
    /// stops at the response's last byte.
    fn request(&mut self, request: &str) -> Result<Duration, String> {
        self.line.clear();
        let dog = Watchdog::arm(self.child.id(), DAEMON_TIMEOUT);
        let t0 = Instant::now();
        let io = self
            .stdin
            .write_all(request.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .and_then(|()| self.stdout.read_until(b'\n', &mut self.line));
        let took = t0.elapsed();
        dog.disarm();
        match io {
            Ok(n) if n > 0 && self.line.ends_with(b"\n") => Ok(took),
            Ok(_) => Err("daemon closed its output (timeout or crash)".to_owned()),
            Err(e) => Err(format!("daemon i/o: {e}")),
        }
    }

    /// Asks the daemon to exit and waits for it.
    fn shutdown(mut self) {
        let _ = self.request("{\"cmd\":\"shutdown\"}");
        drop(self.stdin);
        let dog = Watchdog::arm(self.child.id(), DAEMON_TIMEOUT);
        let _ = self.child.wait();
        dog.disarm();
    }
}

/// Deletes the daemon's artifact store under `tree`, so the next daemon
/// starts cold.
fn clear_store(tree: &Path) -> Result<(), String> {
    let cache = tree.join(".strtaint-cache");
    if cache.exists() {
        std::fs::remove_dir_all(&cache).map_err(|e| format!("cannot clear the store: {e}"))?;
    }
    Ok(())
}

/// Starts a cold daemon (empty artifact store) and answers the first
/// analyze-all request. Returns the daemon and the time from spawn to
/// the last byte of that response.
fn cold_daemon(
    bin: &Path,
    tree: &Path,
    inputs: &Inputs,
    stream: &EditStream,
) -> Result<(Daemon, f64), String> {
    clear_store(tree)?;
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(bin, tree)?;
    let outcome = daemon.request(&stream.analyze_all());
    let took = t0.elapsed().as_secs_f64();
    let checked = outcome.and_then(|_| {
        let doc = json::parse(&daemon.line)?;
        let (computed, _) = workload::check_analyze_result(&doc, &inputs.oracle)?;
        (computed == inputs.app.entries.len() as u64)
            .then_some(())
            .ok_or(format!("cold daemon computed {computed} pages"))
    });
    match checked {
        Ok(()) => Ok((daemon, took)),
        Err(e) => {
            daemon.shutdown();
            Err(format!("cold analyze-all: {e}"))
        }
    }
}

/// The daemon workload: each set-up is a cold daemon; then edit ops
/// run back to back for `seconds` on the last one.
fn daemon_e2e(
    bin: &Path,
    inputs: &Inputs,
    seed: u64,
    tree: &Path,
    seconds: f64,
    setups: usize,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    if !tree.exists() {
        workload::write_tree(&inputs.app, tree).map_err(|e| format!("cannot write tree: {e}"))?;
    }
    let mut stream = EditStream::new(&inputs.app, seed);
    let mut setups_s = Vec::new();
    let mut daemon = None;
    for _ in 0..setups {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        let (d, took) = cold_daemon(bin, tree, inputs, &stream)?;
        setups_s.push(took);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    let mut latencies_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while latencies_ms.is_empty() || Instant::now() < deadline {
        let (page, request) = stream.next_op(&inputs.app);
        match daemon.request(&request) {
            Ok(took) => {
                latencies_ms.push(took.as_secs_f64() * 1e3);
                let outcome =
                    workload::check_batch_response(&daemon.line, &inputs.oracle).map(|_| ());
                tally.record(&format!("edit of {page}"), outcome);
            }
            Err(e) => {
                tally.record(&format!("edit of {page}"), Err(e));
                break;
            }
        }
    }
    let peak_rss_kib = proc::peak_rss_kib(daemon.child.id()).unwrap_or(0);
    daemon.shutdown();
    Ok(EndToEnd {
        latencies_ms,
        peak_rss_kib,
        setups_s,
    })
}

/// Reads a flat `{"name": number}` metrics file from the traced driver.
fn read_metrics(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match json::parse(&bytes)? {
        json::Value::Obj(members) => Ok(members
            .into_iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k, n)))
            .collect()),
        _ => Err("metrics file is not an object".to_owned()),
    }
}

/// Counts the exact counters that differ between traced runs.
fn exact_mismatches(w: Workload, runs: &[BTreeMap<String, f64>]) -> f64 {
    strbench::exact_counters(w)
        .iter()
        .filter(|name| {
            let first = runs[0].get(**name);
            runs.iter().any(|r| r.get(**name) != first)
        })
        .inspect(|name| eprintln!("exact counter {name} differs between traced runs"))
        .count() as f64
}

/// The traced half of a `--trace 1` run. Returns per-layer metrics
/// (medians over traced ops).
fn traced(
    args: &Args,
    trace_bin: &Path,
    inputs: &Inputs,
    tree: &Path,
    work: &Path,
    seconds: f64,
    tally: &mut Tally,
) -> Result<BTreeMap<String, f64>, String> {
    let out = work.join("trace-metrics.json");
    if args.workload == Workload::FleetDaemon {
        clear_store(tree)?;
        let exit = proc::run_timed(
            Command::new(trace_bin)
                .arg("daemon")
                .arg(&out)
                .arg(tree)
                .arg(args.seed.to_string())
                .arg(seconds.to_string()),
            CLI_TIMEOUT + Duration::from_secs_f64(seconds),
        )
        .map_err(|e| format!("cannot run the traced driver: {e}"))?;
        if exit.code != Some(0) {
            return Err(format!("traced driver exited with {:?}", exit.code));
        }
        let mut m = read_metrics(&out)?;
        let ops = m.remove("ops").unwrap_or(0.0) as u64;
        let failed = m.remove("failed").unwrap_or(0.0) as u64;
        tally.attempted += ops;
        tally.failed += failed;
        // Daemon counts are not yet checked for exactness.
        m.insert("ledger.exact_mismatches".to_owned(), 0.0);
        return Ok(m);
    }

    let mut runs: Vec<BTreeMap<String, f64>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while runs.len() < 2 || Instant::now() < deadline {
        let mut cmd = Command::new(trace_bin);
        cmd.arg("cli").arg(&out).arg(tree).args(&inputs.app.entries);
        let exit = proc::run_timed(&mut cmd, CLI_TIMEOUT)
            .map_err(|e| format!("cannot run the traced driver: {e}"))?;
        tally.record("traced op", check_cli_output(&exit, inputs));
        let mut m = read_metrics(&out)?;
        let wall = exit.wall.as_secs_f64() * 1e3;
        let layers: f64 = CLI_LEDGER
            .iter()
            .map(|n| m.get(*n).copied().unwrap_or(0.0))
            .sum();
        m.insert("ledger.traced_wall_ms".to_owned(), wall);
        m.insert("ledger.unaccounted_ms".to_owned(), wall - layers);
        runs.push(m);
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for name in runs[0].keys() {
        let xs: Vec<f64> = runs
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name.clone(), stats::median(&xs));
    }
    out.insert(
        "ledger.exact_mismatches".to_owned(),
        exact_mismatches(args.workload, &runs),
    );
    Ok(out)
}

fn run(args: &Args, work: &Path) -> Result<(Metrics, Tally), String> {
    cargo_build(&["-p", "strtaint-cli"])?;
    let bin = target_dir().join("release").join("strtaint");
    let trace_bin = target_dir().join("release").join("strbench-trace");
    if args.trace {
        cargo_build(&[
            "--manifest-path",
            "strbench/Cargo.toml",
            "--bin",
            "strbench-trace",
        ])?;
    }
    let host_ref = stats::host_ref_ms();
    eprintln!("host.ref_ms {host_ref:.3}");

    let inputs = workload::inputs(args.workload, args.seed);
    let tree = work.join("tree");
    let mut tally = Tally::default();
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let setups = if args.trace { 1 } else { SETUPS };
    let e2e = match args.workload {
        Workload::TigerCli | Workload::SynthCli => {
            cli_e2e(&bin, &inputs, &tree, e2e_seconds, setups, &mut tally)?
        }
        Workload::FleetDaemon => daemon_e2e(
            &bin,
            &inputs,
            args.seed,
            &tree,
            e2e_seconds,
            setups,
            &mut tally,
        )?,
    };
    eprintln!(
        "{} ops; latencies ms: {:?}",
        e2e.latencies_ms.len(),
        e2e.latencies_ms
            .iter()
            .map(|x| x.round())
            .collect::<Vec<_>>()
    );
    if !args.trace {
        return Ok((e2e.metrics(), tally));
    }
    let mut layers = traced(
        args,
        &trace_bin,
        &inputs,
        &tree,
        work,
        args.seconds / 2.0,
        &mut tally,
    )?;
    layers.insert(
        "ledger.untraced_wall_ms".to_owned(),
        stats::median(&e2e.latencies_ms),
    );
    layers.insert("host.ref_ms".to_owned(), host_ref);
    Ok((
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, layers.get(*name).copied().unwrap_or(0.0)))
            .collect(),
        tally,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("strbench: {e}\nusage: strbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("strbench: {e}");
            return ExitCode::from(1);
        }
    };
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                units[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
