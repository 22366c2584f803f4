//! The fleet-scale execution model: routing, workspace resolution, the
//! stdio transport, and the `strtaint serve` flag surface.
//!
//! Two serving paths share one protocol:
//!
//! - **stdio** ([`serve_lines`] / [`serve_server_lines`]): one serial
//!   client, requests executed inline.
//! - **Unix socket** ([`serve_socket`], in [`crate::socket`]): many
//!   concurrent clients. Each connection gets a cheap reader thread,
//!   but all real work (`analyze` / `profile` / `invalidate` /
//!   `batch`) funnels
//!   through the [`ServerState`]'s bounded [`WorkerPool`] —
//!   `--workers` threads, a priority-aware queue capped at
//!   `--queue-depth`. A full queue sheds load with
//!   `{"ok":false,"error":"overloaded","retry_after_ms":…}` instead of
//!   queueing without bound, and a request's `deadline_ms` cancels it
//!   if it cannot start in time.
//!
//! State is sharded per workspace ([`WorkspaceMap`]): requests carry
//! an optional `workspace` field; each shard has independent locks, so
//! traffic in one workspace cannot block or observe another.
//!
//! Shutdown is graceful *and bounded*: the listener stops accepting,
//! queued work gets `--drain-ms` to finish, and whatever is still
//! pending past the deadline is answered with a structured
//! `shutting_down` error — a wedged client cannot hold the process
//! open forever.

use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use strtaint::{Config, Vfs};
use strtaint_obs::{Histogram, Registry, metrics::DURATION_US_BOUNDS};

use crate::json::Json;
use crate::pool::{default_workers, WorkerPool};
use crate::protocol::{dispatch_cmd, parse_request, request_deadline, request_priority, Handled};
#[cfg(unix)]
pub use crate::socket::serve_socket;
use crate::state::{snapshot_to_json, DaemonState};
use crate::store::ArtifactStore;
use crate::workspace::{canonical_key, WorkspaceLoader, WorkspaceMap};

/// Writes `response` as one line and flushes it.
pub(crate) fn write_response(response: &Json, output: &mut impl Write) -> io::Result<()> {
    let mut line = String::new();
    response.write(&mut line);
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}

/// Pool and drain configuration for a [`ServerState`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests (default `min(cores, 8)`).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it shed load.
    pub queue_depth: usize,
    /// Graceful-shutdown drain budget.
    pub drain: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: default_workers(),
            queue_depth: 64,
            drain: Duration::from_millis(2_000),
        }
    }
}

/// The process-wide serving state: the workspace shard map, the
/// bounded worker pool, and server-level metrics.
pub struct ServerState {
    workspaces: WorkspaceMap,
    pool: WorkerPool,
    registry: Registry,
    /// Route and execute, per request (microseconds).
    pub(crate) request_us: Arc<Histogram>,
    /// Parse the request line into its JSON tree, per request
    /// (microseconds; part of `request_us`).
    parse_us: Arc<Histogram>,
    /// Serialize and write the response line, per request
    /// (microseconds).
    respond_us: Arc<Histogram>,
    drain: Duration,
    shutting_down: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("workspaces", &self.workspaces.keys())
            .field("pool", &self.pool)
            .finish()
    }
}

/// Where one routed request executes.
pub enum Routed {
    /// Answered inline (errors, status, metrics, shutdown).
    Ready(Handled),
    /// Workspace-bound work for the pool (or inline on stdio).
    Work(QueuedWork),
}

/// A workspace-bound request ready to execute on any thread.
pub struct QueuedWork {
    state: Arc<DaemonState>,
    cmd: String,
    request: Json,
    /// Queue priority (0–9, higher first).
    pub priority: u8,
    /// Remaining budget: if still queued when it elapses, the request
    /// is cancelled with a `deadline_exceeded` error.
    pub deadline: Option<Duration>,
}

impl QueuedWork {
    /// Executes the request against its workspace.
    pub fn run(self) -> Handled {
        dispatch_cmd(&self.state, &self.cmd, &self.request)
    }
}

pub(crate) fn error_response(message: impl Into<String>) -> Handled {
    Handled {
        response: Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message.into())),
        ]),
        shutdown: false,
    }
}

/// The structured shed-load response for a saturated queue.
pub(crate) fn overloaded_response(retry_after_ms: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("overloaded".to_owned())),
        ("retry_after_ms", Json::Num(retry_after_ms as f64)),
    ])
}

/// The structured response for requests caught by shutdown.
pub(crate) fn shutting_down_response() -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("shutting_down".to_owned())),
    ])
}

/// The structured response for a queued request whose deadline passed.
pub(crate) fn deadline_response() -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("deadline_exceeded".to_owned())),
    ])
}

impl ServerState {
    /// Builds a server over `workspaces` with `config`.
    pub fn new(workspaces: WorkspaceMap, config: ServerConfig) -> ServerState {
        let registry = Registry::new();
        let pool = WorkerPool::new(config.workers, config.queue_depth, &registry);
        let request_us = registry.histogram("daemon.request_us", DURATION_US_BOUNDS);
        let parse_us = registry.histogram("daemon.parse_us", DURATION_US_BOUNDS);
        let respond_us = registry.histogram("daemon.respond_us", DURATION_US_BOUNDS);
        ServerState {
            workspaces,
            pool,
            registry,
            request_us,
            parse_us,
            respond_us,
            drain: config.drain,
            shutting_down: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
        }
    }

    /// Convenience: a single-workspace server with default pool
    /// settings (tests, embedding).
    pub fn single(key: &str, state: DaemonState) -> ServerState {
        ServerState::new(
            WorkspaceMap::new(key, Arc::new(state)),
            ServerConfig::default(),
        )
    }

    /// The workspace shard map.
    pub fn workspaces(&self) -> &WorkspaceMap {
        &self.workspaces
    }

    /// The bounded worker pool (fault hooks live here).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The server-level metrics registry (queue depth, shed count,
    /// request latency).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Writes one response line, timed into `daemon.respond_us`: the
    /// protocol time that `daemon.request_us` leaves out.
    pub(crate) fn respond(&self, response: &Json, output: &mut impl Write) -> io::Result<()> {
        let t0 = Instant::now();
        let written = write_response(response, output);
        self.respond_us.observe(elapsed_us(t0));
        written
    }

    /// `true` once any client has requested shutdown.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flags shutdown and starts the drain clock. Idempotent.
    pub fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            let mut deadline = self
                .drain_deadline
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            *deadline = Some(Instant::now() + self.drain);
        }
    }

    /// The instant after which connections stop waiting for clients.
    pub fn drain_deadline(&self) -> Option<Instant> {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Flushes the pool within the drain budget (see
    /// [`WorkerPool::drain`]).
    pub fn drain_pool(&self) -> usize {
        self.pool.drain(self.drain)
    }

    /// Routes one request line: protocol errors, `status`, `metrics`,
    /// and `shutdown` are answered inline; workspace-bound work is
    /// returned for the caller to execute (pool on the socket path,
    /// inline on stdio).
    pub fn route(&self, line: &str) -> Routed {
        let t0 = Instant::now();
        let parsed = parse_request(line);
        self.parse_us.observe(elapsed_us(t0));
        let (request, cmd) = match parsed {
            Ok(parsed) => parsed,
            Err(handled) => return Routed::Ready(handled),
        };
        let priority = match request_priority(&request) {
            Ok(p) => p,
            Err(handled) => return Routed::Ready(handled),
        };
        let deadline = match request_deadline(&request) {
            Ok(d) => d,
            Err(handled) => return Routed::Ready(handled),
        };
        let workspace = match request.get("workspace") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => {
                return Routed::Ready(error_response("\"workspace\" must be a string"))
            }
        };
        match cmd.as_str() {
            "shutdown" => {
                self.begin_shutdown();
                Routed::Ready(Handled {
                    response: Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("shutdown", Json::Bool(true)),
                    ]),
                    shutdown: true,
                })
            }
            "status" => Routed::Ready(self.server_status(workspace.as_deref(), &request)),
            "metrics" => Routed::Ready(self.server_metrics(workspace.as_deref())),
            "analyze" | "profile" | "invalidate" | "batch" => {
                match self.workspaces.resolve(workspace.as_deref()) {
                    Ok((_, state)) => {
                        state.counters.requests.inc();
                        Routed::Work(QueuedWork {
                            state,
                            cmd,
                            request,
                            priority,
                            deadline,
                        })
                    }
                    Err(e) => Routed::Ready(error_response(e)),
                }
            }
            other => Routed::Ready(error_response(format!("unknown cmd {other:?}"))),
        }
    }

    /// `status`, augmented with the serving layer: the resolved
    /// workspace key, the full workspace list, and queue health.
    fn server_status(&self, workspace: Option<&str>, request: &Json) -> Handled {
        let (key, state) = match self.workspaces.resolve(workspace) {
            Ok(resolved) => resolved,
            Err(e) => return error_response(e),
        };
        state.counters.requests.inc();
        let mut handled = dispatch_cmd(&state, "status", request);
        if let Json::Obj(members) = &mut handled.response {
            members.push(("workspace".to_owned(), Json::Str(key)));
            members.push((
                "workspaces".to_owned(),
                Json::Arr(
                    self.workspaces
                        .keys()
                        .into_iter()
                        .map(Json::Str)
                        .collect(),
                ),
            ));
            members.push((
                "queue_depth".to_owned(),
                Json::Num(self.registry.gauge("daemon.queue_depth").get() as f64),
            ));
            members.push((
                "shed".to_owned(),
                Json::Num(self.registry.counter("daemon.shed").get() as f64),
            ));
            members.push(("workers".to_owned(), Json::Num(self.pool.workers() as f64)));
        }
        handled
    }

    /// `metrics`: with a `workspace` field, that shard's registry;
    /// without one, the default shard's registry flat-merged with the
    /// server registry (queue depth, shed, request, parse and respond
    /// latency) plus every other workspace's metrics namespaced as
    /// `ws.<key>.<metric>`.
    fn server_metrics(&self, workspace: Option<&str>) -> Handled {
        if let Some(name) = workspace {
            return match self.workspaces.resolve(Some(name)) {
                Ok((key, state)) => {
                    state.counters.requests.inc();
                    Handled {
                        response: Json::obj(vec![
                            ("ok", Json::Bool(true)),
                            ("workspace", Json::Str(key)),
                            ("metrics", state.metrics_json()),
                        ]),
                        shutdown: false,
                    }
                }
                Err(e) => error_response(e),
            };
        }
        let default_key = self.workspaces.default_key().to_owned();
        let default_state = self.workspaces.default_state();
        default_state.counters.requests.inc();
        let mut members = match default_state.metrics_json() {
            Json::Obj(m) => m,
            other => vec![("default".to_owned(), other)],
        };
        for (name, snap) in self.registry.snapshot() {
            members.push((name, snapshot_to_json(snap)));
        }
        for (key, state) in self.workspaces.all() {
            if key == default_key {
                continue;
            }
            if let Json::Obj(ws_members) = state.metrics_json() {
                for (name, value) in ws_members {
                    members.push((format!("ws.{key}.{name}"), value));
                }
            }
        }
        Handled {
            response: Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("metrics", Json::Obj(members)),
            ]),
            shutdown: false,
        }
    }

    /// Handles one line fully inline (the stdio path): routing plus
    /// immediate execution of workspace work.
    pub fn handle_inline(&self, line: &str) -> Handled {
        let t0 = Instant::now();
        let handled = if self.is_shutting_down() {
            Handled {
                response: shutting_down_response(),
                shutdown: false,
            }
        } else {
            match self.route(line) {
                Routed::Ready(handled) => handled,
                Routed::Work(work) => work.run(),
            }
        };
        self.request_us.observe(elapsed_us(t0));
        handled
    }
}

/// Elapsed microseconds since `t0`, saturating.
pub(crate) fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Serves newline-delimited requests from `input` against a
/// multi-workspace server, inline (the stdio transport — one serial
/// client needs no queue). Returns `Ok(true)` on client-requested
/// shutdown, `Ok(false)` on EOF.
pub fn serve_server_lines<R, W>(
    server: &ServerState,
    input: R,
    mut output: W,
) -> io::Result<bool>
where
    R: BufRead,
    W: Write,
{
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let handled = server.handle_inline(&line);
        server.respond(&handled.response, &mut output)?;
        if handled.shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Options parsed from `strtaint serve` flags.
#[derive(Debug)]
pub struct ServeOptions {
    /// Project root to load into the resident [`Vfs`] (the default
    /// workspace).
    pub dir: PathBuf,
    /// Additional workspace roots to preload.
    pub workspaces: Vec<PathBuf>,
    /// When set, serve a Unix socket at this path instead of stdio.
    pub socket: Option<PathBuf>,
    /// Artifact-store root; default `<dir>/.strtaint-cache`.
    pub cache_dir: PathBuf,
    /// Disable the on-disk store entirely (memory-only daemon).
    pub no_disk_cache: bool,
    /// Base per-page wall-clock budget in milliseconds.
    pub timeout_ms: Option<f64>,
    /// Base per-page fuel budget.
    pub fuel: Option<f64>,
    /// Worker threads (default `min(cores, 8)`).
    pub workers: usize,
    /// Bounded request-queue depth (default 64).
    pub queue_depth: usize,
    /// Graceful-shutdown drain budget in milliseconds (default 2000).
    pub drain_ms: u64,
}

impl ServeOptions {
    /// Parses the argument list after `serve`. Returns a usage message
    /// on any unrecognized or incomplete flag.
    pub fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let mut dir: Option<PathBuf> = None;
        let mut workspaces = Vec::new();
        let mut socket = None;
        let mut cache_dir: Option<PathBuf> = None;
        let mut no_disk_cache = false;
        let mut timeout_ms = None;
        let mut fuel = None;
        let mut workers = default_workers();
        let mut queue_depth = 64usize;
        let mut drain_ms = 2_000u64;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
                "--workspace" => workspaces.push(PathBuf::from(value("--workspace")?)),
                "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
                "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                "--no-disk-cache" => no_disk_cache = true,
                "--timeout-ms" => {
                    timeout_ms = Some(
                        value("--timeout-ms")?
                            .parse::<f64>()
                            .map_err(|e| format!("--timeout-ms: {e}"))?,
                    )
                }
                "--fuel" => {
                    fuel = Some(
                        value("--fuel")?
                            .parse::<f64>()
                            .map_err(|e| format!("--fuel: {e}"))?,
                    )
                }
                "--workers" => {
                    workers = value("--workers")?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?
                        .max(1);
                }
                "--queue-depth" => {
                    queue_depth = value("--queue-depth")?
                        .parse::<usize>()
                        .map_err(|e| format!("--queue-depth: {e}"))?
                        .max(1);
                }
                "--drain-ms" => {
                    drain_ms = value("--drain-ms")?
                        .parse::<u64>()
                        .map_err(|e| format!("--drain-ms: {e}"))?;
                }
                other => return Err(format!("unknown flag {other:?} (see `strtaint serve --help`)")),
            }
        }
        let dir = dir.ok_or("serve needs --dir <project-root>")?;
        let cache_dir = cache_dir.unwrap_or_else(|| dir.join(".strtaint-cache"));
        Ok(ServeOptions {
            dir,
            workspaces,
            socket,
            cache_dir,
            no_disk_cache,
            timeout_ms,
            fuel,
            workers,
            queue_depth,
            drain_ms,
        })
    }

    /// The base config derived from the budget flags.
    fn base_config(&self) -> Config {
        let mut config = Config::default();
        if let Some(ms) = self.timeout_ms {
            if ms.is_finite() && ms > 0.0 {
                config.timeout = Some(Duration::from_secs_f64(ms / 1e3));
            }
        }
        if let Some(fuel) = self.fuel {
            if fuel.is_finite() && fuel >= 1.0 {
                config.fuel = Some(fuel as u64);
            }
        }
        config
    }
}

/// Builds the resident state for one workspace: loads the tree,
/// applies base budget overrides, and opens the artifact store
/// (falling back to a memory-only workspace, with a warning on
/// `stderr`, when the store directory cannot be created).
pub fn build_state(opts: &ServeOptions) -> io::Result<Arc<DaemonState>> {
    let vfs = Vfs::from_dir(&opts.dir)?;
    let config = opts.base_config();
    let store = if opts.no_disk_cache {
        None
    } else {
        match ArtifactStore::open(&opts.cache_dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!(
                    "strtaint serve: cannot open cache dir {}: {e}; running without persistence",
                    opts.cache_dir.display()
                );
                None
            }
        }
    };
    Ok(Arc::new(DaemonState::new(vfs, config, store)))
}

/// Builds the full multi-workspace server for `opts`: the default
/// workspace from `--dir`, each `--workspace` preloaded, lazy loading
/// enabled for further roots named in requests.
pub fn build_server(opts: &ServeOptions) -> io::Result<ServerState> {
    let default_state = build_state(opts)?;
    let default_key = canonical_key(&opts.dir.display().to_string());
    let loader = WorkspaceLoader {
        config: opts.base_config(),
        disk_cache: !opts.no_disk_cache,
    };
    let workspaces =
        WorkspaceMap::new(&default_key, default_state).with_loader(loader.clone());
    for root in &opts.workspaces {
        let key = canonical_key(&root.display().to_string());
        if key == default_key {
            continue;
        }
        match Vfs::from_dir(root) {
            Ok(vfs) => {
                let store = if opts.no_disk_cache {
                    None
                } else {
                    ArtifactStore::open(&root.join(".strtaint-cache")).ok()
                };
                workspaces.insert(
                    &key,
                    Arc::new(DaemonState::new(vfs, loader.config.clone(), store)),
                );
            }
            Err(e) => {
                eprintln!("strtaint serve: cannot load workspace {key}: {e}");
            }
        }
    }
    Ok(ServerState::new(
        workspaces,
        ServerConfig {
            workers: opts.workers,
            queue_depth: opts.queue_depth,
            drain: Duration::from_millis(opts.drain_ms),
        },
    ))
}

/// Entry point for `strtaint serve <args>`. Returns the process exit
/// code.
pub fn cli_serve(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{}", SERVE_USAGE);
        return 0;
    }
    let opts = match ServeOptions::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("strtaint serve: {e}\n{SERVE_USAGE}");
            return 2;
        }
    };
    let server = match build_server(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("strtaint serve: cannot load {}: {e}", opts.dir.display());
            return 1;
        }
    };
    let (files, lines) = server.workspaces().default_state().tree_size();
    eprintln!(
        "strtaint serve: {files} files / {lines} lines resident across {} workspace(s); \
         {} worker(s), queue depth {}",
        server.workspaces().keys().len(),
        server.pool().workers(),
        server.pool().queue_depth(),
    );

    #[cfg(unix)]
    if let Some(socket) = &opts.socket {
        eprintln!("strtaint serve: listening on {}", socket.display());
        return match serve_socket(&server, socket) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("strtaint serve: socket error: {e}");
                1
            }
        };
    }
    #[cfg(not(unix))]
    if opts.socket.is_some() {
        eprintln!("strtaint serve: --socket is only supported on Unix");
        return 2;
    }

    let stdin = io::stdin();
    let stdout = io::stdout();
    match serve_server_lines(&server, stdin.lock(), stdout.lock()) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("strtaint serve: I/O error: {e}");
            1
        }
    }
}

const SERVE_USAGE: &str = "usage: strtaint serve --dir <project-root> [options]
  --dir <path>        default workspace root to keep resident (required)
  --workspace <path>  preload an additional workspace root (repeatable)
  --socket <path>     serve a Unix socket instead of stdin/stdout
  --cache-dir <path>  artifact store root (default <dir>/.strtaint-cache)
  --no-disk-cache     keep all state in memory only
  --timeout-ms <n>    base per-page wall-clock budget
  --fuel <n>          base per-page fuel budget
  --workers <n>       worker threads (default min(cores, 8))
  --queue-depth <n>   bounded request queue; beyond it requests shed
                      with {\"error\":\"overloaded\",\"retry_after_ms\":n}
  --drain-ms <n>      graceful-shutdown drain budget (default 2000)

Protocol: one JSON request per input line, one JSON response per line.
Optional per-request routing fields: \"workspace\" (shard root),
\"priority\" (0-9, higher first), \"deadline_ms\" (cancel if still
queued when the budget elapses).
  {\"cmd\":\"analyze\",\"entries\":[\"index.php\"],\"xss\":false}
  {\"cmd\":\"invalidate\",\"path\":\"lib.php\",\"contents\":\"<?php ...\"}
  {\"cmd\":\"batch\",\"ops\":[{\"cmd\":\"invalidate\",...},{\"cmd\":\"analyze\",...}]}
  {\"cmd\":\"status\"}
  {\"cmd\":\"metrics\"}
  {\"cmd\":\"shutdown\"}";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn state() -> DaemonState {
        let mut vfs = Vfs::new();
        vfs.add("a.php", "<?php $r = $DB->query(\"SELECT 1\");");
        DaemonState::new(vfs, Config::default(), None)
    }

    #[test]
    fn line_loop_answers_each_request_and_stops_on_shutdown() {
        let s = state();
        let input = "{\"cmd\":\"status\"}\n\n{\"cmd\":\"shutdown\"}\n{\"cmd\":\"status\"}\n";
        let mut output = Vec::new();
        let server = ServerState::single("ws0", s);
        let shut = serve_server_lines(&server, input.as_bytes(), &mut output).expect("serves");
        assert!(shut, "shutdown honored");
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .expect("utf8")
            .lines()
            .collect();
        assert_eq!(lines.len(), 2, "blank line skipped, post-shutdown line unread");
        let first = json::parse(lines[0]).expect("valid JSON response");
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        let second = json::parse(lines[1]).expect("valid JSON response");
        assert_eq!(second.get("shutdown").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn eof_ends_the_loop_cleanly() {
        let s = state();
        let mut output = Vec::new();
        let server = ServerState::single("ws0", s);
        let input = "{\"cmd\":\"status\"}\n";
        let shut = serve_server_lines(&server, input.as_bytes(), &mut output).expect("serves");
        assert!(!shut);
    }

    #[test]
    fn server_lines_route_workspaces_and_batch() {
        let server = ServerState::single("ws0", state());
        let mut ws1 = Vfs::new();
        ws1.add("b.php", "<?php $r = $DB->query(\"SELECT 2\");");
        server.workspaces().insert(
            "ws1",
            Arc::new(DaemonState::new(ws1, Config::default(), None)),
        );
        let input = "{\"cmd\":\"analyze\",\"entries\":[\"b.php\"],\"workspace\":\"ws1\"}\n\
                     {\"cmd\":\"analyze\",\"entries\":[\"b.php\"]}\n\
                     {\"cmd\":\"batch\",\"workspace\":\"ws1\",\"ops\":[{\"cmd\":\"status\"}]}\n\
                     {\"cmd\":\"status\"}\n\
                     {\"cmd\":\"shutdown\"}\n";
        let mut output = Vec::new();
        let shut =
            serve_server_lines(&server, input.as_bytes(), &mut output).expect("serves");
        assert!(shut);
        let lines: Vec<Json> = std::str::from_utf8(&output)
            .expect("utf8")
            .lines()
            .map(|l| json::parse(l).expect("valid response"))
            .collect();
        assert_eq!(lines.len(), 5);
        // ws1 has b.php; the default workspace does not.
        assert_eq!(lines[0].get("ok").and_then(Json::as_bool), Some(true));
        let pages = lines[0].get("pages").and_then(Json::as_arr).expect("pages");
        assert_eq!(pages[0].get("skipped"), Some(&Json::Null));
        let default_pages = lines[1].get("pages").and_then(Json::as_arr).expect("pages");
        assert!(
            default_pages[0]
                .get("skipped")
                .and_then(Json::as_str)
                .is_some(),
            "b.php does not exist in the default workspace"
        );
        // Batch routed to ws1: status sees one file.
        let results = lines[2].get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results[0].get("files").and_then(Json::as_num), Some(1.0));
        // Server status lists both workspaces.
        let wss = lines[3]
            .get("workspaces")
            .and_then(Json::as_arr)
            .expect("workspaces");
        assert_eq!(wss.len(), 2);
        assert!(lines[3].get("workers").and_then(Json::as_num).is_some());
    }

    #[test]
    fn metrics_split_request_parse_and_respond_time() {
        let server = ServerState::single("ws0", state());
        let input = "{\"cmd\":\"analyze\",\"entries\":[\"a.php\"]}\n{\"cmd\":\"metrics\"}\n";
        let mut output = Vec::new();
        serve_server_lines(&server, input.as_bytes(), &mut output).expect("serves");
        let text = std::str::from_utf8(&output).expect("utf8");
        let metrics = json::parse(text.lines().nth(1).expect("metrics line")).expect("parses");
        let count = |name: &str| {
            metrics
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_num)
        };
        // The metrics response is snapshotted before it is written, so
        // both histograms hold the analyze request alone; the metrics
        // line itself was parsed before the snapshot.
        assert_eq!(count("daemon.request_us"), Some(1.0));
        assert_eq!(count("daemon.respond_us"), Some(1.0));
        assert_eq!(count("daemon.parse_us"), Some(2.0));
    }

    #[test]
    fn serve_options_parse_and_reject() {
        let opts = ServeOptions::parse(&[
            "--dir".into(),
            "/tmp/app".into(),
            "--no-disk-cache".into(),
            "--timeout-ms".into(),
            "500".into(),
            "--workers".into(),
            "3".into(),
            "--queue-depth".into(),
            "16".into(),
            "--drain-ms".into(),
            "750".into(),
            "--workspace".into(),
            "/tmp/other".into(),
        ])
        .expect("parses");
        assert_eq!(opts.dir, PathBuf::from("/tmp/app"));
        assert!(opts.no_disk_cache);
        assert_eq!(opts.timeout_ms, Some(500.0));
        assert_eq!(opts.cache_dir, PathBuf::from("/tmp/app/.strtaint-cache"));
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.queue_depth, 16);
        assert_eq!(opts.drain_ms, 750);
        assert_eq!(opts.workspaces, vec![PathBuf::from("/tmp/other")]);

        assert!(ServeOptions::parse(&[]).is_err(), "--dir required");
        assert!(ServeOptions::parse(&["--dir".into()]).is_err(), "value required");
        assert!(
            ServeOptions::parse(&["--dir".into(), "x".into(), "--bogus".into()]).is_err(),
            "unknown flags rejected"
        );
        assert!(
            ServeOptions::parse(&["--dir".into(), "x".into(), "--workers".into(), "q".into()])
                .is_err(),
            "non-numeric workers rejected"
        );
    }
}
