//! Fleet-scale soak for `strtaint serve` (ISSUE 6 acceptance): many
//! clients driving interleaved `analyze`/`invalidate`/`status`/`batch`
//! traffic across many workspaces through the bounded worker pool.
//!
//! What the soak pins, in order of importance:
//!
//! 1. **Zero cross-workspace leakage.** After the storm, every
//!    workspace's verdicts equal a serial single-workspace run over the
//!    same final tree (canonicalized: timing and engine-counter members
//!    stripped, since those legitimately depend on wall clock and
//!    shared-cache arrival order — the *verdict* content must match
//!    exactly).
//! 2. **Every request gets a structured answer.** No hangs, no torn
//!    lines, no panics — `ok:true` or `ok:false` with an `error`.
//! 3. **Shed-load under saturation.** With a one-deep queue and a
//!    stalled worker, excess traffic gets `overloaded` +
//!    `retry_after_ms`, and the daemon recovers when the stall clears.
//! 4. **Metrics tell the story**: request-latency histogram (p99
//!    derivable), queue-depth gauge, and shed counter are all present
//!    and consistent with the traffic driven.
//!
//! Scale knobs (CI runs a scaled-down soak, see
//! `.github/workflows/ci.yml`): `STRTAINT_SOAK_REQUESTS` (default
//! 1000) and `STRTAINT_SOAK_WORKSPACES` (default 12).

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use strtaint_corpus::synth::{synth_app, SynthConfig};
use strtaint_corpus::App;
use strtaint_daemon::json::{self, Json};
use strtaint_daemon::server::serve_socket;
use strtaint_daemon::{
    DaemonState, ServerConfig, ServerState, StallGate, WorkspaceMap,
};

fn env_knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One workspace's corpus: a small deterministic app, seeded per index
/// so workspaces differ (leakage between them would change verdicts).
fn ws_app(index: usize) -> App {
    synth_app(&SynthConfig {
        pages: 3,
        helpers: 2,
        filler_lines: 2,
        vuln_every: 2,
        replace_chain: 0,
        sinks_per_page: 1,
        seed: 100 + index as u64,
    })
}

/// The deterministic replacement body every `invalidate` in the soak
/// writes for `page0.php`: whatever order concurrent invalidates land
/// in, the final tree is the same, so a serial reference run is
/// well-defined.
fn variant_body(ws: usize) -> String {
    format!(
        "<?php\n$v = $_GET['w{ws}'];\n$r = $DB->query(\"SELECT * FROM t{ws} WHERE k='$v'\");\n"
    )
}

/// Strips members whose values legitimately differ between runs —
/// wall-clock timings and shared-cache engine counters — leaving the
/// verdict content (findings, hotspots, evidence) intact.
fn canonical(v: &Json) -> Json {
    match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "analysis_ms" && k != "check_ms" && k != "engine")
                .map(|(k, v)| (k.clone(), canonical(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(canonical).collect()),
        other => other.clone(),
    }
}

fn canonical_pages(response: &Json) -> String {
    let mut out = String::new();
    canonical(response.get("pages").expect("pages member")).write(&mut out);
    out
}

struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &PathBuf) -> Client {
        let mut last_err = None;
        for _ in 0..200 {
            match UnixStream::connect(socket) {
                Ok(s) => {
                    let reader = BufReader::new(s.try_clone().expect("clone stream"));
                    return Client { stream: s, reader };
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        panic!("socket never came up: {last_err:?}");
    }

    fn send(&mut self, line: &str) -> Json {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "connection closed mid-soak");
        json::parse(response.trim()).expect("response parses as JSON")
    }
}

fn fleet_server(workspaces: usize, config: ServerConfig) -> (ServerState, Vec<App>) {
    let apps: Vec<App> = (0..workspaces).map(ws_app).collect();
    let map = WorkspaceMap::new(
        "ws0",
        Arc::new(DaemonState::new(
            apps[0].vfs.clone(),
            strtaint::Config::default(),
            None,
        )),
    );
    for (i, app) in apps.iter().enumerate().skip(1) {
        map.insert(
            &format!("ws{i}"),
            Arc::new(DaemonState::new(
                app.vfs.clone(),
                strtaint::Config::default(),
                None,
            )),
        );
    }
    (ServerState::new(map, config), apps)
}

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("strtaint-soak-{}-{tag}.sock", std::process::id()))
}

#[test]
fn soak_interleaved_fleet_traffic_has_no_cross_workspace_leakage() {
    let total_requests = env_knob("STRTAINT_SOAK_REQUESTS", 1_000);
    let n_workspaces = env_knob("STRTAINT_SOAK_WORKSPACES", 12).max(2);
    let n_clients = 8usize;

    let (server, apps) = fleet_server(
        n_workspaces,
        ServerConfig {
            workers: 4,
            queue_depth: 256,
            drain: Duration::from_millis(2_000),
        },
    );
    let socket = temp_socket("fleet");
    let _ = std::fs::remove_file(&socket);

    std::thread::scope(|scope| {
        let server_ref = &server;
        let sock = socket.clone();
        let listener = scope.spawn(move || serve_socket(server_ref, &sock));

        let per_client = total_requests / n_clients;
        let mut drivers = Vec::new();
        for c in 0..n_clients {
            let socket = socket.clone();
            let apps = &apps;
            drivers.push(scope.spawn(move || {
                let mut client = Client::connect(&socket);
                let mut answered = 0usize;
                for i in 0..per_client {
                    // Deterministic interleave: workspace and verb vary
                    // per (client, step) with no RNG.
                    let ws = (c * 31 + i * 7) % n_workspaces;
                    let entry = &apps[ws].entries[i % apps[ws].entries.len()];
                    let line = match i % 5 {
                        // Invalidate always writes the same body for
                        // (ws, page0), so the final tree is
                        // order-independent.
                        0 => format!(
                            "{{\"cmd\":\"invalidate\",\"workspace\":\"ws{ws}\",\"path\":\"page0.php\",\"contents\":{}}}",
                            Json::Str(variant_body(ws)).to_string()
                        ),
                        1 => format!("{{\"cmd\":\"status\",\"workspace\":\"ws{ws}\"}}"),
                        2 => format!(
                            "{{\"cmd\":\"batch\",\"workspace\":\"ws{ws}\",\"ops\":[{{\"cmd\":\"invalidate\",\"path\":\"page0.php\",\"contents\":{}}},{{\"cmd\":\"analyze\",\"entries\":[\"page0.php\"]}}]}}",
                            Json::Str(variant_body(ws)).to_string()
                        ),
                        _ => format!(
                            "{{\"cmd\":\"analyze\",\"workspace\":\"ws{ws}\",\"entries\":[\"{entry}\"],\"priority\":{}}}",
                            i % 3
                        ),
                    };
                    let response = client.send(&line);
                    // Every response is structured: ok, or an error
                    // string. Nothing else is acceptable under load.
                    match response.get("ok").and_then(Json::as_bool) {
                        Some(true) => {}
                        Some(false) => {
                            assert!(
                                response.get("error").and_then(Json::as_str).is_some(),
                                "failure without error member: {}",
                                response.to_string()
                            );
                        }
                        None => panic!("unstructured response: {}", response.to_string()),
                    }
                    answered += 1;
                }
                answered
            }));
        }
        // A dedicated monitor polls the query-cache counters while the
        // storm runs: accumulated engine stats only ever grow, so every
        // sampled sequence must be non-decreasing. A decrease would
        // mean counters are being reset or torn mid-merge.
        let monitor = {
            let socket = socket.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&socket);
                let mut samples: Vec<[f64; 4]> = Vec::new();
                for _ in 0..30 {
                    let m = client.send("{\"cmd\":\"metrics\",\"workspace\":\"ws0\"}");
                    let metrics = m.get("metrics").expect("metrics member");
                    let read = |name: &str| {
                        metrics
                            .get(name)
                            .and_then(Json::as_num)
                            .unwrap_or_else(|| panic!("gauge {name} missing"))
                    };
                    samples.push([
                        read("qcache.hits"),
                        read("qcache.misses"),
                        read("qcache.evictions"),
                        read("witness.skipped"),
                    ]);
                    std::thread::sleep(Duration::from_millis(20));
                }
                for w in samples.windows(2) {
                    for k in 0..4 {
                        assert!(
                            w[1][k] >= w[0][k],
                            "qcache counter {k} decreased mid-soak: {:?} -> {:?}",
                            w[0],
                            w[1]
                        );
                    }
                }
                samples.last().expect("samples nonempty")[1]
            })
        };
        let answered: usize = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
        assert_eq!(answered, per_client * n_clients, "no request lost");
        let final_misses = monitor.join().expect("monitor");
        assert!(
            final_misses > 0.0,
            "soak drove analyses but the query cache saw no queries"
        );

        // Leakage check: per workspace, the daemon's post-storm verdicts
        // must equal a serial single-workspace run over the same final
        // tree (initial app with page0.php replaced by the variant).
        let mut client = Client::connect(&socket);
        for (ws, app) in apps.iter().enumerate() {
            let entries: Vec<String> =
                app.entries.iter().map(|e| format!("\"{e}\"")).collect();
            let daemon_view = client.send(&format!(
                "{{\"cmd\":\"analyze\",\"workspace\":\"ws{ws}\",\"entries\":[{}]}}",
                entries.join(",")
            ));
            assert_eq!(daemon_view.get("ok").and_then(Json::as_bool), Some(true));

            let mut reference_vfs = app.vfs.clone();
            reference_vfs.add("page0.php", variant_body(ws));
            let reference = DaemonState::new(
                reference_vfs,
                strtaint::Config::default(),
                None,
            );
            // Read as a client would: written to the wire, then parsed.
            let reference_view = strtaint_daemon::json::parse(
                &strtaint_daemon::protocol::handle_line(
                    &reference,
                    &format!("{{\"cmd\":\"analyze\",\"entries\":[{}]}}", entries.join(",")),
                )
                .response
                .to_string(),
            )
            .expect("response parses");
            assert_eq!(
                canonical_pages(&daemon_view),
                canonical_pages(&reference_view),
                "workspace ws{ws} diverged from its serial reference"
            );
        }

        // Metrics: the latency histogram saw the traffic (p99 is
        // derivable from its cumulative buckets), and queue/shed
        // metrics are reported.
        let m = client.send("{\"cmd\":\"metrics\"}");
        let metrics = m.get("metrics").expect("metrics member");
        let request_us = metrics.get("daemon.request_us").expect("latency histogram");
        let count = request_us
            .get("count")
            .and_then(Json::as_num)
            .expect("histogram count");
        assert!(
            count >= (per_client * n_clients) as f64,
            "histogram missed requests: {count}"
        );
        let buckets = request_us
            .get("buckets")
            .and_then(Json::as_arr)
            .expect("buckets");
        let rank = (0.99 * count).ceil();
        let p99 = buckets
            .iter()
            .find(|b| b.get("n").and_then(Json::as_num).unwrap_or(0.0) >= rank)
            .expect("p99 bucket exists");
        assert!(
            p99.get("le").is_some(),
            "p99 latency derivable from the histogram"
        );
        assert!(
            metrics.get("daemon.queue_depth").and_then(Json::as_num).is_some(),
            "queue-depth gauge reported"
        );
        assert!(
            metrics.get("daemon.shed").and_then(Json::as_num).is_some(),
            "shed counter reported"
        );

        client.send("{\"cmd\":\"shutdown\"}");
        drop(client);
        listener.join().expect("listener thread").expect("clean exit");
    });
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn saturated_queue_sheds_with_retry_hint_and_recovers() {
    let (server, _apps) = fleet_server(
        2,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            drain: Duration::from_millis(2_000),
        },
    );
    let gate = StallGate::new();
    server.pool().fault().arm_stall_next(Arc::clone(&gate));
    let socket = temp_socket("shed");
    let _ = std::fs::remove_file(&socket);

    std::thread::scope(|scope| {
        let server_ref = &server;
        let sock = socket.clone();
        let listener = scope.spawn(move || serve_socket(server_ref, &sock));

        // conn1's analyze occupies the (stalled) worker.
        let mut conn1 = Client::connect(&socket);
        conn1
            .stream
            .write_all(b"{\"cmd\":\"analyze\",\"entries\":[\"page0.php\"]}\n")
            .expect("write");
        std::thread::sleep(Duration::from_millis(100));

        // conn2's analyze fills the one-deep queue.
        let mut conn2 = Client::connect(&socket);
        conn2
            .stream
            .write_all(b"{\"cmd\":\"analyze\",\"entries\":[\"page1.php\"]}\n")
            .expect("write");
        std::thread::sleep(Duration::from_millis(100));

        // conn3 must be shed immediately with a structured backoff —
        // not queued, not hung.
        let mut conn3 = Client::connect(&socket);
        let shed = conn3.send("{\"cmd\":\"analyze\",\"entries\":[\"page2.php\"]}");
        assert_eq!(shed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(shed.get("error").and_then(Json::as_str), Some("overloaded"));
        let retry = shed
            .get("retry_after_ms")
            .and_then(Json::as_num)
            .expect("retry hint");
        assert!((10.0..=1_000.0).contains(&retry));

        // Cheap verbs bypass the pool: status answers even while the
        // queue is saturated, and reports the shed.
        let status = conn3.send("{\"cmd\":\"status\"}");
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        assert!(status.get("shed").and_then(Json::as_num).unwrap_or(0.0) >= 1.0);
        assert!(status.get("queue_depth").and_then(Json::as_num).unwrap_or(0.0) >= 1.0);

        // Recovery: release the stall; both held requests complete and
        // new traffic flows.
        gate.release();
        let mut r1 = String::new();
        conn1.reader.read_line(&mut r1).expect("conn1 response");
        assert_eq!(
            json::parse(r1.trim())
                .expect("parses")
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
        let mut r2 = String::new();
        conn2.reader.read_line(&mut r2).expect("conn2 response");
        assert_eq!(
            json::parse(r2.trim())
                .expect("parses")
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
        let again = conn3.send("{\"cmd\":\"analyze\",\"entries\":[\"page2.php\"]}");
        assert_eq!(again.get("ok").and_then(Json::as_bool), Some(true));

        conn3.send("{\"cmd\":\"shutdown\"}");
        drop((conn1, conn2, conn3));
        listener.join().expect("listener thread").expect("clean exit");
    });
    let _ = std::fs::remove_file(&socket);
}
