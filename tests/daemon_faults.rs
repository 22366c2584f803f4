//! Fault-injection suite for `strtaint serve` (ISSUE 6 acceptance):
//! each injected fault — a worker killed mid-request, a corrupted
//! artifact-cache entry, a client dropping its connection mid-request,
//! a shutdown racing queued work — must degrade to a structured error
//! or a clean recompute. Never a silent "verified", a poisoned lock,
//! or a wedged daemon.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strtaint_corpus::synth::{synth_app, SynthConfig};
use strtaint_corpus::App;
use strtaint_daemon::json::{self, Json};
use strtaint_daemon::protocol::handle_line;
use strtaint_daemon::server::serve_socket;
use strtaint_daemon::{
    ArtifactStore, DaemonState, ServerConfig, ServerState, StallGate, WorkspaceMap,
};

fn small_app() -> App {
    synth_app(&SynthConfig {
        pages: 3,
        helpers: 2,
        filler_lines: 2,
        vuln_every: 2,
        replace_chain: 0,
        sinks_per_page: 1,
        seed: 42,
    })
}

fn server_over(app: &App, config: ServerConfig) -> ServerState {
    ServerState::new(
        WorkspaceMap::new(
            "ws0",
            Arc::new(DaemonState::new(
                app.vfs.clone(),
                strtaint::Config::default(),
                None,
            )),
        ),
        config,
    )
}

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "strtaint-faults-{}-{tag}.sock",
        std::process::id()
    ))
}

fn connect(socket: &PathBuf) -> UnixStream {
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(socket) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("socket never came up");
}

fn send(stream: &mut UnixStream, reader: &mut BufReader<UnixStream>, line: &str) -> Json {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    json::parse(response.trim()).expect("response parses")
}

#[test]
fn worker_killed_mid_request_yields_structured_error_and_daemon_survives() {
    let app = small_app();
    let server = server_over(&app, ServerConfig::default());
    let socket = temp_socket("panic");
    let _ = std::fs::remove_file(&socket);

    std::thread::scope(|scope| {
        let server_ref = &server;
        let sock = socket.clone();
        let listener = scope.spawn(move || serve_socket(server_ref, &sock));

        let mut conn = connect(&socket);
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));

        // The next pooled job panics its worker mid-request.
        server.pool().fault().arm_panic_after(1);
        let r = send(
            &mut conn,
            &mut reader,
            "{\"cmd\":\"analyze\",\"entries\":[\"page0.php\"]}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let err = r.get("error").and_then(Json::as_str).expect("error member");
        assert!(err.contains("panic"), "error names the panic: {err}");

        // Same connection, same daemon: the retry computes a real
        // verdict (no poisoned lock, no dead worker).
        let retry = send(
            &mut conn,
            &mut reader,
            "{\"cmd\":\"analyze\",\"entries\":[\"page0.php\"]}",
        );
        assert_eq!(retry.get("ok").and_then(Json::as_bool), Some(true));
        let pages = retry.get("pages").and_then(Json::as_arr).expect("pages");
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].get("skipped"), Some(&Json::Null));

        // The panic is visible in metrics, not swallowed.
        let m = send(&mut conn, &mut reader, "{\"cmd\":\"metrics\"}");
        let panics = m
            .get("metrics")
            .and_then(|ms| ms.get("daemon.worker_panics"))
            .and_then(Json::as_num)
            .expect("worker_panics counter");
        assert!(panics >= 1.0);

        send(&mut conn, &mut reader, "{\"cmd\":\"shutdown\"}");
        drop((reader, conn));
        listener.join().expect("listener").expect("clean exit");
    });
    let _ = std::fs::remove_file(&socket);
}

/// A response as a client reads it: written to the wire, then parsed.
fn wire(response: &Json) -> Json {
    strtaint_daemon::json::parse(&response.to_string()).expect("response parses")
}

#[test]
fn corrupt_cache_entry_degrades_to_clean_recompute_with_identical_verdict() {
    let app = small_app();
    let cache = std::env::temp_dir().join(format!(
        "strtaint-faults-{}-cache",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache);

    let entries: Vec<String> = app.entries.iter().map(|e| format!("\"{e}\"")).collect();
    let analyze = format!("{{\"cmd\":\"analyze\",\"entries\":[{}]}}", entries.join(","));

    // First lifetime: compute and persist everything.
    let first = DaemonState::new(
        app.vfs.clone(),
        strtaint::Config::default(),
        Some(ArtifactStore::open(&cache).expect("open")),
    );
    let r1 = wire(&handle_line(&first, &analyze).response);
    assert_eq!(r1.get("ok").and_then(Json::as_bool), Some(true));
    drop(first);

    // Second lifetime: every store read is injected-torn. Replay must
    // degrade to recompute — same verdicts, never a silent trust.
    let store = ArtifactStore::open(&cache).expect("reopen");
    store.fault.arm_corrupt_reads(u64::MAX);
    let second = DaemonState::new(app.vfs.clone(), strtaint::Config::default(), Some(store));
    let r2 = wire(&handle_line(&second, &analyze).response);
    assert_eq!(r2.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        r2.get("computed").and_then(Json::as_num),
        Some(app.entries.len() as f64),
        "torn reads force clean recomputes"
    );
    assert_eq!(
        r2.get("replayed").and_then(Json::as_num),
        Some(0.0),
        "nothing is replayed from a corrupt store"
    );

    // Verdict equality: strip timing/engine members (wall clock and
    // shared-cache order differ across processes), compare the rest.
    fn canonical(v: &Json) -> Json {
        match v {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| {
                        k != "analysis_ms" && k != "check_ms" && k != "engine"
                    })
                    .map(|(k, v)| (k.clone(), canonical(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(canonical).collect()),
            other => other.clone(),
        }
    }
    let mut a = String::new();
    canonical(r1.get("pages").expect("pages")).write(&mut a);
    let mut b = String::new();
    canonical(r2.get("pages").expect("pages")).write(&mut b);
    assert_eq!(a, b, "recomputed verdicts identical to the originals");

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn client_dropping_connection_mid_request_leaves_daemon_healthy() {
    let app = small_app();
    let server = server_over(&app, ServerConfig::default());
    let socket = temp_socket("dropconn");
    let _ = std::fs::remove_file(&socket);

    std::thread::scope(|scope| {
        let server_ref = &server;
        let sock = socket.clone();
        let listener = scope.spawn(move || serve_socket(server_ref, &sock));

        // Hold the worker so the victim's request is in flight when the
        // connection dies, forcing the response write to hit a dead
        // socket.
        let gate = StallGate::new();
        server.pool().fault().arm_stall_next(Arc::clone(&gate));
        {
            let mut victim = connect(&socket);
            victim
                .write_all(b"{\"cmd\":\"analyze\",\"entries\":[\"page0.php\"]}\n")
                .expect("write");
            std::thread::sleep(Duration::from_millis(100));
            // Dropped here, mid-request, without reading the response.
        }
        gate.release();

        // The daemon is unaffected: a fresh client gets real answers.
        let mut conn = connect(&socket);
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let r = send(
            &mut conn,
            &mut reader,
            "{\"cmd\":\"analyze\",\"entries\":[\"page0.php\",\"page1.php\",\"page2.php\"]}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            r.get("pages").and_then(Json::as_arr).map(|p| p.len()),
            Some(3)
        );

        send(&mut conn, &mut reader, "{\"cmd\":\"shutdown\"}");
        drop((reader, conn));
        listener.join().expect("listener").expect("clean exit");
    });
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn shutdown_drain_is_bounded_and_flushes_queued_work_with_structured_errors() {
    let app = small_app();
    let server = server_over(
        &app,
        ServerConfig {
            workers: 1,
            queue_depth: 8,
            drain: Duration::from_millis(300),
        },
    );
    let socket = temp_socket("drain");
    let _ = std::fs::remove_file(&socket);
    let gate = StallGate::new();
    server.pool().fault().arm_stall_next(Arc::clone(&gate));

    std::thread::scope(|scope| {
        let server_ref = &server;
        let sock = socket.clone();
        let listener = scope.spawn(move || serve_socket(server_ref, &sock));

        // conn1 occupies the stalled worker; conn2's request sits in
        // the queue behind it.
        let conn1 = connect(&socket);
        (&conn1)
            .write_all(b"{\"cmd\":\"analyze\",\"entries\":[\"page0.php\"]}\n")
            .expect("write");
        std::thread::sleep(Duration::from_millis(100));
        let mut conn2 = connect(&socket);
        conn2
            .write_all(b"{\"cmd\":\"analyze\",\"entries\":[\"page1.php\"]}\n")
            .expect("write");
        let mut reader2 = BufReader::new(conn2.try_clone().expect("clone"));
        std::thread::sleep(Duration::from_millis(100));

        // Shutdown with the worker wedged: the drain deadline (300ms)
        // must bound the wait, and conn2's queued request must be
        // flushed with a structured shutting_down error.
        let mut conn3 = connect(&socket);
        let mut reader3 = BufReader::new(conn3.try_clone().expect("clone"));
        let t0 = Instant::now();
        let ack = send(&mut conn3, &mut reader3, "{\"cmd\":\"shutdown\"}");
        assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));

        let mut flushed = String::new();
        reader2.read_line(&mut flushed).expect("flushed response");
        let flushed = json::parse(flushed.trim()).expect("parses");
        assert_eq!(flushed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            flushed.get("error").and_then(Json::as_str),
            Some("shutting_down"),
            "queued work flushed with a structured error, not dropped"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drain is bounded even with a wedged worker"
        );

        // Unwedge so the listener (which joins connection threads and
        // the stalled in-flight job) can exit, then confirm it does so
        // promptly.
        gate.release();
        drop((reader2, conn2, reader3, conn3, conn1));
        listener.join().expect("listener").expect("clean exit");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "listener exits after drain"
        );
    });
    let _ = std::fs::remove_file(&socket);
}
