//! The Unix-domain-socket transport for `strtaint serve`: many
//! concurrent clients over one [`ServerState`].
//!
//! Connections are thread-per-connection *readers*; request execution
//! is bounded by the server's worker pool, so a thousand connections
//! contend for `--workers` execution slots, never a thousand threads
//! of engine work. Lines are framed manually over a timed-out reader
//! so each connection thread can observe the drain deadline even while
//! idle, a partial (unterminated) final line still gets a response,
//! and a line exceeding the protocol cap closes the connection with a
//! structured error instead of buffering without bound.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::pool::{ExpireReason, SubmitError};
use crate::server::{
    deadline_response, elapsed_us, error_response, overloaded_response,
    shutting_down_response, write_response, Routed, ServerState,
};

/// How often a connection wakes from a blocking read to check the
/// drain deadline.
const CONN_POLL: Duration = Duration::from_millis(100);

/// Serves connections on a Unix-domain socket until any client sends
/// `shutdown`. Connections are thread-per-connection *readers*; request
/// execution is bounded by the server's worker pool, so a thousand
/// connections contend for `--workers` execution slots, never a
/// thousand threads of engine work.
///
/// Shutdown drains within the server's drain budget: queued requests
/// run if they can, and everything still pending past the deadline is
/// answered with a structured `shutting_down` error.
pub fn serve_socket(server: &ServerState, socket_path: &Path) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn = match conn {
                Ok(c) => c,
                Err(_) => continue,
            };
            let shutdown = &shutdown;
            scope.spawn(move || {
                if serve_conn(server, conn) {
                    shutdown.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so the scope can close.
                    let _ = UnixStream::connect(socket_path);
                }
            });
        }
        // Stop executing queued work past the drain budget; pending
        // requests are flushed with `shutting_down` errors (their
        // connection threads forward those and then exit).
        server.drain_pool();
    });

    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Serves one socket connection; returns `true` when this client
/// requested shutdown.
///
/// Lines are framed manually over a timed-out reader so the thread can
/// observe the drain deadline even while idle, a partial (unterminated)
/// final line still gets a response, and a line exceeding the protocol
/// cap closes the connection with a structured error instead of
/// buffering without bound.
fn serve_conn(server: &ServerState, conn: std::os::unix::net::UnixStream) -> bool {
    use crate::protocol::MAX_LINE_BYTES;
    use std::io::Read;

    let _ = conn.set_read_timeout(Some(CONN_POLL));
    let mut conn = conn;
    let mut buf: Vec<u8> = Vec::new();
    let mut scanned = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    let mut eof = false;

    loop {
        // Drain every complete line currently buffered.
        while let Some(nl) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let line_end = scanned + nl;
            let line: Vec<u8> = buf.drain(..=line_end).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            match answer_line(server, &line, &mut conn) {
                LineOutcome::Continue => {}
                LineOutcome::Shutdown => return true,
                LineOutcome::Close => return false,
            }
        }
        scanned = buf.len();

        if eof {
            // Unterminated trailing line: answer it, then close.
            if !buf.is_empty() {
                let line = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                return matches!(
                    answer_line(server, &line, &mut conn),
                    LineOutcome::Shutdown
                );
            }
            return false;
        }

        // A hostile client streaming one endless line: reject and
        // close rather than buffer it.
        if buf.len() > MAX_LINE_BYTES {
            let _ = write_response(&error_response("request too large").response, &mut conn);
            return false;
        }

        match conn.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll: enforce the drain deadline.
                if let Some(deadline) = server.drain_deadline() {
                    if Instant::now() > deadline {
                        return false;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

enum LineOutcome {
    Continue,
    Shutdown,
    Close,
}

/// Routes and answers one request line on a socket connection.
fn answer_line(
    server: &ServerState,
    line: &str,
    conn: &mut std::os::unix::net::UnixStream,
) -> LineOutcome {
    use std::sync::mpsc;

    if line.trim().is_empty() {
        return LineOutcome::Continue;
    }
    let t0 = Instant::now();
    let (response, shutdown) = if server.is_shutting_down() {
        (shutting_down_response(), false)
    } else {
        match server.route(line) {
            Routed::Ready(handled) => (handled.response, handled.shutdown),
            Routed::Work(work) => {
                let (tx, rx) = mpsc::channel::<Json>();
                let cancel_tx = tx.clone();
                let deadline = work.deadline.map(|d| Instant::now() + d);
                let submitted = server.pool().try_submit(
                    work.priority,
                    deadline,
                    move || {
                        let _ = tx.send(work.run().response);
                    },
                    move |reason| {
                        let _ = cancel_tx.send(match reason {
                            ExpireReason::Deadline => deadline_response(),
                            ExpireReason::Shutdown => shutting_down_response(),
                        });
                    },
                );
                let response = match submitted {
                    Ok(()) => rx.recv().unwrap_or_else(|_| {
                        // Sender dropped without a response: the worker
                        // panicked mid-request. The worker survived
                        // (catch_unwind); the client gets a structured
                        // error, not a hang.
                        error_response("internal: worker panicked mid-request")
                            .response
                    }),
                    Err(SubmitError::Overloaded { retry_after_ms }) => {
                        overloaded_response(retry_after_ms)
                    }
                    Err(SubmitError::ShuttingDown) => shutting_down_response(),
                };
                (response, false)
            }
        }
    };
    server.request_us.observe(elapsed_us(t0));
    if server.respond(&response, conn).is_err() {
        // Client dropped mid-write: close this connection quietly; the
        // server and every other client are unaffected.
        return LineOutcome::Close;
    }
    if shutdown {
        LineOutcome::Shutdown
    } else {
        LineOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::state::DaemonState;
    use strtaint::{Config, Vfs};

    fn state() -> DaemonState {
        let mut vfs = Vfs::new();
        vfs.add("a.php", "<?php $r = $DB->query(\"SELECT 1\");");
        DaemonState::new(vfs, Config::default(), None)
    }

    #[test]
    fn socket_serves_concurrent_clients() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let server = ServerState::single("ws0", state());
        let socket = std::env::temp_dir().join(format!(
            "strtaint-daemon-test-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        std::thread::scope(|scope| {
            let sock = socket.clone();
            let server = &server;
            let listener = scope.spawn(move || serve_socket(server, &sock));
            // Wait for the listener to come up.
            let mut conn = None;
            for _ in 0..100 {
                match UnixStream::connect(&socket) {
                    Ok(c) => {
                        conn = Some(c);
                        break;
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
            let mut conn = conn.expect("socket comes up");
            let mut conn2 = UnixStream::connect(&socket).expect("second client connects");

            conn.write_all(b"{\"cmd\":\"analyze\",\"entries\":[\"a.php\"]}\n")
                .expect("write");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let r = json::parse(line.trim()).expect("valid response");
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

            conn2
                .write_all(b"{\"cmd\":\"status\"}\n")
                .expect("write 2");
            let mut reader2 = BufReader::new(conn2.try_clone().expect("clone 2"));
            let mut line2 = String::new();
            reader2.read_line(&mut line2).expect("read 2");
            let st = json::parse(line2.trim()).expect("valid status");
            assert_eq!(st.get("pages_computed").and_then(Json::as_num), Some(1.0));

            // Close the first client before shutdown: the server drains
            // open connections before exiting.
            drop(reader);
            drop(conn);
            conn2
                .write_all(b"{\"cmd\":\"shutdown\"}\n")
                .expect("shutdown write");
            line2.clear();
            reader2.read_line(&mut line2).expect("shutdown ack");
            drop(reader2);
            drop(conn2);
            listener.join().expect("no panic").expect("clean exit");
        });
        assert!(!socket.exists(), "socket file cleaned up");
    }

    #[test]
    fn unterminated_final_line_still_gets_a_response() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::Shutdown;
        use std::os::unix::net::UnixStream;

        let server = ServerState::single("ws0", state());
        let socket = std::env::temp_dir().join(format!(
            "strtaint-daemon-test-{}-trunc.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        std::thread::scope(|scope| {
            let sock = socket.clone();
            let server_ref = &server;
            let listener = scope.spawn(move || serve_socket(server_ref, &sock));
            let mut conn = None;
            for _ in 0..100 {
                match UnixStream::connect(&socket) {
                    Ok(c) => {
                        conn = Some(c);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            let conn = conn.expect("socket comes up");
            // No trailing newline, then half-close the write side.
            (&conn).write_all(b"{\"cmd\":\"status\"}").expect("write");
            conn.shutdown(Shutdown::Write).expect("half-close");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let r = json::parse(line.trim()).expect("valid response to partial line");
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
            drop(reader);
            drop(conn);

            let shut = UnixStream::connect(&socket).expect("connect for shutdown");
            (&shut).write_all(b"{\"cmd\":\"shutdown\"}\n").expect("write");
            let mut reader = BufReader::new(shut);
            let mut ack = String::new();
            reader.read_line(&mut ack).expect("ack");
            listener.join().expect("no panic").expect("clean exit");
        });
        let _ = std::fs::remove_file(&socket);
    }
}
