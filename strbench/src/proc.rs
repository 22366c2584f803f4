//! Timing child processes: wall clock to exit, exit code and peak
//! resident set, with a watchdog that kills a child past its timeout.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The result of one timed child process.
#[derive(Debug)]
pub struct Exit {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit code; `None` when a signal ended the process (for example
    /// the watchdog).
    pub code: Option<i32>,
    /// Peak resident set of the process, in KiB.
    pub max_rss_kib: u64,
    /// Everything the process wrote to standard output.
    pub stdout: Vec<u8>,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Kills `pid` with SIGKILL. Errors (the process already exited) are
/// ignored.
fn kill_pid(pid: u32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // this process.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Reaps `child`, returning its wait status and peak RSS in KiB.
fn reap(child: &Child) -> (i32, u64) {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, properly laid-out
        // locals that wait4(2) writes through; the pid is our child's.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break;
        }
    }
    (status, u64::try_from(usage.maxrss).unwrap_or(0))
}

/// A watchdog that kills `pid` unless disarmed within `timeout`.
pub struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    /// Arms a watchdog for `pid`.
    pub fn arm(pid: u32, timeout: Duration) -> Watchdog {
        let (disarm, rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(timeout) {
                kill_pid(pid);
            }
        });
        Watchdog { disarm, thread }
    }

    /// Disarms the watchdog and waits for its thread.
    pub fn disarm(self) {
        let _ = self.disarm.send(());
        self.thread.join().expect("watchdog thread does not panic");
    }
}

/// Runs `cmd` to completion with stdout captured and stderr discarded,
/// killing it after `timeout`. The clock runs from spawn to exit; the
/// output is read while the process runs, so nothing is parsed on the
/// clock.
pub fn run_timed(cmd: &mut Command, timeout: Duration) -> std::io::Result<Exit> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let dog = Watchdog::arm(child.id(), timeout);
    let mut stdout = Vec::with_capacity(1 << 16);
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let (status, max_rss_kib) = reap(&child);
    let wall = t0.elapsed();
    dog.disarm();
    read?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        wall,
        code,
        max_rss_kib,
        stdout,
    })
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
