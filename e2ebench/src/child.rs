//! The `purposectl` child processes: spawn, time, reap (with the child's
//! own resource usage) and stop; plus the requests that talk to `serve`.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Reap `child`, returning its exit code (`-signal` when killed) and its
/// high-water resident set in KiB.
fn reap(child: &Child) -> Result<(i32, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it:
        // callers reap only through this function), and both out-pointers
        // refer to live, properly sized locals for the duration of the call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok((code, u64::try_from(usage.maxrss_kib).unwrap_or(0)))
}

fn signal(child: &Child, sig: i32) {
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: plain syscall on our own child's pid, which stays
        // reserved for us until we reap it.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// One `purposectl audit` invocation.
pub struct AuditRun {
    pub wall: Duration,
    pub code: i32,
    pub maxrss_kib: u64,
    pub stdout: String,
}

/// Run `purposectl audit <args>` from spawn to exit, its stdout captured
/// to `out` (a file, so a full pipe can never stall the child).
pub fn run_audit(bin: &Path, args: &[String], out: &Path) -> Result<AuditRun, String> {
    let file = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let start = Instant::now();
    let child = Command::new(bin)
        .arg("audit")
        .args(args)
        .stdin(Stdio::null())
        .stdout(file)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let (code, maxrss_kib) = reap(&child)?;
    let wall = start.elapsed();
    let stdout = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(AuditRun {
        wall,
        code,
        maxrss_kib,
        stdout,
    })
}

/// A running `purposectl serve`.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn until the `serving on` line.
    pub setup: Duration,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn start(bin: &Path, args: &[String]) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    signal(&child, SIGKILL);
                    let _ = reap(&child);
                    return Err("serve exited before printing `serving on`".to_string());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("serving on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        let setup = start.elapsed();
        // Keep reading so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = lines.read_to_end(&mut sink);
        });
        Ok(Server {
            child,
            addr,
            setup,
            drain: Some(drain),
        })
    }

    /// The child's high-water resident set (KiB), read while it runs.
    pub fn peak_rss_kib(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    /// SIGTERM (drain and exit) and reap; returns the exit code.
    pub fn stop(mut self) -> Result<i32, String> {
        signal(&self.child, SIGTERM);
        let code = reap(&self.child).map(|(code, _)| code);
        if let Some(drain) = self.drain.take() {
            drain
                .join()
                .map_err(|_| "stdout drain panicked".to_string())?;
        }
        code
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when `stop` was not: never leave a server behind.
        if self.drain.is_some() {
            signal(&self.child, SIGKILL);
            let _ = reap(&self.child);
        }
    }
}

/// One request through the repository's own HTTP client, as status and
/// body. The leading `::` names the `serve` crate, not this package's
/// `serve` module.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    ::serve::client::request(addr, method, path, body)
        .map(|r| (r.status, r.body))
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// Remove and recreate `dir`.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}
