//! The crash flight recorder: a process-global black box.
//!
//! A bounded in-memory ring of [`TimedEvent`]s covering the last N seconds
//! of activity, dumped as JSON lines (`<dir>/flight.jsonl`, schema
//! `schemas/flight.schema.json`) when something goes wrong: the panic
//! hook, SIGUSR1, the typed ENOSPC/EIO degradation paths in the live
//! monitor, or a periodic persistence tick that keeps the last dump on
//! disk so even SIGKILL leaves a postmortem behind.
//!
//! The recorder is **global state** on purpose: the degradation paths
//! that most need to leave a black box behind (`core::live`'s spill
//! failures) sit many layers below anything that could plumb a handle
//! down, and a panic hook has no context at all. The fast path is one
//! relaxed atomic load when not installed — the default for every
//! embedded/test use — so library users never pay for it.
//!
//! Dumps are written with the workspace's one durable write,
//! [`codec::atomic_write`] (temp file → fsync → rename → dir-fsync).

use crate::recorder::{ObsEvent, TimedEvent};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity: at one event per batch plus lifecycle noise this
/// covers minutes of serving, bounded to a few MiB worst case.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Default recording window in seconds ("the last N seconds of activity").
pub const DEFAULT_WINDOW_SECS: u64 = 60;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static INNER: Mutex<Option<FlightInner>> = Mutex::new(None);

struct FlightInner {
    anchor: Instant,
    window_us: u64,
    capacity: usize,
    ring: VecDeque<TimedEvent>,
    dir: Option<PathBuf>,
}

fn inner() -> std::sync::MutexGuard<'static, Option<FlightInner>> {
    INNER.lock().unwrap_or_else(|p| p.into_inner())
}

/// Install (or reconfigure) the process flight recorder. `dir` is where
/// [`dump`] writes `flight.jsonl`; `None` keeps the ring in memory only
/// (dumps return `None`). Resets the ring and the drop counter.
pub fn install(dir: Option<&Path>, window_secs: u64, capacity: usize) {
    let mut guard = inner();
    *guard = Some(FlightInner {
        anchor: Instant::now(),
        window_us: window_secs.saturating_mul(1_000_000),
        capacity: capacity.max(1),
        ring: VecDeque::new(),
        dir: dir.map(Path::to_path_buf),
    });
    DROPPED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Tear down the recorder (tests). Subsequent [`record`] calls are no-ops.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    *inner() = None;
}

#[inline]
pub fn installed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Events evicted for capacity (window expiry is not counted — aging out
/// is the design, overflowing is data loss).
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Record an event. The closure only runs when the recorder is installed,
/// so the uninstalled fast path is one atomic load.
#[inline]
pub fn record(f: impl FnOnce() -> ObsEvent) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let event = f();
    let mut guard = inner();
    let Some(inner) = guard.as_mut() else { return };
    let micros = inner.anchor.elapsed().as_micros() as u64;
    if inner.ring.len() >= inner.capacity {
        inner.ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    let horizon = micros.saturating_sub(inner.window_us);
    while inner.ring.front().is_some_and(|e| e.micros < horizon) {
        inner.ring.pop_front();
    }
    inner.ring.push_back(TimedEvent { micros, event });
}

/// Snapshot the ring (oldest first), trimmed to the recording window.
pub fn snapshot() -> Vec<TimedEvent> {
    let mut guard = inner();
    let Some(inner) = guard.as_mut() else {
        return Vec::new();
    };
    let horizon = (inner.anchor.elapsed().as_micros() as u64).saturating_sub(inner.window_us);
    while inner.ring.front().is_some_and(|e| e.micros < horizon) {
        inner.ring.pop_front();
    }
    inner.ring.iter().cloned().collect()
}

/// Typed extra fields for the event kinds a postmortem cross-references
/// against other state (offsets against checkpoints, depths against
/// metrics). Everything else carries only `kind` + `detail`.
fn extras(event: &ObsEvent) -> String {
    match event {
        ObsEvent::OffsetCommit { tenant, offset } => format!(
            ",\"tenant\":{},\"offset\":{offset}",
            crate::json::escape(tenant)
        ),
        ObsEvent::QueueDepth { tenant, depth } => format!(
            ",\"tenant\":{},\"depth\":{depth}",
            crate::json::escape(tenant)
        ),
        ObsEvent::SpanOpen { trace, stage } | ObsEvent::SpanClose { trace, stage, .. } => {
            format!(",\"trace\":\"{trace:016x}\",\"stage\":\"{stage}\"")
        }
        _ => String::new(),
    }
}

fn event_line(e: &TimedEvent) -> String {
    format!(
        "{{\"t_us\":{},\"kind\":\"{}\",\"detail\":{}{}}}",
        e.micros,
        e.event.kind(),
        crate::json::escape(&e.event.to_string()),
        extras(&e.event)
    )
}

/// Render the current ring as `flight.jsonl` content: one JSON line per
/// event plus a trailing `FlightDump` marker naming the dump reason.
pub fn dump_lines(reason: &str) -> String {
    let events = snapshot();
    let mut s = String::with_capacity(events.len() * 96 + 64);
    for e in &events {
        s.push_str(&event_line(e));
        s.push('\n');
    }
    let t_us = events.last().map(|e| e.micros).unwrap_or(0);
    s.push_str(&format!(
        "{{\"t_us\":{t_us},\"kind\":\"FlightDump\",\"detail\":{}}}\n",
        crate::json::escape(&format!("flight dump: {reason} ({} events)", events.len()))
    ));
    s
}

/// Crash-atomically write the ring to `<dir>/flight.jsonl`. Returns the
/// path, or `None` when the recorder is uninstalled, has no dump
/// directory or the write failed. Never panics — a flight dump running
/// *inside* the panic hook must not double-panic.
pub fn dump(reason: &str) -> Option<PathBuf> {
    let dir = inner().as_ref()?.dir.clone()?;
    let path = dir.join("flight.jsonl");
    codec::atomic_write(&path, dump_lines(reason).as_bytes(), true).ok()?;
    Some(path)
}

/// Install a panic hook that records the panic and dumps the ring before
/// delegating to the previous hook. Idempotence is the caller's problem
/// (install once at process start); chaining keeps the default backtrace.
pub fn install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        record(|| ObsEvent::Diagnostic {
            detail: format!("panic: {info}"),
        });
        let _ = dump("panic");
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// The recorder is process-global; serialize the tests that install it.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn uninstalled_recording_is_a_noop() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        uninstall();
        let mut ran = false;
        record(|| {
            ran = true;
            ObsEvent::Diagnostic { detail: "x".into() }
        });
        assert!(!ran);
        assert!(snapshot().is_empty());
        assert!(dump("test").is_none());
    }

    #[test]
    fn ring_bounds_and_dump_round_trip() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = scratch("dump");
        install(Some(&dir), 3600, 8);
        for i in 0..12u64 {
            record(|| ObsEvent::OffsetCommit {
                tenant: "demo".into(),
                offset: i,
            });
        }
        assert_eq!(dropped(), 4);
        let events = snapshot();
        assert_eq!(events.len(), 8);
        record(|| ObsEvent::QueueDepth {
            tenant: "demo".into(),
            depth: 3,
        });
        let path = dump("test").expect("dump path");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 8 ring events (one evicted by the QueueDepth push) + marker.
        assert_eq!(lines.len(), 8 + 1);
        for line in &lines {
            let doc = crate::parse_json(line).expect("flight line parses");
            assert!(doc.get("kind").and_then(|v| v.as_str()).is_some());
        }
        let last_commit = lines
            .iter()
            .rev()
            .map(|l| crate::parse_json(l).unwrap())
            .find(|d| d.get("kind").and_then(|v| v.as_str()) == Some("OffsetCommit"))
            .expect("an offset commit survives");
        assert_eq!(
            last_commit.get("offset").and_then(|v| v.as_f64()),
            Some(11.0)
        );
        assert!(text.contains("\"FlightDump\""));
        uninstall();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn window_expiry_is_not_a_drop() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(None, 0, 1024); // zero-second window: everything ages out
        record(|| ObsEvent::Diagnostic { detail: "a".into() });
        std::thread::sleep(std::time::Duration::from_millis(2));
        record(|| ObsEvent::Diagnostic { detail: "b".into() });
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(snapshot().is_empty());
        assert_eq!(dropped(), 0);
        uninstall();
    }
}
