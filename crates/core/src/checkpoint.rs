//! Live-session checkpoints.
//!
//! The streaming monitor ([`crate::live::LiveAuditor`]) must survive two
//! things a batch auditor never faces: memory pressure (more open cases
//! than it may keep resident) and restarts (a tailer killed mid-stream).
//! Both reduce to the same primitive — serialize an *open* session so it
//! can be rebuilt later, byte-identically.
//!
//! The format deliberately reuses the `.pcas` machinery: the same
//! versioned+checksummed [`codec`] envelope (magic, format version,
//! content key, payload length, FNV-1a 64 checksum), the same local symbol
//! table and state encoding from [`cows::automaton::snapshot`], and the
//! same fail-open typed errors. A case checkpoint is keyed by its process's
//! [`Encoded::snapshot_key`], so a checkpoint written against yesterday's
//! process model self-invalidates instead of resuming against the wrong
//! automaton.
//!
//! Two envelopes exist:
//!
//! * `PCLC` — one open case: the [`SessionState`] (configurations as COWS
//!   terms, counters, temporal anchor) plus the monitor's per-case
//!   bookkeeping (retained severity-context entries, drop counter, LRU
//!   trail-time). This is both the spill-file format for evicted cases and
//!   the per-case unit inside a monitor checkpoint.
//! * `PCLM` — a whole monitor: the stream offset, every open case (each a
//!   complete nested `PCLC` blob, so spill files and checkpoints are one
//!   code path), the retired [`ClosedCase`] records and the alarm order.
//!
//! Like `.pcas` snapshots, decoded states are re-normalized under the
//! current run's symbol order, so a checkpoint written by one process
//! rehydrates into this run's canonical terms.

use crate::error::CheckError;
use crate::live::ClosedCase;
use crate::replay::{Infringement, InfringementKind};
use crate::session::{SessionMeta, SessionState};
use crate::severity::SeverityAssessment;
use audit::entry::{LogEntry, TaskStatus};
use audit::time::Timestamp;
use codec::{Reader, Writer};
use cows::symbol::Symbol;
use cows::{SnapshotError, SymbolTable, SymbolWriter};
use policy::object::ObjectId;
use policy::statement::Action;
use std::fmt;

/// Magic for a single-case checkpoint (spill files, nested case blobs).
pub const CASE_MAGIC: [u8; 4] = *b"PCLC";

/// Magic for a whole-monitor checkpoint.
pub const MONITOR_MAGIC: [u8; 4] = *b"PCLM";

/// Magic for a sharded-monitor checkpoint (one nested `PCLM` per shard).
pub const SHARDED_MAGIC: [u8; 4] = *b"PCLS";

/// Checkpoint format version (independent of the `.pcas` version).
/// v2: closed-case records carry the severity breadth set, so resumed
/// monitors keep folding post-alarm entries into the assessment.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Content key of a monitor envelope: monitors span processes, so the
/// per-process keys live on the nested case blobs instead.
const MONITOR_KEY: u64 = 0;

/// Why a checkpoint could not be restored into a live monitor. Codec
/// failures are the typed `.pcas` errors; the remaining variants are
/// mismatches between the checkpoint and the auditor it is being restored
/// into.
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// The bytes failed envelope or payload validation.
    Codec(SnapshotError),
    /// The checkpoint references a purpose this auditor does not register.
    UnknownPurpose { case: String, purpose: String },
    /// The registered process changed since the checkpoint was written.
    ProcessKeyMismatch {
        purpose: String,
        found: u64,
        expected: u64,
    },
    /// Rebuilding a session failed (τ-budget, configuration limit, …).
    Check(CheckError),
    /// A sharded checkpoint was written with a different shard count.
    ShardCountMismatch { found: usize, expected: usize },
    /// Shards of one sharded checkpoint disagree on the stream offset
    /// their state reflects (a partial or spliced checkpoint). Resuming
    /// at the max would skip entries owed to the lagging shards; resuming
    /// at the min would double-feed the shards already ahead.
    ShardOffsetMismatch { min: u64, max: u64 },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Codec(e) => write!(f, "checkpoint: {e}"),
            RestoreError::UnknownPurpose { case, purpose } => {
                write!(
                    f,
                    "checkpoint case {case}: purpose {purpose} not registered"
                )
            }
            RestoreError::ProcessKeyMismatch {
                purpose,
                found,
                expected,
            } => write!(
                f,
                "checkpoint keyed to a different {purpose} process \
                 (key {found:#018x}, registry has {expected:#018x})"
            ),
            RestoreError::Check(e) => write!(f, "checkpoint rehydration: {e}"),
            RestoreError::ShardCountMismatch { found, expected } => write!(
                f,
                "checkpoint written with {found} shard(s), monitor has {expected}"
            ),
            RestoreError::ShardOffsetMismatch { min, max } => write!(
                f,
                "sharded checkpoint shards disagree on the consumed stream \
                 offset (min {min}, max {max}); refusing to resume from an \
                 inconsistent checkpoint"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> RestoreError {
        RestoreError::Codec(e)
    }
}

impl From<CheckError> for RestoreError {
    fn from(e: CheckError) -> RestoreError {
        RestoreError::Check(e)
    }
}

/// One open case in portable form: the session state plus the monitor's
/// per-case bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseCheckpoint {
    pub case: Symbol,
    /// The purpose the case resolved to (restore re-resolves the process
    /// through the auditor's registry and validates `process_key`).
    pub purpose: Symbol,
    /// [`Encoded::snapshot_key`] of the process the session was built
    /// against.
    pub process_key: u64,
    pub state: SessionState,
    /// Retained severity-context window (bounded by
    /// `max_entries_per_case`).
    pub entries: Vec<LogEntry>,
    /// Entries shed from the front of the window.
    pub entries_dropped: u64,
    /// Trail-time of the last observed entry (idle-eviction clock).
    pub last_seen: Timestamp,
}

/// A whole monitor in portable form.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorCheckpoint {
    /// Byte offset the tailer had consumed up to (0 when unused).
    pub stream_offset: u64,
    /// Every open case — resident and spilled alike.
    pub cases: Vec<CaseCheckpoint>,
    /// Alarmed cases retired into compact records.
    pub closed: Vec<ClosedCase>,
    /// Case names in the order their alarms fired.
    pub alarm_order: Vec<Symbol>,
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

fn put_entry(out: &mut Vec<u8>, syms: &mut SymbolWriter, e: &LogEntry) {
    syms.put(out, e.user);
    syms.put(out, e.role);
    out.put_u8(match e.action {
        Action::Read => 0,
        Action::Write => 1,
        Action::Execute => 2,
        Action::Cancel => 3,
    });
    match &e.object {
        None => out.put_u8(0),
        Some(obj) => {
            out.put_u8(1);
            match obj.subject {
                None => out.put_u8(0),
                Some(s) => {
                    out.put_u8(1);
                    syms.put(out, s);
                }
            }
            out.put_count(obj.path.len());
            for &p in &obj.path {
                syms.put(out, p);
            }
        }
    }
    syms.put(out, e.task);
    syms.put(out, e.case);
    out.put_u64(e.time.0);
    out.put_u8(match e.status {
        TaskStatus::Success => 0,
        TaskStatus::Failure => 1,
    });
}

fn get_entry(r: &mut Reader<'_>, t: &SymbolTable) -> Result<LogEntry, SnapshotError> {
    let user = t.sym(r)?;
    let role = t.sym(r)?;
    let action = match r.u8()? {
        0 => Action::Read,
        1 => Action::Write,
        2 => Action::Execute,
        3 => Action::Cancel,
        _ => return Err(SnapshotError::Malformed("bad action tag")),
    };
    let object = match r.u8()? {
        0 => None,
        1 => {
            let subject = match r.u8()? {
                0 => None,
                1 => Some(t.sym(r)?),
                _ => return Err(SnapshotError::Malformed("bad subject flag")),
            };
            let n = r.count()?;
            let path = (0..n).map(|_| t.sym(r)).collect::<Result<_, _>>()?;
            Some(ObjectId { subject, path })
        }
        _ => return Err(SnapshotError::Malformed("bad object flag")),
    };
    let task = t.sym(r)?;
    let case = t.sym(r)?;
    let time = Timestamp(r.u64()?);
    let status = match r.u8()? {
        0 => TaskStatus::Success,
        1 => TaskStatus::Failure,
        _ => return Err(SnapshotError::Malformed("bad status tag")),
    };
    Ok(LogEntry {
        user,
        role,
        action,
        object,
        task,
        case,
        time,
        status,
    })
}

fn put_strings(out: &mut Vec<u8>, v: &[String]) {
    out.put_count(v.len());
    for s in v {
        out.put_str(s);
    }
}

fn get_strings(r: &mut Reader<'_>) -> Result<Vec<String>, SnapshotError> {
    let n = r.count()?;
    (0..n).map(|_| r.str().map(str::to_owned)).collect()
}

fn put_infringement(out: &mut Vec<u8>, syms: &mut SymbolWriter, inf: &Infringement) {
    out.put_u64(inf.entry_index as u64);
    put_entry(out, syms, &inf.entry);
    put_strings(out, &inf.expected);
    put_strings(out, &inf.active);
    match inf.kind {
        InfringementKind::ProcessDeviation => out.put_u8(0),
        InfringementKind::TemporalViolation {
            elapsed_minutes,
            limit_minutes,
        } => {
            out.put_u8(1);
            out.put_u64(elapsed_minutes);
            out.put_u64(limit_minutes);
        }
    }
}

fn get_infringement(r: &mut Reader<'_>, t: &SymbolTable) -> Result<Infringement, SnapshotError> {
    let entry_index = r.u64()? as usize;
    let entry = get_entry(r, t)?;
    let expected = get_strings(r)?;
    let active = get_strings(r)?;
    let kind = match r.u8()? {
        0 => InfringementKind::ProcessDeviation,
        1 => InfringementKind::TemporalViolation {
            elapsed_minutes: r.u64()?,
            limit_minutes: r.u64()?,
        },
        _ => return Err(SnapshotError::Malformed("bad infringement kind")),
    };
    Ok(Infringement {
        entry_index,
        entry,
        expected,
        active,
        kind,
    })
}

fn put_severity(out: &mut Vec<u8>, s: &SeverityAssessment) {
    out.put_u64(s.unaccounted_entries as u64);
    out.put_u64(s.max_sensitivity.to_bits());
    out.put_u64(s.subjects_touched as u64);
    out.put_u64(s.score.to_bits());
}

fn get_severity(r: &mut Reader<'_>) -> Result<SeverityAssessment, SnapshotError> {
    Ok(SeverityAssessment {
        unaccounted_entries: r.u64()? as usize,
        max_sensitivity: f64::from_bits(r.u64()?),
        subjects_touched: r.u64()? as usize,
        score: f64::from_bits(r.u64()?),
    })
}

// ---------------------------------------------------------------------------
// Case checkpoints
// ---------------------------------------------------------------------------

/// Serialize one open case. The envelope key is the process's snapshot
/// key, so a stale spill file fails closed at `decode` time rather than
/// resuming against a changed process.
pub fn encode_case(c: &CaseCheckpoint) -> Vec<u8> {
    let mut syms = SymbolWriter::default();
    let mut out = Vec::new();
    syms.put(&mut out, c.case);
    syms.put(&mut out, c.purpose);
    let meta = &c.state.meta;
    out.put_u64(meta.consumed as u64);
    out.put_u64(meta.explored as u64);
    out.put_u64(meta.peak as u64);
    match meta.first_time {
        None => out.put_u8(0),
        Some(t) => {
            out.put_u8(1);
            out.put_u64(t.0);
        }
    }
    match &meta.case_name {
        None => out.put_u8(0),
        Some(name) => {
            out.put_u8(1);
            out.put_str(name);
        }
    }
    out.put_count(c.entries.len());
    for e in &c.entries {
        put_entry(&mut out, &mut syms, e);
    }
    out.put_u64(c.entries_dropped);
    out.put_u64(c.last_seen.0);
    out.put_count(c.state.confs.len());
    for m in &c.state.confs {
        syms.put_state(&mut out, m);
    }
    codec::seal(
        CASE_MAGIC,
        CHECKPOINT_VERSION,
        c.process_key,
        &syms.payload(out),
    )
}

/// Decode one case checkpoint. States come back re-normalized under this
/// run's symbol order; `process_key` is the envelope key (validated
/// against the auditor's registry by the restore path, not here).
pub fn decode_case(bytes: &[u8]) -> Result<CaseCheckpoint, SnapshotError> {
    let (process_key, payload) = codec::open(bytes, CASE_MAGIC, CHECKPOINT_VERSION, None)?;
    let mut r = Reader::new(payload);
    let t = SymbolTable::read(&mut r)?;
    let case = t.sym(&mut r)?;
    let purpose = t.sym(&mut r)?;
    let consumed = r.u64()? as usize;
    let explored = r.u64()? as usize;
    let peak = r.u64()? as usize;
    let first_time = match r.u8()? {
        0 => None,
        1 => Some(Timestamp(r.u64()?)),
        _ => return Err(SnapshotError::Malformed("bad first-time flag")),
    };
    let case_name = match r.u8()? {
        0 => None,
        1 => Some(r.str()?.to_owned()),
        _ => return Err(SnapshotError::Malformed("bad option flag")),
    };
    let n = r.count()?;
    let entries = (0..n)
        .map(|_| get_entry(&mut r, &t))
        .collect::<Result<Vec<_>, _>>()?;
    let entries_dropped = r.u64()?;
    let last_seen = Timestamp(r.u64()?);
    let n = r.count()?;
    let confs = (0..n)
        .map(|_| t.state(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(CaseCheckpoint {
        case,
        purpose,
        process_key,
        state: SessionState {
            confs,
            meta: SessionMeta {
                peak,
                explored,
                consumed,
                first_time,
                case_name,
            },
        },
        entries,
        entries_dropped,
        last_seen,
    })
}

// ---------------------------------------------------------------------------
// Monitor checkpoints
// ---------------------------------------------------------------------------

/// Serialize a whole monitor. Each open case is a complete nested `PCLC`
/// blob — identical bytes to its spill file.
pub fn encode_monitor(m: &MonitorCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    // Head section: its symbol table is always empty (the nested blobs
    // carry their own), then the stream offset and the length-prefixed
    // case blobs.
    out.put_count(0);
    out.put_u64(m.stream_offset);
    out.put_count(m.cases.len());
    for c in &m.cases {
        out.put_bytes(&encode_case(c));
    }
    // Closed cases and alarm order go in a second symbol-table section so
    // the nested raw blobs do not interleave with interned symbols.
    let mut syms = SymbolWriter::default();
    let mut tail = Vec::new();
    tail.put_count(m.closed.len());
    for c in &m.closed {
        syms.put(&mut tail, c.case);
        tail.put_u64(c.after_alarm);
        put_infringement(&mut tail, &mut syms, &c.infringement);
        put_severity(&mut tail, &c.severity);
        // The breadth set: resumed monitors keep absorbing post-alarm
        // entries into the severity assessment.
        tail.put_count(c.subjects.len());
        for &s in &c.subjects {
            syms.put(&mut tail, s);
        }
    }
    tail.put_count(m.alarm_order.len());
    for &c in &m.alarm_order {
        syms.put(&mut tail, c);
    }
    out.extend_from_slice(&syms.payload(tail));
    codec::seal(MONITOR_MAGIC, CHECKPOINT_VERSION, MONITOR_KEY, &out)
}

/// Decode a whole-monitor checkpoint.
pub fn decode_monitor(bytes: &[u8]) -> Result<MonitorCheckpoint, SnapshotError> {
    let (_, payload) = codec::open(bytes, MONITOR_MAGIC, CHECKPOINT_VERSION, None)?;
    let mut r = Reader::new(payload);
    SymbolTable::read(&mut r)?; // the head section's table, written empty
    let stream_offset = r.u64()?;
    let ncases = r.count()?;
    let cases = (0..ncases)
        .map(|_| decode_case(r.bytes()?))
        .collect::<Result<Vec<_>, _>>()?;
    let t = SymbolTable::read(&mut r)?;
    let nclosed = r.count()?;
    let closed = (0..nclosed)
        .map(|_| {
            let case = t.sym(&mut r)?;
            let after_alarm = r.u64()?;
            let infringement = get_infringement(&mut r, &t)?;
            let severity = get_severity(&mut r)?;
            let nsubjects = r.count()?;
            let subjects = (0..nsubjects)
                .map(|_| t.sym(&mut r))
                .collect::<Result<_, _>>()?;
            Ok(ClosedCase {
                case,
                infringement,
                severity,
                subjects,
                after_alarm,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let nalarms = r.count()?;
    let alarm_order = (0..nalarms)
        .map(|_| t.sym(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(MonitorCheckpoint {
        stream_offset,
        cases,
        closed,
        alarm_order,
    })
}

// ---------------------------------------------------------------------------
// Sharded checkpoints
// ---------------------------------------------------------------------------

/// Serialize a sharded monitor: the shard count followed by one complete
/// nested `PCLM` blob per shard (`u64` length + bytes), in shard order.
pub fn encode_sharded(shards: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_count(shards.len());
    for blob in shards {
        out.put_u64(blob.len() as u64);
        out.extend_from_slice(blob);
    }
    codec::seal(SHARDED_MAGIC, CHECKPOINT_VERSION, MONITOR_KEY, &out)
}

/// Split a sharded checkpoint back into its per-shard monitor blobs.
pub fn decode_sharded(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let (_, payload) = codec::open(bytes, SHARDED_MAGIC, CHECKPOINT_VERSION, None)?;
    let mut r = Reader::new(payload);
    let n = r.count()?;
    let shards = (0..n)
        .map(|_| {
            let len = r.u64()?;
            let len = r.bounded(len)?;
            Ok(r.take(len)?.to_vec())
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    r.finish()?;
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmn::encode::encode;
    use bpmn::models::fig8_exclusive;
    use cows::sym;
    use policy::statement::Action;

    fn entry(task: &str, case: &str, minute: u64) -> LogEntry {
        LogEntry::success(
            "Bob",
            "Cardiologist",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            task,
            case,
            Timestamp(minute),
        )
    }

    fn sample_case() -> CaseCheckpoint {
        CaseCheckpoint {
            case: sym("HT-7"),
            purpose: sym("treatment"),
            process_key: 0xfeed_beef,
            state: SessionState {
                confs: vec![encode(&fig8_exclusive()).initial()],
                meta: SessionMeta {
                    peak: 3,
                    explored: 17,
                    consumed: 5,
                    first_time: Some(Timestamp(201007060900)),
                    case_name: Some("HT-7".to_string()),
                },
            },
            entries: vec![entry("T06", "HT-7", 201007060900)],
            entries_dropped: 2,
            last_seen: Timestamp(201007060905),
        }
    }

    #[test]
    fn case_checkpoint_round_trips_byte_identically() {
        let c = sample_case();
        let bytes = encode_case(&c);
        let back = decode_case(&bytes).unwrap();
        assert_eq!(back, c);
        // Re-encoding the decoded checkpoint reproduces the exact bytes —
        // the property eviction/rehydration relies on.
        assert_eq!(encode_case(&back), bytes);
    }

    #[test]
    fn monitor_checkpoint_round_trips() {
        let inf = Infringement {
            entry_index: 0,
            entry: entry("T06", "HT-99", 201007060900),
            expected: vec!["Nurse.T01".to_string(), "sys.Err".to_string()],
            active: vec![],
            kind: InfringementKind::ProcessDeviation,
        };
        let m = MonitorCheckpoint {
            stream_offset: 12_345,
            cases: vec![sample_case()],
            closed: vec![ClosedCase {
                case: sym("HT-99"),
                infringement: inf,
                severity: SeverityAssessment {
                    unaccounted_entries: 2,
                    max_sensitivity: 1.5,
                    subjects_touched: 1,
                    score: 3.25,
                },
                subjects: [sym("Jane")].into_iter().collect(),
                after_alarm: 4,
            }],
            alarm_order: vec![sym("HT-99")],
        };
        let bytes = encode_monitor(&m);
        let back = decode_monitor(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(encode_monitor(&back), bytes);
    }

    #[test]
    fn corruption_is_fail_open() {
        let bytes = encode_case(&sample_case());
        // Magic.
        assert_eq!(decode_case(b"XXXX").unwrap_err(), SnapshotError::BadMagic);
        // Every truncation point fails with a typed error, never a panic.
        for len in 0..bytes.len() {
            assert!(decode_case(&bytes[..len]).is_err());
        }
        // A flipped payload byte trips the checksum.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            decode_case(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        // Version bump is rejected.
        let mut vbad = bytes.clone();
        vbad[4] = 99;
        assert_eq!(
            decode_case(&vbad).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: 99,
                expected: CHECKPOINT_VERSION
            }
        );
    }

    #[test]
    fn sharded_checkpoint_round_trips() {
        let m = MonitorCheckpoint {
            stream_offset: 9,
            cases: vec![sample_case()],
            closed: vec![],
            alarm_order: vec![],
        };
        let shards = vec![encode_monitor(&m), encode_monitor(&m)];
        let bytes = encode_sharded(&shards);
        let back = decode_sharded(&bytes).unwrap();
        assert_eq!(back, shards);
        for blob in &back {
            assert_eq!(decode_monitor(blob).unwrap(), m);
        }
        for len in 0..bytes.len() {
            assert!(decode_sharded(&bytes[..len]).is_err());
        }
    }

    /// A forged sharded checkpoint, resealed so it passes the envelope,
    /// whose first shard claims `u64::MAX` bytes or whose shard count runs
    /// far past the payload is a typed error. The old decoder overflowed
    /// `pos + len` and sized its shard list from the unchecked count.
    #[test]
    fn forged_shard_length_and_count_are_typed() {
        let mut payload = Vec::new();
        payload.put_u32(1);
        payload.put_u64(u64::MAX);
        payload.extend_from_slice(&MONITOR_MAGIC);
        let forged = codec::seal(SHARDED_MAGIC, CHECKPOINT_VERSION, MONITOR_KEY, &payload);
        assert_eq!(
            decode_sharded(&forged).unwrap_err(),
            SnapshotError::Truncated
        );
        let forged = codec::seal(
            SHARDED_MAGIC,
            CHECKPOINT_VERSION,
            MONITOR_KEY,
            &u32::MAX.to_le_bytes(),
        );
        assert_eq!(
            decode_sharded(&forged).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn monitor_rejects_trailing_garbage() {
        let m = MonitorCheckpoint {
            stream_offset: 0,
            cases: vec![],
            closed: vec![],
            alarm_order: vec![],
        };
        let mut bytes = encode_monitor(&m);
        assert_eq!(decode_monitor(&bytes).unwrap(), m);
        bytes.push(0);
        assert!(decode_monitor(&bytes).is_err());
    }
}
