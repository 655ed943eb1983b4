//! Live-session checkpoints.
//!
//! The streaming monitor ([`crate::live::LiveAuditor`]) must survive two
//! things a batch auditor never faces: memory pressure (more open cases
//! than it may keep resident) and restarts (a tailer killed mid-stream).
//! Both reduce to the same primitive — serialize an *open* session so it
//! can be rebuilt later, byte-identically.
//!
//! The format deliberately reuses the `.pcas` machinery from
//! [`cows::automaton::snapshot`]: the same versioned+checksummed envelope
//! (magic, format version, content key, payload length, FNV-1a 64
//! checksum), the same local symbol table, and the same fail-open typed
//! errors. A case checkpoint is keyed by its process's
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
use cows::symbol::Symbol;
use cows::{SnapshotError, StableHasher, StateDecoder, StateEncoder};
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

/// Envelope size: magic + version + key + payload length + checksum.
pub const HEADER_LEN: usize = 32;

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
// Envelope
// ---------------------------------------------------------------------------

/// Seal a payload in the `.pcas`-shaped envelope.
pub(crate) fn seal(magic: [u8; 4], key: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut checksum = StableHasher::new();
    checksum.write(&payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum.finish().to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validate an envelope and return `(key, payload)`. Strictly fail-open,
/// mirroring `decode_snapshot`.
pub(crate) fn open(bytes: &[u8], magic: [u8; 4]) -> Result<(u64, &[u8]), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && bytes[..4] != magic {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let stored_checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() < payload_len {
        return Err(SnapshotError::Truncated);
    }
    if payload.len() > payload_len {
        return Err(SnapshotError::Malformed("trailing bytes after payload"));
    }
    let mut checksum = StableHasher::new();
    checksum.write(payload);
    let computed = checksum.finish();
    if computed != stored_checksum {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_checksum,
            computed,
        });
    }
    Ok((key, payload))
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

fn put_entry(enc: &mut StateEncoder, e: &LogEntry) {
    enc.put_sym(e.user);
    enc.put_sym(e.role);
    enc.put_u8(match e.action {
        Action::Read => 0,
        Action::Write => 1,
        Action::Execute => 2,
        Action::Cancel => 3,
    });
    match &e.object {
        None => enc.put_u8(0),
        Some(obj) => {
            enc.put_u8(1);
            match obj.subject {
                None => enc.put_u8(0),
                Some(s) => {
                    enc.put_u8(1);
                    enc.put_sym(s);
                }
            }
            enc.put_len(obj.path.len());
            for &p in &obj.path {
                enc.put_sym(p);
            }
        }
    }
    enc.put_sym(e.task);
    enc.put_sym(e.case);
    enc.put_u64(e.time.0);
    enc.put_u8(match e.status {
        TaskStatus::Success => 0,
        TaskStatus::Failure => 1,
    });
}

fn get_entry(dec: &mut StateDecoder<'_>) -> Result<LogEntry, SnapshotError> {
    let user = dec.get_sym()?;
    let role = dec.get_sym()?;
    let action = match dec.get_u8()? {
        0 => Action::Read,
        1 => Action::Write,
        2 => Action::Execute,
        3 => Action::Cancel,
        _ => return Err(SnapshotError::Malformed("bad action tag")),
    };
    let object = match dec.get_u8()? {
        0 => None,
        1 => {
            let subject = match dec.get_u8()? {
                0 => None,
                1 => Some(dec.get_sym()?),
                _ => return Err(SnapshotError::Malformed("bad subject flag")),
            };
            let n = dec.get_len()?;
            let path = (0..n).map(|_| dec.get_sym()).collect::<Result<_, _>>()?;
            Some(ObjectId { subject, path })
        }
        _ => return Err(SnapshotError::Malformed("bad object flag")),
    };
    let task = dec.get_sym()?;
    let case = dec.get_sym()?;
    let time = Timestamp(dec.get_u64()?);
    let status = match dec.get_u8()? {
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

fn put_strings(enc: &mut StateEncoder, v: &[String]) {
    enc.put_len(v.len());
    for s in v {
        enc.put_str(s);
    }
}

fn get_strings(dec: &mut StateDecoder<'_>) -> Result<Vec<String>, SnapshotError> {
    let n = dec.get_len()?;
    (0..n).map(|_| dec.get_str()).collect()
}

fn put_infringement(enc: &mut StateEncoder, inf: &Infringement) {
    enc.put_u64(inf.entry_index as u64);
    put_entry(enc, &inf.entry);
    put_strings(enc, &inf.expected);
    put_strings(enc, &inf.active);
    match inf.kind {
        InfringementKind::ProcessDeviation => enc.put_u8(0),
        InfringementKind::TemporalViolation {
            elapsed_minutes,
            limit_minutes,
        } => {
            enc.put_u8(1);
            enc.put_u64(elapsed_minutes);
            enc.put_u64(limit_minutes);
        }
    }
}

fn get_infringement(dec: &mut StateDecoder<'_>) -> Result<Infringement, SnapshotError> {
    let entry_index = dec.get_u64()? as usize;
    let entry = get_entry(dec)?;
    let expected = get_strings(dec)?;
    let active = get_strings(dec)?;
    let kind = match dec.get_u8()? {
        0 => InfringementKind::ProcessDeviation,
        1 => InfringementKind::TemporalViolation {
            elapsed_minutes: dec.get_u64()?,
            limit_minutes: dec.get_u64()?,
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

fn put_severity(enc: &mut StateEncoder, s: &SeverityAssessment) {
    enc.put_u64(s.unaccounted_entries as u64);
    enc.put_u64(s.max_sensitivity.to_bits());
    enc.put_u64(s.subjects_touched as u64);
    enc.put_u64(s.score.to_bits());
}

fn get_severity(dec: &mut StateDecoder<'_>) -> Result<SeverityAssessment, SnapshotError> {
    Ok(SeverityAssessment {
        unaccounted_entries: dec.get_u64()? as usize,
        max_sensitivity: f64::from_bits(dec.get_u64()?),
        subjects_touched: dec.get_u64()? as usize,
        score: f64::from_bits(dec.get_u64()?),
    })
}

fn put_opt_str(enc: &mut StateEncoder, s: Option<&str>) {
    match s {
        None => enc.put_u8(0),
        Some(s) => {
            enc.put_u8(1);
            enc.put_str(s);
        }
    }
}

fn get_opt_str(dec: &mut StateDecoder<'_>) -> Result<Option<String>, SnapshotError> {
    match dec.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec.get_str()?)),
        _ => Err(SnapshotError::Malformed("bad option flag")),
    }
}

// ---------------------------------------------------------------------------
// Case checkpoints
// ---------------------------------------------------------------------------

/// Serialize one open case. The envelope key is the process's snapshot
/// key, so a stale spill file fails closed at `decode` time rather than
/// resuming against a changed process.
pub fn encode_case(c: &CaseCheckpoint) -> Vec<u8> {
    let mut enc = StateEncoder::new();
    enc.put_sym(c.case);
    enc.put_sym(c.purpose);
    let meta = &c.state.meta;
    enc.put_u64(meta.consumed as u64);
    enc.put_u64(meta.explored as u64);
    enc.put_u64(meta.peak as u64);
    match meta.first_time {
        None => enc.put_u8(0),
        Some(t) => {
            enc.put_u8(1);
            enc.put_u64(t.0);
        }
    }
    put_opt_str(&mut enc, meta.case_name.as_deref());
    enc.put_len(c.entries.len());
    for e in &c.entries {
        put_entry(&mut enc, e);
    }
    enc.put_u64(c.entries_dropped);
    enc.put_u64(c.last_seen.0);
    enc.put_len(c.state.confs.len());
    for m in &c.state.confs {
        enc.put_state(m);
    }
    seal(CASE_MAGIC, c.process_key, enc.into_payload())
}

/// Decode one case checkpoint. States come back re-normalized under this
/// run's symbol order; `process_key` is the envelope key (validated
/// against the auditor's registry by the restore path, not here).
pub fn decode_case(bytes: &[u8]) -> Result<CaseCheckpoint, SnapshotError> {
    let (process_key, payload) = open(bytes, CASE_MAGIC)?;
    let mut dec = StateDecoder::new(payload)?;
    let case = dec.get_sym()?;
    let purpose = dec.get_sym()?;
    let consumed = dec.get_u64()? as usize;
    let explored = dec.get_u64()? as usize;
    let peak = dec.get_u64()? as usize;
    let first_time = match dec.get_u8()? {
        0 => None,
        1 => Some(Timestamp(dec.get_u64()?)),
        _ => return Err(SnapshotError::Malformed("bad first-time flag")),
    };
    let case_name = get_opt_str(&mut dec)?;
    let n = dec.get_len()?;
    let entries = (0..n)
        .map(|_| get_entry(&mut dec))
        .collect::<Result<Vec<_>, _>>()?;
    let entries_dropped = dec.get_u64()?;
    let last_seen = Timestamp(dec.get_u64()?);
    let n = dec.get_len()?;
    let confs = (0..n)
        .map(|_| dec.get_state())
        .collect::<Result<Vec<_>, _>>()?;
    dec.finish()?;
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
    let mut enc = StateEncoder::new();
    enc.put_u64(m.stream_offset);
    enc.put_len(m.cases.len());
    let mut nested: Vec<Vec<u8>> = Vec::with_capacity(m.cases.len());
    for c in &m.cases {
        nested.push(encode_case(c));
    }
    let mut payload = enc.into_payload();
    for blob in &nested {
        payload.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        payload.extend_from_slice(blob);
    }
    // Closed cases and alarm order go in a second symbol-table section so
    // the nested raw blobs do not interleave with interned symbols.
    let mut tail = StateEncoder::new();
    tail.put_len(m.closed.len());
    for c in &m.closed {
        tail.put_sym(c.case);
        tail.put_u64(c.after_alarm);
        put_infringement(&mut tail, &c.infringement);
        put_severity(&mut tail, &c.severity);
        // The breadth set: resumed monitors keep absorbing post-alarm
        // entries into the severity assessment.
        tail.put_len(c.subjects.len());
        for &s in &c.subjects {
            tail.put_sym(s);
        }
    }
    tail.put_len(m.alarm_order.len());
    for &c in &m.alarm_order {
        tail.put_sym(c);
    }
    payload.extend_from_slice(&tail.into_payload());
    seal(MONITOR_MAGIC, MONITOR_KEY, payload)
}

/// Decode a whole-monitor checkpoint.
pub fn decode_monitor(bytes: &[u8]) -> Result<MonitorCheckpoint, SnapshotError> {
    let (_, payload) = open(bytes, MONITOR_MAGIC)?;
    // Head section: stream offset + case count.
    let mut dec = StateDecoder::new(payload)?;
    let stream_offset = dec.get_u64()?;
    let ncases = dec.get_len()?;
    let mut pos = dec.consumed_bytes();
    let mut cases = Vec::with_capacity(ncases);
    for _ in 0..ncases {
        if pos + 4 > payload.len() {
            return Err(SnapshotError::Truncated);
        }
        let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > payload.len() {
            return Err(SnapshotError::Truncated);
        }
        cases.push(decode_case(&payload[pos..pos + len])?);
        pos += len;
    }
    // Tail section: closed cases + alarm order.
    let mut tail = StateDecoder::new(&payload[pos..])?;
    let nclosed = tail.get_len()?;
    let mut closed = Vec::with_capacity(nclosed);
    for _ in 0..nclosed {
        let case = tail.get_sym()?;
        let after_alarm = tail.get_u64()?;
        let infringement = get_infringement(&mut tail)?;
        let severity = get_severity(&mut tail)?;
        let nsubjects = tail.get_len()?;
        let subjects = (0..nsubjects)
            .map(|_| tail.get_sym())
            .collect::<Result<std::collections::BTreeSet<_>, _>>()?;
        closed.push(ClosedCase {
            case,
            infringement,
            severity,
            subjects,
            after_alarm,
        });
    }
    let nalarms = tail.get_len()?;
    let alarm_order = (0..nalarms)
        .map(|_| tail.get_sym())
        .collect::<Result<Vec<_>, _>>()?;
    tail.finish()?;
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
/// nested `PCLM` blob per shard, in shard order.
pub fn encode_sharded(shards: &[Vec<u8>]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    for blob in shards {
        payload.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        payload.extend_from_slice(blob);
    }
    seal(SHARDED_MAGIC, MONITOR_KEY, payload)
}

/// Split a sharded checkpoint back into its per-shard monitor blobs.
pub fn decode_sharded(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let (_, payload) = open(bytes, SHARDED_MAGIC)?;
    if payload.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let mut pos = 4;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        if pos + 8 > payload.len() {
            return Err(SnapshotError::Truncated);
        }
        let len = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("8 bytes")) as usize;
        pos += 8;
        if pos + len > payload.len() {
            return Err(SnapshotError::Truncated);
        }
        shards.push(payload[pos..pos + len].to_vec());
        pos += len;
    }
    if pos != payload.len() {
        return Err(SnapshotError::Malformed("trailing bytes after shards"));
    }
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
