//! The churn envelope — `PCLE`, the eviction format built for speed.
//!
//! P12 measured the live monitor at ~8× batch speed, and the counters put
//! the whole gap on spill churn: every eviction serialized the session's
//! COWS terms through the durable `PCLC` checkpoint envelope (local symbol
//! table, recursive term encoding, FNV checksum, one file per case), and
//! every rehydration undid all of it. But an evicted case that rehydrates
//! *in the same run* needs none of that ceremony:
//!
//! * Configurations are already interned in the process's shared
//!   [`ProcessAutomaton`](cows::automaton::ProcessAutomaton) — a `u32`
//!   [`StateId`] per configuration is a complete, loss-free reference.
//! * Symbols are already interned in the run-global interner — a `u32`
//!   index per identifier replaces string tables entirely.
//! * The blob never leaves the process (the in-memory tier) or outlives it
//!   (the spill log is truncated on start, deleted on drop), so there is
//!   no version negotiation and no checksum: corruption of our own heap
//!   is not a threat model eviction needs to pay for on every entry.
//!
//! The result is a varint-packed record a few hundred bytes long that
//! encodes and decodes in microseconds — the P13 micro-bench puts it an
//! order of magnitude under `PCLC` on both sides.
//!
//! **`PCLE` is strictly run-local.** Anything that crosses a process
//! boundary — whole-monitor checkpoints, restore — still uses the
//! versioned, checksummed `PCLC`/`PCLM`/`PCLS` envelopes from
//! [`crate::checkpoint`]. The spill store accepts both; the magic bytes
//! dispatch.

use crate::session::SessionMeta;
use audit::entry::{LogEntry, TaskStatus};
use audit::time::Timestamp;
use codec::{Reader, Writer};
use cows::automaton::StateId;
use cows::symbol::Symbol;
use cows::SnapshotError;
use policy::object::ObjectId;
use policy::statement::Action;

/// Magic for a churn (same-run eviction) record.
pub const CHURN_MAGIC: [u8; 4] = *b"PCLE";

/// An evicted case in churn form: automaton state ids instead of terms,
/// interner indices instead of strings.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnCheckpoint {
    pub case: Symbol,
    pub purpose: Symbol,
    /// [`bpmn::encode::Encoded::snapshot_key`] of the process — revalidated
    /// at rehydration exactly like the durable envelope.
    pub process_key: u64,
    /// The live configuration set as shared-automaton state ids, in set
    /// order.
    pub ids: Vec<StateId>,
    /// Session counters (Algorithm 1 bookkeeping), carried verbatim.
    pub meta: SessionMeta,
    /// Retained severity-context window, kept in wire form — see
    /// [`EntryBlock`] for why rehydration never materializes it.
    pub entries: EntryBlock,
    pub entries_dropped: u64,
    pub last_seen: Timestamp,
}

fn put_sym(out: &mut Vec<u8>, s: Symbol) {
    out.put_varint(u64::from(s.index()));
}

/// Decode one symbol index, validated against a caller-held
/// [`Symbol::interned_len`] snapshot — one interner-lock acquisition per
/// blob instead of one per symbol, which is what keeps rehydration off
/// the interner lock under churn.
fn get_sym(r: &mut Reader<'_>, known: u32) -> Result<Symbol, SnapshotError> {
    let idx = r.varint()?;
    u32::try_from(idx)
        .ok()
        .and_then(|i| Symbol::from_index_below(i, known))
        .ok_or(SnapshotError::Malformed("symbol index unknown to this run"))
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

/// Entry flags packed into one byte: bits 0–1 action, bit 2 status, bit 3
/// object present, bit 4 object subject present.
fn entry_flags(e: &LogEntry) -> u8 {
    let action = match e.action {
        Action::Read => 0u8,
        Action::Write => 1,
        Action::Execute => 2,
        Action::Cancel => 3,
    };
    let status = u8::from(e.status == TaskStatus::Failure) << 2;
    let (has_obj, has_subj) = match &e.object {
        None => (0u8, 0u8),
        Some(o) => (1, u8::from(o.subject.is_some())),
    };
    action | status | (has_obj << 3) | (has_subj << 4)
}

/// Encode one window entry. The case symbol is *not* stored — every entry
/// of a spilled case shares the envelope's case, so it is re-attached at
/// decode time.
fn put_entry(out: &mut Vec<u8>, e: &LogEntry) {
    out.put_u8(entry_flags(e));
    put_sym(out, e.user);
    put_sym(out, e.role);
    put_sym(out, e.task);
    out.put_varint(e.time.0);
    if let Some(obj) = &e.object {
        if let Some(s) = obj.subject {
            put_sym(out, s);
        }
        out.put_varint(obj.path.len() as u64);
        for &p in &obj.path {
            put_sym(out, p);
        }
    }
}

fn entry_flags_from(r: &mut Reader<'_>) -> Result<u8, SnapshotError> {
    let flags = r.u8()?;
    if flags & !0x1f != 0 {
        return Err(SnapshotError::Malformed("bad entry flags"));
    }
    Ok(flags)
}

fn get_entry(r: &mut Reader<'_>, case: Symbol, known: u32) -> Result<LogEntry, SnapshotError> {
    let flags = entry_flags_from(r)?;
    let action = match flags & 0x3 {
        0 => Action::Read,
        1 => Action::Write,
        2 => Action::Execute,
        _ => Action::Cancel,
    };
    let status = if flags & 0x4 != 0 {
        TaskStatus::Failure
    } else {
        TaskStatus::Success
    };
    let user = get_sym(r, known)?;
    let role = get_sym(r, known)?;
    let task = get_sym(r, known)?;
    let time = Timestamp(r.varint()?);
    let object = if flags & 0x8 != 0 {
        let subject = if flags & 0x10 != 0 {
            Some(get_sym(r, known)?)
        } else {
            None
        };
        let n = r.varint_count()?;
        let path = (0..n)
            .map(|_| get_sym(r, known))
            .collect::<Result<_, _>>()?;
        Some(ObjectId { subject, path })
    } else {
        None
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

/// Advance past one encoded entry without building a [`LogEntry`] — the
/// front-trim path of [`EntryBlock`], which must not pay decode allocations
/// just to drop the window's oldest element.
fn skip_entry(r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    let flags = entry_flags_from(r)?;
    // user, role, task, time
    for _ in 0..4 {
        r.varint()?;
    }
    if flags & 0x8 != 0 {
        if flags & 0x10 != 0 {
            r.varint()?;
        }
        let n = r.varint_count()?;
        for _ in 0..n {
            r.varint()?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry window in wire form
// ---------------------------------------------------------------------------

/// The retained severity-context window, stored as already-encoded entry
/// records rather than a `Vec<LogEntry>`.
///
/// Under churn a case bounces through the spill store many times, and each
/// bounce used to decode the whole window on rehydration and re-encode it
/// on the next eviction — O(window) per cycle for data nothing reads while
/// the case is merely resident. Keeping the window in wire form makes the
/// cycle O(new entries): eviction splices the block's bytes into the
/// envelope verbatim, rehydration slices them back out, and appending a
/// freshly observed entry encodes just that entry (which is also cheaper
/// than the `LogEntry` clone it replaces). The window is only materialized
/// where entries are actually consumed — severity assessment at alarm time
/// and the durable `PCLC` conversion at whole-monitor checkpoints.
#[derive(Clone, Debug, Default)]
pub struct EntryBlock {
    /// Number of encoded entries between `start` and the end of `bytes`.
    count: usize,
    /// Byte offset of the oldest live entry; front trims advance it and a
    /// compaction reclaims the dead prefix once it dominates the buffer.
    start: usize,
    bytes: Vec<u8>,
}

impl PartialEq for EntryBlock {
    fn eq(&self, other: &EntryBlock) -> bool {
        // Equality is over the live window, not the dead prefix a trim may
        // have left behind.
        self.count == other.count && self.live() == other.live()
    }
}

impl EntryBlock {
    /// Encode `entries` into a fresh block (the durable-restore path).
    pub fn from_entries<'a, I>(entries: I) -> EntryBlock
    where
        I: IntoIterator<Item = &'a LogEntry>,
    {
        let mut block = EntryBlock::default();
        for e in entries {
            block.push(e);
        }
        block
    }

    /// Rebuild a block from its wire representation.
    fn from_wire(count: usize, bytes: Vec<u8>) -> EntryBlock {
        EntryBlock {
            count,
            start: 0,
            bytes,
        }
    }

    /// The encoded live window.
    fn live(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append one entry (encoding it in place).
    pub fn push(&mut self, e: &LogEntry) {
        put_entry(&mut self.bytes, e);
        self.count += 1;
    }

    /// Drop the oldest entry — a parse-and-skip, never a decode. A block
    /// whose buffer turns out unparseable (which would mean this process
    /// corrupted its own heap — the same non-threat the missing checksum
    /// is about) degrades to an empty window rather than panicking.
    pub fn pop_front(&mut self) {
        if self.count == 0 {
            return;
        }
        let mut r = Reader::new(self.live());
        match skip_entry(&mut r) {
            Ok(()) => {
                self.start += r.position();
                self.count -= 1;
                if self.start * 2 > self.bytes.len() {
                    self.bytes.drain(..self.start);
                    self.start = 0;
                }
            }
            Err(_) => {
                debug_assert!(false, "entry window buffer corrupted");
                self.bytes.clear();
                self.start = 0;
                self.count = 0;
            }
        }
    }

    /// Materialize the window (alarm severity, durable checkpoints). Every
    /// entry is re-attached to `case`, exactly like envelope decode.
    pub fn decode(&self, case: Symbol) -> Result<Vec<LogEntry>, SnapshotError> {
        let known = Symbol::interned_len();
        let mut r = Reader::new(self.live());
        let entries = (0..self.count)
            .map(|_| get_entry(&mut r, case, known))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(entries)
    }
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Case-name flag values: absent, equal to the case symbol (the common
/// case — one byte instead of re-encoding the string), or inline.
const NAME_NONE: u8 = 0;
const NAME_IS_CASE: u8 = 1;
const NAME_INLINE: u8 = 2;

/// Serialize a churn checkpoint. No checksum, no symbol table, no version
/// field — see the module docs for why that is sound for a record that
/// never leaves this run.
pub fn encode_churn(c: &ChurnCheckpoint) -> Vec<u8> {
    // Envelope + counters ≈ 40 B, plus the window verbatim, each id ≈ 2 B.
    let mut out = Vec::with_capacity(48 + c.entries.live().len() + 4 * c.ids.len());
    out.extend_from_slice(&CHURN_MAGIC);
    put_sym(&mut out, c.case);
    put_sym(&mut out, c.purpose);
    out.put_u64(c.process_key);
    out.put_varint(c.meta.consumed as u64);
    out.put_varint(c.meta.explored as u64);
    out.put_varint(c.meta.peak as u64);
    match c.meta.first_time {
        None => out.put_u8(0),
        Some(t) => {
            out.put_u8(1);
            out.put_varint(t.0);
        }
    }
    match &c.meta.case_name {
        None => out.put_u8(NAME_NONE),
        Some(name) if name == c.case.as_str() => out.put_u8(NAME_IS_CASE),
        Some(name) => {
            out.put_u8(NAME_INLINE);
            out.put_varint(name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }
    out.put_varint(c.entries_dropped);
    out.put_varint(c.last_seen.0);
    // The window travels verbatim: entry count, byte length, raw records.
    let window = c.entries.live();
    out.put_varint(c.entries.len() as u64);
    out.put_varint(window.len() as u64);
    out.extend_from_slice(window);
    out.put_varint(c.ids.len() as u64);
    for &id in &c.ids {
        out.put_varint(u64::from(id));
    }
    out
}

/// Decode a churn checkpoint. Fail-open with the same typed errors as the
/// durable envelopes (a defensive property, not a compatibility one — a
/// malformed blob here would mean monitor-internal corruption).
pub fn decode_churn(bytes: &[u8]) -> Result<ChurnCheckpoint, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != CHURN_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let known = Symbol::interned_len();
    let case = get_sym(&mut r, known)?;
    let purpose = get_sym(&mut r, known)?;
    let process_key = r.u64()?;
    let consumed = r.varint()? as usize;
    let explored = r.varint()? as usize;
    let peak = r.varint()? as usize;
    let first_time = match r.u8()? {
        0 => None,
        1 => Some(Timestamp(r.varint()?)),
        _ => return Err(SnapshotError::Malformed("bad first-time flag")),
    };
    let case_name = match r.u8()? {
        NAME_NONE => None,
        NAME_IS_CASE => Some(case.to_string()),
        NAME_INLINE => {
            let len = r.varint_count()?;
            let raw = r.take(len)?;
            Some(
                std::str::from_utf8(raw)
                    .map_err(|_| SnapshotError::Malformed("case name is not utf-8"))?
                    .to_string(),
            )
        }
        _ => return Err(SnapshotError::Malformed("bad case-name flag")),
    };
    let entries_dropped = r.varint()?;
    let last_seen = Timestamp(r.varint()?);
    let nentries = r.varint()?;
    let nbytes = r.varint_count()?;
    // Flags + three symbols + timestamp make 5 bytes the smallest entry.
    if nentries.saturating_mul(5) > nbytes as u64 {
        return Err(SnapshotError::Malformed("entry count longer than window"));
    }
    // The window stays in wire form — rehydration pays O(ids + meta), and
    // the entries decode only at an alarm or a durable checkpoint.
    let entries = EntryBlock::from_wire(nentries as usize, r.take(nbytes)?.to_vec());
    let nids = r.varint_count()?;
    let mut ids = Vec::with_capacity(nids);
    for _ in 0..nids {
        let id = r.varint()?;
        ids.push(
            u32::try_from(id).map_err(|_| SnapshotError::Malformed("state id overflows u32"))?,
        );
    }
    r.finish()?;
    Ok(ChurnCheckpoint {
        case,
        purpose,
        process_key,
        ids,
        meta: SessionMeta {
            peak,
            explored,
            consumed,
            first_time,
            case_name,
        },
        entries,
        entries_dropped,
        last_seen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cows::sym;

    fn sample() -> ChurnCheckpoint {
        let entry = LogEntry::success(
            "Bob",
            "Cardiologist",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            "T06",
            "HT-7",
            Timestamp(201007060900),
        );
        let failed = LogEntry {
            status: TaskStatus::Failure,
            object: None,
            time: Timestamp(201007060905),
            ..entry.clone()
        };
        ChurnCheckpoint {
            case: sym("HT-7"),
            purpose: sym("treatment"),
            process_key: 0xdead_beef_0123,
            ids: vec![0, 7, 131_072],
            meta: SessionMeta {
                peak: 3,
                explored: 41,
                consumed: 5,
                first_time: Some(Timestamp(201007060900)),
                case_name: Some("HT-7".to_string()),
            },
            entries: EntryBlock::from_entries(&[entry, failed]),
            entries_dropped: 2,
            last_seen: Timestamp(201007060905),
        }
    }

    #[test]
    fn entry_block_round_trips_and_trims_from_the_front() {
        let c = sample();
        let entries = c.entries.decode(c.case).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].user, sym("Bob"));
        assert_eq!(entries[1].status, TaskStatus::Failure);
        // Every decoded entry carries the envelope case, not whatever the
        // original entry said.
        assert!(entries.iter().all(|e| e.case == c.case));

        let mut block = c.entries.clone();
        block.pop_front();
        assert_eq!(block.len(), 1);
        assert_eq!(block.decode(c.case).unwrap(), entries[1..]);
        block.pop_front();
        assert!(block.is_empty());
        assert_eq!(block.decode(c.case).unwrap(), Vec::<LogEntry>::new());
        // Popping an empty window is a no-op, not an underflow.
        block.pop_front();
        assert!(block.is_empty());
    }

    #[test]
    fn entry_block_rejects_symbols_the_run_never_interned() {
        let block = EntryBlock::from_wire(1, {
            let mut raw = vec![0u8]; // flags: read/success/no object
            raw.put_varint(u64::from(u32::MAX)); // user index: never issued
            raw.put_varint(0);
            raw.put_varint(0);
            raw.put_varint(0);
            raw
        });
        assert_eq!(
            block.decode(sym("HT-7")).unwrap_err(),
            SnapshotError::Malformed("symbol index unknown to this run")
        );
    }

    #[test]
    fn churn_round_trips_byte_identically() {
        let c = sample();
        let bytes = encode_churn(&c);
        let back = decode_churn(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(encode_churn(&back), bytes);
    }

    #[test]
    fn churn_is_far_smaller_than_the_durable_envelope() {
        let c = sample();
        let durable = crate::checkpoint::encode_case(&crate::checkpoint::CaseCheckpoint {
            case: c.case,
            purpose: c.purpose,
            process_key: c.process_key,
            state: crate::session::SessionState {
                confs: vec![bpmn::encode::encode(&bpmn::models::fig8_exclusive()).initial()],
                meta: c.meta.clone(),
            },
            entries: c.entries.decode(c.case).unwrap(),
            entries_dropped: c.entries_dropped,
            last_seen: c.last_seen,
        });
        let churn = encode_churn(&c);
        assert!(
            churn.len() * 3 < durable.len(),
            "churn {} B vs durable {} B",
            churn.len(),
            durable.len()
        );
    }

    #[test]
    fn corruption_is_fail_open() {
        let bytes = encode_churn(&sample());
        assert_eq!(decode_churn(b"XXXX").unwrap_err(), SnapshotError::BadMagic);
        for len in 0..bytes.len() {
            assert!(decode_churn(&bytes[..len]).is_err(), "truncation at {len}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_churn(&trailing).is_err());
        // A symbol index the interner never issued is rejected, not
        // conjured: varint-encode u32::MAX into the case position.
        let mut bad = CHURN_MAGIC.to_vec();
        bad.put_varint(u64::from(u32::MAX));
        assert_eq!(
            decode_churn(&bad).unwrap_err(),
            SnapshotError::Malformed("symbol index unknown to this run")
        );
    }

    #[test]
    fn varint_round_trips_at_the_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            out.put_varint(v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        // An 11-byte varint overflows u64 and is rejected.
        assert!(Reader::new(&[0x80u8; 10]).varint().is_err());
    }

    /// A forged inline case name whose varint length is `u64::MAX` is a
    /// typed error — the old `pos + len` overflowed and panicked.
    #[test]
    fn case_name_length_past_the_blob_is_typed() {
        let c = sample();
        let mut blob = CHURN_MAGIC.to_vec();
        put_sym(&mut blob, c.case);
        put_sym(&mut blob, c.purpose);
        blob.put_u64(c.process_key);
        blob.extend_from_slice(&[0, 0, 0, 0]); // counters, no first time
        blob.put_u8(NAME_INLINE);
        blob.put_varint(u64::MAX);
        blob.extend_from_slice(b"HT-7");
        assert_eq!(decode_churn(&blob).unwrap_err(), SnapshotError::Truncated);
    }
}
