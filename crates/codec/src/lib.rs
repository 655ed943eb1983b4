//! The one binary codec and the one durable write.
//!
//! Every persisted byte of the system — `.pcas` automaton snapshots, the
//! `PCLC`/`PCLM`/`PCLS` checkpoints, the run-local `PCLE` churn blobs,
//! spill-log records, checkpoint and observability files — goes through
//! this crate. It owns four things:
//!
//! * [`StableHasher`], the FNV-1a 64 hash behind envelope checksums, spill
//!   record checksums, snapshot content keys, case routing keys and the
//!   trail integrity chain.
//! * The 32-byte envelope ([`seal`]/[`open`]):
//!
//!   ```text
//!   offset size  field
//!        0    4  magic
//!        4    4  format version (u32 LE)
//!        8    8  content key (u64 LE)
//!       16    8  payload length (u64 LE)
//!       24    8  payload checksum (FNV-1a 64, u64 LE)
//!       32    …  payload
//!   ```
//!
//! * A bounded [`Reader`] and the [`Writer`] methods on `Vec<u8>`:
//!   little-endian `u8`/`u32`/`u64`, LEB128 varints, length-prefixed byte
//!   strings and UTF-8 strings. Every length read from input is checked
//!   against the bytes that remain, with checked arithmetic, *before*
//!   anything is allocated for it, and every failure is a typed
//!   [`SnapshotError`] — a decoder built on the reader cannot panic or
//!   over-allocate on hostile input.
//! * [`atomic_write`]: temp file → fsync → rename → directory fsync, with
//!   the [`fault`] hooks (test and `chaos` builds) that let every
//!   persistence path be driven through disk failure.
//!
//! It depends on nothing but `std`, so every crate of the workspace —
//! `obs` at the bottom included — can share it.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Why persisted bytes could not be decoded. Every variant is a fail-open
/// reason — callers fall back (cold start, fresh monitor) and say why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the expected magic.
    BadMagic,
    /// The envelope's format version is not the one this build reads.
    VersionMismatch { found: u32, expected: u32 },
    /// The envelope was written for different content (another process or
    /// observability).
    KeyMismatch { found: u64, expected: u64 },
    /// The bytes end before a declared length does.
    Truncated,
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The payload decoded inconsistently (bad tag, index out of range, …).
    Malformed(&'static str),
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an automaton snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapshotError::KeyMismatch { found, expected } => write!(
                f,
                "snapshot keyed to a different process \
                 (key {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload corrupted \
                 (checksum {computed:#018x}, header says {stored:#018x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "snapshot payload malformed: {what}"),
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Stable hashing
// ---------------------------------------------------------------------------

/// FNV-1a 64 — a byte-stream hash whose value depends only on the bytes
/// fed, never on interner state, process layout or a per-process seed.
#[derive(Clone, Copy, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    pub fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` hash apart.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Envelope size: magic + version + key + payload length + checksum.
pub const HEADER_LEN: usize = 32;

/// Seal `payload` in the envelope.
pub fn seal(magic: [u8; 4], version: u32, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.put_u32(version);
    out.put_u64(key);
    out.put_u64(payload.len() as u64);
    out.put_u64(checksum(payload));
    out.extend_from_slice(payload);
    out
}

/// Validate an envelope and return `(key, payload)`. Checks run in a fixed
/// order — magic, version, key (when `expected_key` is given), length,
/// checksum — so a file that is wrong in several ways always reports the
/// same reason.
pub fn open(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
    expected_key: Option<u64>,
) -> Result<(u64, &[u8]), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && bytes[..4] != magic {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated);
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    let mut r = Reader::new(header);
    if r.take(4)? != magic {
        return Err(SnapshotError::BadMagic);
    }
    let found = r.u32()?;
    if found != version {
        return Err(SnapshotError::VersionMismatch {
            found,
            expected: version,
        });
    }
    let key = r.u64()?;
    if let Some(expected) = expected_key.filter(|&k| k != key) {
        return Err(SnapshotError::KeyMismatch {
            found: key,
            expected,
        });
    }
    let payload_len = r.u64()?;
    let stored = r.u64()?;
    if (payload.len() as u64) < payload_len {
        return Err(SnapshotError::Truncated);
    }
    if payload.len() as u64 > payload_len {
        return Err(SnapshotError::Malformed("trailing bytes after payload"));
    }
    let computed = checksum(payload);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok((key, payload))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The encode half of the codec, as methods on the output buffer.
pub trait Writer {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    /// Unsigned LEB128.
    fn put_varint(&mut self, v: u64);
    /// A collection count as `u32`. Counts come from this program's own
    /// data, so one that does not fit is a bug, not an input error.
    fn put_count(&mut self, n: usize);
    /// `u32` length + raw bytes.
    fn put_bytes(&mut self, b: &[u8]);
    /// `u32` length + UTF-8 bytes.
    fn put_str(&mut self, s: &str);
}

impl Writer for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.push(v as u8);
    }

    #[inline]
    fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("encoded collection fits u32"));
    }

    #[inline]
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_count(b.len());
        self.extend_from_slice(b);
    }

    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A cursor over untrusted bytes. Every read is bounds-checked and every
/// length is validated against what remains before it is used.
#[derive(Clone, Debug)]
pub struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    pub fn new(bytes: &'b [u8]) -> Reader<'b> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'b [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        let &b = self.bytes.get(self.pos).ok_or(SnapshotError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Unsigned LEB128; encodings longer than a `u64` are malformed.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7f);
            if shift >= 64 || (shift == 63 && bits > 1) {
                return Err(SnapshotError::Malformed("varint overflows u64"));
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A length or count read from input, checked against the bytes that
    /// remain: every counted element and every byte takes at least one
    /// byte of input, so anything larger is a truncated (or forged)
    /// stream — rejected before a caller can allocate for it.
    #[inline]
    pub fn bounded(&self, n: u64) -> Result<usize, SnapshotError> {
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or(SnapshotError::Truncated)
    }

    /// A `u32` count, [`bounded`](Reader::bounded).
    #[inline]
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u32()?;
        self.bounded(u64::from(n))
    }

    /// A varint count, [`bounded`](Reader::bounded).
    #[inline]
    pub fn varint_count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.varint()?;
        self.bounded(n)
    }

    /// `u32` length + raw bytes.
    pub fn bytes(&mut self) -> Result<&'b [u8], SnapshotError> {
        let n = self.count()?;
        self.take(n)
    }

    /// `u32` length + UTF-8 bytes.
    pub fn str(&mut self) -> Result<&'b str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::Malformed("string is not utf-8"))
    }

    /// Require that every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("payload has unread bytes"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Durable write
// ---------------------------------------------------------------------------

/// Replace `path` with `bytes` crash-atomically: write the sibling temp
/// file `<file name>.tmp-durable`, fsync it, rename it over `path`, fsync
/// the parent directory so the rename itself survives a crash. Creates
/// the parent directory if needed. Returns the number of fsyncs performed.
///
/// With `sync == false` both fsyncs are skipped but the temp + rename
/// atomicity is kept: a reader never observes a half-written file, and a
/// crash at worst loses the newest version. On failure the temp file is
/// removed and `path` is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8], sync: bool) -> io::Result<u64> {
    #[cfg(any(test, feature = "chaos"))]
    fault::check_write(path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp-durable");
    let tmp = dir.join(tmp_name);
    let mut fsyncs = 0u64;
    let outcome = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        if sync {
            file.sync_all()?;
            fsyncs += 1;
        }
        drop(file);
        fs::rename(&tmp, path)?;
        if sync {
            // Failure to *open* the directory (exotic filesystems) is not
            // fatal — the data file is already synced.
            if let Ok(d) = fs::File::open(&dir) {
                d.sync_all()?;
                fsyncs += 1;
            }
        }
        Ok(fsyncs)
    })();
    if outcome.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    outcome
}

/// Deterministic disk-fault injection, compiled in for tests and `chaos`
/// builds only.
///
/// A [`FaultPlan`] is *scoped to a directory prefix*: only durable writes
/// to paths under the scope count toward (and suffer) the fault, so
/// concurrent tests with separate scratch directories never interfere.
/// Plans are armed process-globally ([`arm`]) and removed with [`disarm`].
#[cfg(any(test, feature = "chaos"))]
pub mod fault {
    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    /// What the injected failure looks like to the caller.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultKind {
        /// Half the buffer reaches the file, then the write "fails" —
        /// the torn-write case recovery must truncate.
        ShortWrite,
        /// A plain I/O error (medium failure).
        Eio,
        /// Disk full (errno 28) — the one failure the live monitor
        /// degrades through instead of surfacing.
        Enospc,
        /// `std::process::abort()` — the crash-after-op-N probe for
        /// child-process harnesses.
        Crash,
    }

    /// One scheduled fault: the `at_op`-th durable write under `scope`
    /// fails with `kind`; with `persistent` every later write fails too
    /// (a full disk stays full).
    #[derive(Clone, Debug)]
    pub struct FaultPlan {
        pub scope: PathBuf,
        pub kind: FaultKind,
        pub at_op: u64,
        pub persistent: bool,
    }

    impl FaultPlan {
        pub fn new(scope: impl Into<PathBuf>, kind: FaultKind, at_op: u64) -> FaultPlan {
            FaultPlan {
                scope: scope.into(),
                kind,
                at_op: at_op.max(1),
                persistent: matches!(kind, FaultKind::Enospc),
            }
        }
    }

    struct Armed {
        plan: FaultPlan,
        ops: u64,
    }

    static ARMED: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

    /// Schedule a fault. Multiple plans (distinct scopes) may be armed.
    pub fn arm(plan: FaultPlan) {
        ARMED
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Armed { plan, ops: 0 });
    }

    /// Remove every plan scoped under `scope`.
    pub fn disarm(scope: &Path) {
        ARMED
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|a| !a.plan.scope.starts_with(scope) && !scope.starts_with(&a.plan.scope));
    }

    /// Called by every durable write: counts the operation against any
    /// armed plan whose scope covers `path` and returns the scheduled
    /// failure when the counter hits.
    pub fn check_write(path: &Path) -> io::Result<()> {
        let mut armed = ARMED.lock().unwrap_or_else(|p| p.into_inner());
        for a in armed.iter_mut() {
            if !path.starts_with(&a.plan.scope) {
                continue;
            }
            a.ops += 1;
            let hit = a.ops == a.plan.at_op || (a.plan.persistent && a.ops > a.plan.at_op);
            if !hit {
                continue;
            }
            return Err(match a.plan.kind {
                FaultKind::ShortWrite => {
                    io::Error::new(io::ErrorKind::WriteZero, "injected short write")
                }
                FaultKind::Eio => io::Error::other("injected EIO"),
                FaultKind::Enospc => io::Error::from_raw_os_error(28),
                FaultKind::Crash => std::process::abort(),
            });
        }
        Ok(())
    }

    /// For an injected short write, how many bytes actually to leave in
    /// the file (half the buffer) — `None` for other fault kinds.
    pub fn short_write_len(e: &io::Error, len: usize) -> Option<usize> {
        (e.kind() == io::ErrorKind::WriteZero).then_some(len / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hasher_is_fnv1a_64() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StableHasher::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn scalars_strings_and_varints_round_trip() {
        let mut out = Vec::new();
        out.put_u8(3);
        out.put_u32(0xdead_beef);
        out.put_u64(0x0123_4567_89ab_cdef);
        out.put_str("HT-7 café");
        out.put_bytes(&[9, 8, 7]);
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            out.put_varint(v);
        }
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.str().unwrap(), "HT-7 café");
        assert_eq!(r.bytes().unwrap(), &[9, 8, 7]);
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();

        // Every truncation of the stream fails typed, never panics.
        for len in 0..out.len() {
            let mut r = Reader::new(&out[..len]);
            let all = (|| -> Result<(), SnapshotError> {
                r.u8()?;
                r.u32()?;
                r.u64()?;
                r.str()?;
                r.bytes()?;
                for _ in 0..7 {
                    r.varint()?;
                }
                r.finish()
            })();
            assert_eq!(all.unwrap_err(), SnapshotError::Truncated, "cut at {len}");
        }
    }

    #[test]
    fn oversized_varints_and_lengths_are_rejected_before_use() {
        // Eleven continuation bytes, and a tenth byte with bits past 64.
        assert!(Reader::new(&[0x80; 11]).varint().is_err());
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert_eq!(
            Reader::new(&over).varint().unwrap_err(),
            SnapshotError::Malformed("varint overflows u64")
        );
        // Hostile lengths: never trusted past the bytes that remain.
        let mut out = Vec::new();
        out.put_u32(u32::MAX);
        assert_eq!(
            Reader::new(&out).bytes().unwrap_err(),
            SnapshotError::Truncated
        );
        let mut out = Vec::new();
        out.put_varint(u64::MAX);
        assert_eq!(
            Reader::new(&out).varint_count().unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            Reader::new(&[]).bounded(u64::MAX),
            Err(SnapshotError::Truncated)
        );
        let mut r = Reader::new(&[0xff, 0xfe]);
        r.u8().unwrap();
        assert_eq!(
            r.str().unwrap_err(),
            SnapshotError::Truncated,
            "a short count field is truncation"
        );
        let mut bad = Vec::new();
        bad.put_bytes(&[0xff]);
        assert_eq!(
            Reader::new(&bad).str().unwrap_err(),
            SnapshotError::Malformed("string is not utf-8")
        );
        let trailing = Reader::new(&[0]);
        assert_eq!(
            trailing.finish().unwrap_err(),
            SnapshotError::Malformed("payload has unread bytes")
        );
    }

    #[test]
    fn envelope_round_trips_and_fails_typed() {
        let sealed = seal(*b"TEST", 3, 42, b"payload");
        assert_eq!(sealed.len(), HEADER_LEN + 7);
        assert_eq!(
            open(&sealed, *b"TEST", 3, Some(42)).unwrap(),
            (42, &b"payload"[..])
        );
        assert_eq!(open(&sealed, *b"TEST", 3, None).unwrap().0, 42);
        assert_eq!(
            open(&sealed, *b"XXXX", 3, None).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            open(&sealed, *b"TEST", 4, None).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: 3,
                expected: 4
            }
        );
        assert_eq!(
            open(&sealed, *b"TEST", 3, Some(7)).unwrap_err(),
            SnapshotError::KeyMismatch {
                found: 42,
                expected: 7
            }
        );
        for len in 0..sealed.len() {
            assert_eq!(
                open(&sealed[..len], *b"TEST", 3, None).unwrap_err(),
                SnapshotError::Truncated
            );
        }
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            open(&flipped, *b"TEST", 3, None).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert_eq!(
            open(&trailing, *b"TEST", 3, None).unwrap_err(),
            SnapshotError::Malformed("trailing bytes after payload")
        );
        // A forged length field far past the input is truncation.
        let mut forged = sealed;
        forged[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            open(&forged, *b"TEST", 3, None).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("codec-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn atomic_write_creates_replaces_and_leaves_no_temp() {
        let dir = scratch("atomic");
        let path = dir.join("nested").join("state.bin");
        assert_eq!(atomic_write(&path, b"v1", true).unwrap(), 2);
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        assert_eq!(atomic_write(&path, b"v2", false).unwrap(), 0);
        assert_eq!(fs::read(&path).unwrap(), b"v2");
        assert_eq!(fs::read_dir(path.parent().unwrap()).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_fail_the_write_and_keep_the_old_file() {
        let dir = scratch("fault");
        let path = dir.join("state.bin");
        atomic_write(&path, b"old", false).unwrap();
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::Eio, 1));
        let err = atomic_write(&path, b"new", true).unwrap_err();
        assert!(err.to_string().contains("injected EIO"));
        fault::disarm(&dir);
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temp file");
        let _ = fs::remove_dir_all(&dir);
    }
}
