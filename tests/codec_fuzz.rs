//! One fuzz harness for every decoder of persisted or network bytes.
//!
//! Starting from one valid input per format, every decoder is fed random
//! bytes (raw, and sealed in a valid envelope so they reach the payload
//! decoder), the input truncated at every offset, every single-bit flip,
//! and hostile length and count fields — resealed where the format carries
//! a checksum, so they pass the envelope check. Every call must return a
//! value or a typed error, never panic, and no single allocation may
//! exceed what its input justifies: a per-thread peak-allocation probe
//! (the global allocator below) checks that on every call.
//!
//! Covered: `decode_snapshot` (`.pcas`), `decode_case` (`PCLC`),
//! `decode_monitor` (`PCLM`), `decode_sharded` (`PCLS`), `decode_churn`
//! (`PCLE`) with `EntryBlock::decode` on every window it yields, the spill
//! log's `recover_log`, `spill::decompress`, and
//! `serve::http::read_request`.

use bpmn::encode::{encode, Encoded};
use codec::SnapshotError;
use cows::automaton::snapshot::{FORMAT_VERSION, MAGIC};
use cows::weaknext::WeakNextLimits;
use proptest::prelude::*;
use purpose_control::checkpoint::{
    decode_case, decode_monitor, decode_sharded, encode_case, CASE_MAGIC, CHECKPOINT_VERSION,
    MONITOR_MAGIC, SHARDED_MAGIC,
};
use purpose_control::churn::{decode_churn, encode_churn, ChurnCheckpoint, EntryBlock};
use purpose_control::spill::{compress, decompress, recover_log, SpillStore};
use purpose_control::SyncPolicy;
use serve::http::{read_request, HttpError, Limits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Peak-allocation probe
// ---------------------------------------------------------------------------

struct PeakAlloc;

thread_local! {
    /// Largest single allocation or reallocation requested on this thread
    /// since the current [`total`] call began.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// No input in this harness justifies more; refusing the request turns an
/// over-allocation into a test failure instead of memory pressure.
const REFUSE_ABOVE: usize = 256 << 20;

fn admit(size: usize) -> bool {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    size <= REFUSE_ABOVE
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; refusing a request by returning null
// is allowed by that contract. `admit` touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !admit(new_size) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest single allocation a binary decoder may make for an
/// `n`-byte input: every decoded element costs at least one input byte,
/// and the largest decoded element (a COWS state) stays under 64 bytes per
/// input byte even with a growing `Vec`'s doubling. The fixed 1 MiB covers
/// process-global caches a decode may grow, such as the symbol interner.
fn binary_budget(n: usize) -> usize {
    64 * n + (1 << 20)
}

/// Run `decode` on `input`: it must return (a value or a typed error), and
/// its largest single allocation must stay within `budget` bytes.
fn total<T, E>(
    what: &str,
    input: &[u8],
    budget: usize,
    decode: impl FnOnce(&[u8]) -> Result<T, E>,
) -> Result<T, E> {
    PEAK.with(|p| p.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(input)));
    let peak = PEAK.with(Cell::get);
    let Ok(result) = outcome else {
        panic!("{what}: decoder panicked on a {}-byte input", input.len());
    };
    assert!(
        peak <= budget,
        "{what}: one allocation of {peak} B for a {}-byte input (budget {budget} B)",
        input.len()
    );
    result
}

/// Every single-bit flip of `valid`, as `(byte offset, flipped input)`.
fn for_each_bit_flip(valid: &[u8], mut f: impl FnMut(usize, &[u8])) {
    let mut buf = valid.to_vec();
    for i in 0..buf.len() {
        for bit in 0..8 {
            buf[i] ^= 1 << bit;
            f(i, &buf);
            buf[i] ^= 1 << bit;
        }
    }
}

/// `payload` with a hostile little-endian field written at every offset:
/// counts and lengths far past the payload, and at the edges of `u32` and
/// `u64`.
fn for_each_hostile_field(payload: &[u8], mut f: impl FnMut(&[u8])) {
    let past = payload.len() as u64 + 1;
    let fields: [Vec<u8>; 5] = [
        u32::MAX.to_le_bytes().to_vec(),
        0x8000_0000u32.to_le_bytes().to_vec(),
        (past as u32).to_le_bytes().to_vec(),
        u64::MAX.to_le_bytes().to_vec(),
        past.to_le_bytes().to_vec(),
    ];
    for field in &fields {
        for at in 0..=payload.len().saturating_sub(field.len()) {
            let mut forged = payload.to_vec();
            forged[at..at + field.len()].copy_from_slice(field);
            f(&forged);
        }
    }
}

// ---------------------------------------------------------------------------
// Envelope formats: PCAS, PCLC, PCLM, PCLS
// ---------------------------------------------------------------------------

/// A small automaton (Fig. 8, fully expanded) and its snapshot.
fn small_automaton() -> Encoded {
    let enc = encode(&bpmn::models::fig8_exclusive());
    let limits = WeakNextLimits::default();
    let mut frontier = vec![enc.automaton.initial_id(&enc.service)];
    while let Some(id) = frontier.pop() {
        for &(_, t) in enc
            .automaton
            .successors(id, &enc.observability, limits)
            .unwrap()
            .iter()
        {
            if enc.automaton.cached_edges(t).is_none() {
                frontier.push(t);
            }
        }
        enc.automaton
            .can_quiesce(id, &enc.observability, limits)
            .unwrap();
        enc.automaton.token_tasks(id, &enc.observability);
    }
    enc
}

const PCLS_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/monitor.pcls");

type Decoder = Box<dyn Fn(&[u8]) -> Result<(), SnapshotError>>;

/// One envelope format: its magic, version, key, a valid sealed input and
/// the decoder under test.
struct Envelope {
    name: &'static str,
    magic: [u8; 4],
    version: u32,
    key: u64,
    valid: Vec<u8>,
    decode: Decoder,
}

fn envelopes() -> Vec<Envelope> {
    let enc = small_automaton();
    let key = enc.snapshot_key();
    let pcas = enc.snapshot_bytes();
    let pcls = std::fs::read(PCLS_FIXTURE).expect("committed checkpoint fixture");
    let pclm = decode_sharded(&pcls).unwrap().swap_remove(0);
    let case = decode_monitor(&pclm).unwrap().cases.swap_remove(0);
    let pclc = encode_case(&case);
    vec![
        Envelope {
            name: "decode_snapshot",
            magic: MAGIC,
            version: FORMAT_VERSION,
            key,
            valid: pcas,
            decode: Box::new(move |b| cows::automaton::snapshot::decode_snapshot(b, key).map(drop)),
        },
        Envelope {
            name: "decode_case",
            magic: CASE_MAGIC,
            version: CHECKPOINT_VERSION,
            key: case.process_key,
            valid: pclc,
            decode: Box::new(|b| decode_case(b).map(drop)),
        },
        Envelope {
            name: "decode_monitor",
            magic: MONITOR_MAGIC,
            version: CHECKPOINT_VERSION,
            key: 0,
            valid: pclm,
            decode: Box::new(|b| decode_monitor(b).map(drop)),
        },
        Envelope {
            name: "decode_sharded",
            magic: SHARDED_MAGIC,
            version: CHECKPOINT_VERSION,
            key: 0,
            valid: pcls,
            // What restore does: split, then decode every shard.
            decode: Box::new(|b| {
                decode_sharded(b)?
                    .iter()
                    .try_for_each(|shard| decode_monitor(shard).map(drop))
            }),
        },
    ]
}

#[test]
fn envelope_decoders_survive_truncation_flips_and_hostile_fields() {
    for env in envelopes() {
        let what = env.name;
        total(
            what,
            &env.valid,
            binary_budget(env.valid.len()),
            &*env.decode,
        )
        .unwrap_or_else(|e| panic!("{what}: valid input rejected: {e}"));

        for n in 0..env.valid.len() {
            let cut = &env.valid[..n];
            let err = total(what, cut, binary_budget(n), &*env.decode).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "{what}: truncation to {n} bytes gave {err:?}"
            );
        }

        // The checksum covers the payload and every other header field is
        // checked, so only a flip inside the content key can still decode
        // (and only for formats that take the key from the envelope).
        let key_field = 8..16;
        let key_checked = env.magic == MAGIC;
        for_each_bit_flip(&env.valid, |at, flipped| {
            let result = total(what, flipped, binary_budget(flipped.len()), &*env.decode);
            if key_checked || !key_field.contains(&at) {
                assert!(result.is_err(), "{what}: bit flip at byte {at} decoded");
            }
        });

        let payload = &env.valid[codec::HEADER_LEN..];
        for_each_hostile_field(payload, |forged| {
            let sealed = codec::seal(env.magic, env.version, env.key, forged);
            let _ = total(what, &sealed, binary_budget(sealed.len()), &*env.decode);
        });
    }
}

// ---------------------------------------------------------------------------
// PCLE churn blobs and their entry windows
// ---------------------------------------------------------------------------

fn valid_churn() -> Vec<u8> {
    let pcls = std::fs::read(PCLS_FIXTURE).expect("committed checkpoint fixture");
    let pclm = decode_sharded(&pcls).unwrap().swap_remove(0);
    let case = decode_monitor(&pclm).unwrap().cases.swap_remove(0);
    let mut meta = case.state.meta.clone();
    // An inline case name, so the length-prefixed name path is covered.
    meta.case_name = Some(format!("{} (renamed)", case.case));
    encode_churn(&ChurnCheckpoint {
        case: case.case,
        purpose: case.purpose,
        process_key: case.process_key,
        ids: vec![0, 7, 131_072],
        meta,
        entries: EntryBlock::from_entries(&case.entries),
        entries_dropped: case.entries_dropped,
        last_seen: case.last_seen,
    })
}

/// Decode a churn blob and, when it decodes, materialize its entry window.
/// (`EntryBlock::pop_front` is left out: it debug-asserts that the window
/// is one this process encoded, and degrades to an empty window otherwise.)
fn churn_and_window(bytes: &[u8]) -> Result<(), SnapshotError> {
    let c = decode_churn(bytes)?;
    c.entries.decode(c.case).map(drop)
}

#[test]
fn churn_decoder_survives_truncation_flips_and_hostile_varints() {
    let what = "decode_churn";
    let valid = valid_churn();
    total(what, &valid, binary_budget(valid.len()), churn_and_window).unwrap();
    for n in 0..valid.len() {
        let cut = &valid[..n];
        assert!(total(what, cut, binary_budget(n), churn_and_window).is_err());
    }
    // No checksum: a flip may decode to other (valid) content, but must
    // never panic or over-allocate.
    for_each_bit_flip(&valid, |_, flipped| {
        let _ = total(
            what,
            flipped,
            binary_budget(flipped.len()),
            churn_and_window,
        );
    });
    // Every byte in turn replaced by a maximal varint (ten bytes), and by a
    // varint for a count just past the blob.
    let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let mut past = Vec::new();
    codec::Writer::put_varint(&mut past, valid.len() as u64 + 1);
    for at in 4..valid.len() {
        for field in [&max[..], &past[..]] {
            let mut forged = valid[..at].to_vec();
            forged.extend_from_slice(field);
            forged.extend_from_slice(&valid[at + 1..]);
            let _ = total(what, &forged, binary_budget(forged.len()), churn_and_window);
        }
    }
}

// ---------------------------------------------------------------------------
// Spill log and spill-blob compression
// ---------------------------------------------------------------------------

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("purposectl-tests")
        .join(format!("codec-fuzz-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spill log holding three records, read back while the store is open.
fn valid_spill_log(dir: &Path) -> Vec<u8> {
    let mut store = SpillStore::new(Some(dir.to_path_buf()), 0, SyncPolicy::Never);
    for (i, case) in ["S-1", "S-2", "S-3"].iter().enumerate() {
        let payload: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(31 + i as u8)).collect();
        store.insert(cows::sym(case), &payload).unwrap();
    }
    std::fs::read(dir.join("spill.log")).unwrap()
}

#[test]
fn spill_log_recovery_survives_truncation_flips_and_hostile_lengths() {
    let what = "recover_log";
    let dir = scratch("log");
    let valid = valid_spill_log(&dir);
    let path = dir.join("fuzzed.log");
    let scan = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let recovery = total(what, bytes, binary_budget(bytes.len()), |_| {
            recover_log(&path)
        })
        .expect("a readable log always scans");
        assert_eq!(
            recovery.valid_bytes + recovery.dropped_bytes,
            bytes.len() as u64,
            "{what}: the valid prefix and torn tail must cover the file"
        );
        recovery
    };
    assert_eq!(scan(&valid).records.len(), 3);
    for n in 0..valid.len() {
        assert!(scan(&valid[..n]).records.len() < 3);
    }
    for_each_bit_flip(&valid, |_, flipped| {
        assert!(scan(flipped).records.len() <= 3);
    });
    for_each_hostile_field(&valid, |forged| {
        scan(forged);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompress_bounds_the_declared_length_before_allocating() {
    let what = "decompress";
    let payload: Vec<u8> = b"T06 HT-99 201007060900 success "
        .iter()
        .cycle()
        .take(2048)
        .copied()
        .collect();
    let valid = compress(&payload);
    assert_eq!(valid[0], 1, "the sample must take the LZ path");
    assert_eq!(
        total(what, &valid, binary_budget(valid.len()), decompress).unwrap(),
        payload
    );
    for n in 0..valid.len() {
        assert!(total(what, &valid[..n], binary_budget(n), decompress).is_err());
    }
    for_each_bit_flip(&valid, |_, flipped| {
        let _ = total(what, flipped, binary_budget(flipped.len()), decompress);
    });
    for_each_hostile_field(&valid, |forged| {
        let _ = total(what, forged, binary_budget(forged.len()), decompress);
    });
    // A declared length past what the stream can expand to (nine output
    // bytes per input byte) is refused before the output is allocated.
    for declared in [u32::MAX, (valid.len() as u32 - 5) * 9 + 1] {
        let mut forged = valid.clone();
        forged[1..5].copy_from_slice(&declared.to_le_bytes());
        assert_eq!(
            total(what, &forged, binary_budget(forged.len()), decompress).unwrap_err(),
            SnapshotError::Malformed("declared length exceeds what the blob can expand to")
        );
    }
}

// ---------------------------------------------------------------------------
// HTTP requests
// ---------------------------------------------------------------------------

const HTTP_LIMITS: Limits = Limits {
    max_header_bytes: 1024,
    max_body_bytes: 4096,
    io_timeout: std::time::Duration::from_secs(30),
};

/// The HTTP parser sizes a body from its declared length once that length
/// has passed [`Limits::max_body_bytes`], so its budget is that limit
/// (doubled for a growing chunked body) on top of the binary budget.
fn http_budget(n: usize) -> usize {
    2 * HTTP_LIMITS.max_body_bytes + binary_budget(n)
}

fn parse_http(bytes: &[u8]) -> Result<(), HttpError> {
    read_request(&mut std::io::BufReader::new(bytes), &HTTP_LIMITS).map(drop)
}

#[test]
fn http_parser_survives_truncation_flips_and_hostile_lengths() {
    let what = "read_request";
    let requests: [&[u8]; 2] = [
        b"POST /v1/demo/entries HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        b"POST /v1/demo/entries HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
    ];
    for valid in requests {
        total(what, valid, http_budget(valid.len()), parse_http).unwrap();
        for n in 0..valid.len() {
            assert!(total(what, &valid[..n], http_budget(n), parse_http).is_err());
        }
        for_each_bit_flip(valid, |_, flipped| {
            let _ = total(what, flipped, http_budget(flipped.len()), parse_http);
        });
    }
    let hostile: [&[u8]; 6] = [
        b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\nshort",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\nffffffffffffffff\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n800\r\n",
    ];
    for forged in hostile {
        assert!(total(what, forged, http_budget(forged.len()), parse_http).is_err());
    }
}

// ---------------------------------------------------------------------------
// Random bytes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, raw and behind each format's framing: sealed in a
    /// valid envelope (so they reach the payload decoders), after the
    /// churn magic, behind each compression tag, after a request line.
    #[test]
    fn random_bytes_never_panic_or_over_allocate(
        bytes in prop::collection::vec(0u8..=255, 0..600),
    ) {
        let n = bytes.len() + codec::HEADER_LEN;
        for env in envelopes() {
            let _ = total(env.name, &bytes, binary_budget(bytes.len()), &*env.decode);
            let sealed = codec::seal(env.magic, env.version, env.key, &bytes);
            let _ = total(env.name, &sealed, binary_budget(n), &*env.decode);
        }
        let mut churn = b"PCLE".to_vec();
        churn.extend_from_slice(&bytes);
        let _ = total("decode_churn", &churn, binary_budget(churn.len()), churn_and_window);
        for tag in [0u8, 1] {
            let mut blob = vec![tag];
            blob.extend_from_slice(&bytes);
            let _ = total("decompress", &blob, binary_budget(blob.len()), decompress);
        }
        let mut request = b"POST /v1/demo/entries HTTP/1.1\r\n".to_vec();
        request.extend_from_slice(&bytes);
        let _ = total("read_request", &request, http_budget(request.len()), parse_http);
        let _ = total("read_request", &bytes, http_budget(bytes.len()), parse_http);
    }
}
