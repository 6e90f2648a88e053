//! The write-ahead event journal: crash-durable, replayable history of
//! everything the monitoring pipeline did.
//!
//! A journal is a directory of segment files (`journal-00000000`,
//! `journal-00000001`, …), each starting with a 5-byte header (magic
//! `RVJL` + format version) followed by length-prefixed records:
//!
//! ```text
//! [len: u32 LE] [seq: u64 LE] [kind: u8] [payload: len-9 bytes] [crc32: u32 LE]
//! ```
//!
//! `len` covers `seq + kind + payload`; the CRC (IEEE 802.3) covers the
//! same bytes. Sequence numbers are monotone across segments, so replay
//! and recovery have a single total order to work with. The writer
//! rotates to a new segment once the current one exceeds a byte limit.
//!
//! The recovery reader ([`read_journal`]) is deliberately forgiving about
//! *tails* and strict about *heads*: a torn or bit-flipped record ends
//! the scan at the last durable prefix (a crash mid-write is normal
//! operation, not an error), while a missing magic or a stale version
//! byte is a typed [`EngineError::CorruptJournal`] — that artifact was
//! never a journal this code wrote, or needs a migration we don't have.
//!
//! Every journal is written by [`JournaledMonitor`] in one vocabulary:
//! `AUX_SPEC` at sequence 0, then per trace line its first-mention
//! `AUX_OBJ` names and one `AUX_SLINE`, the `Trigger` records the line
//! fired, an `AUX_GC_CYCLE` per collection or block swept, and the
//! daemon's `AUX_FATAL` and `AUX_RELOAD` marks. Version 3 is that
//! vocabulary; versions 1 and 2 also carried pre-bound `Event` records
//! and are refused.
//!
//! [`JournaledMonitor`]: crate::ingest::JournaledMonitor

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use rv_heap::{ObjId, SplitMix64};
use rv_logic::{ParamId, Verdict};

use crate::binding::Binding;
use crate::error::EngineError;
use crate::snapshot::{list_checkpoints, write_checkpoint};

/// Segment file magic: the first four header bytes.
pub const SEGMENT_MAGIC: [u8; 4] = *b"RVJL";

/// On-disk format version (the fifth header byte).
pub const JOURNAL_VERSION: u8 = 3;

/// Header length: magic + version byte.
pub const SEGMENT_HEADER_LEN: u64 = 5;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Upper bound on a single record body; length claims beyond this are
/// treated as corruption without allocating.
const MAX_RECORD_LEN: u32 = 1 << 24;

/// Minimum record body length (`seq` + `kind`, empty payload).
const MIN_RECORD_LEN: u32 = 9;

// --- CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) ----------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` — the checksum every journal record and
/// checkpoint payload carries.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- Record model --------------------------------------------------------

/// Auxiliary record tag: the spec source header. Every journal carries
/// it at sequence 0, so a journal directory is self-contained.
pub const AUX_SPEC: u8 = 0;
/// Auxiliary record tag: one completed GC cycle, payload a
/// `GcCycleRecord::to_bytes` body: one per heap collection a `!gc` line
/// ran and one per block a `!sweep` line swept, after that line's
/// `AUX_SLINE`. Telemetry only: `rvmon gc-log` reads it, replay skips it.
pub const AUX_GC_CYCLE: u8 = 4;
/// Auxiliary record tag: a first-mention object allocation (payload:
/// object bits as `u64` LE, then the object's name in UTF-8), journaled
/// ahead of the line that mentions it so recovery can rebuild the
/// name → `ObjId` map later lines keep using.
pub const AUX_OBJ: u8 = 5;
/// Auxiliary record tag: one session-scoped trace line (payload:
/// `session: u64 LE`, `cseq: u64 LE`, then the raw line in UTF-8). The session/cseq pair is the exactly-once
/// key: recovery rebuilds the per-session high-water mark from these
/// records, so a reconnecting client that resends its unacknowledged
/// window can never double-apply a line. Carrying the cseq *inside*
/// the line record (rather than as a sibling record) makes the
/// dedup-state update atomic with the line itself under any crash.
pub const AUX_SLINE: u8 = 6;
/// Auxiliary record tag: an injected worker-fatal chaos directive
/// (payload: `session: u64 LE`, `cseq: u64 LE`). Journaled — and
/// fsynced — *before* the worker dies, so recovery advances the
/// session high-water mark past it without re-dying: the fault fires
/// exactly once even when the client's resend window still holds it.
pub const AUX_FATAL: u8 = 7;
/// Auxiliary record tag: a hot spec reload cutover (payload:
/// `token: u64 LE`, then the new spec source in UTF-8). The old
/// engine is checkpointed at its exact journal tail immediately before
/// this record; replay swaps in a fresh engine compiled from the new
/// source when it crosses the record. The token makes reloads
/// idempotent: a client retrying a reload whose acknowledgement was
/// lost in transit cannot cut over twice.
pub const AUX_RELOAD: u8 = 8;
/// One journal record: the auxiliary entries that make a run replayable
/// (see the `AUX_*` tags), the goal reports already delivered (for
/// duplicate suppression), and checkpoint placement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Record {
    /// A goal report the trigger path delivered. `(event_seq, ordinal)`
    /// is the duplicate-suppression key: the journal sequence number of
    /// the event that fired it, and the report's index within that event.
    Trigger {
        /// Journal sequence number of the `AUX_SLINE` record whose event
        /// fired this report.
        event_seq: u64,
        /// Zero-based index of this report among the event's reports.
        ordinal: u32,
        /// Property block that fired (0 for single-engine drivers).
        block: u16,
        /// The engine's event counter at fire time.
        step: u64,
        /// The reported verdict.
        verdict: Verdict,
        /// The reported binding.
        binding: Binding,
    },
    /// Marks that checkpoint `generation` was durably written covering
    /// everything up to journal sequence `seq`. Informational: recovery
    /// scans checkpoint files directly, but the mark makes `replay`
    /// output and audits self-explanatory.
    CheckpointMark {
        /// The checkpoint generation number.
        generation: u64,
        /// The journal sequence the checkpoint covers (exclusive).
        seq: u64,
    },
    /// An auxiliary entry (see the `AUX_*` tags).
    Aux {
        /// The entry's tag.
        tag: u8,
        /// Opaque payload bytes.
        bytes: Vec<u8>,
    },
}

/// Encodes a binding as a domain byte followed by one `u64` of object
/// bits per bound parameter, in parameter order. Shared with the snapshot
/// encoder (engine.rs).
pub(crate) fn encode_binding(b: Binding, out: &mut Vec<u8>) {
    debug_assert!(b.domain().0 <= 0xFF, "MAX_PARAMS is 8; domains fit a byte");
    out.push(b.domain().0 as u8);
    for (_, obj) in b.iter() {
        out.extend_from_slice(&obj.to_bits().to_le_bytes());
    }
}

/// Decodes [`encode_binding`]; `None` on truncated bytes.
pub(crate) fn decode_binding(bytes: &[u8], pos: &mut usize) -> Option<Binding> {
    let domain = *bytes.get(*pos)?;
    *pos += 1;
    let mut pairs = Vec::new();
    for p in 0..8u8 {
        if domain & (1u8 << p) != 0 {
            let raw: [u8; 8] = bytes.get(*pos..*pos + 8)?.try_into().ok()?;
            *pos += 8;
            pairs.push((ParamId(p), ObjId::from_bits(u64::from_le_bytes(raw))));
        }
    }
    Some(Binding::from_pairs(&pairs))
}

fn u16_at(bytes: &[u8], pos: &mut usize) -> Option<u16> {
    let raw: [u8; 2] = bytes.get(*pos..*pos + 2)?.try_into().ok()?;
    *pos += 2;
    Some(u16::from_le_bytes(raw))
}

fn u32_at(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(raw))
}

fn u64_at(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let raw: [u8; 8] = bytes.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(raw))
}

impl Record {
    /// The on-disk kind byte.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Record::Trigger { .. } => 2,
            Record::CheckpointMark { .. } => 4,
            Record::Aux { .. } => 5,
        }
    }

    /// Serializes the payload (everything after the kind byte).
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Record::Trigger { event_seq, ordinal, block, step, verdict, binding } => {
                out.extend_from_slice(&event_seq.to_le_bytes());
                out.extend_from_slice(&ordinal.to_le_bytes());
                out.extend_from_slice(&block.to_le_bytes());
                out.extend_from_slice(&step.to_le_bytes());
                out.push(verdict.to_byte());
                encode_binding(*binding, out);
            }
            Record::CheckpointMark { generation, seq } => {
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Record::Aux { tag, bytes } => {
                out.push(*tag);
                out.extend_from_slice(bytes);
            }
        }
    }

    /// Decodes a payload for `kind`; `None` on malformed bytes.
    #[must_use]
    pub fn decode(kind: u8, payload: &[u8]) -> Option<Record> {
        let mut pos = 0usize;
        let rec = match kind {
            2 => {
                let event_seq = u64_at(payload, &mut pos)?;
                let ordinal = u32_at(payload, &mut pos)?;
                let block = u16_at(payload, &mut pos)?;
                let step = u64_at(payload, &mut pos)?;
                let verdict = Verdict::from_byte(*payload.get(pos)?)?;
                pos += 1;
                let binding = decode_binding(payload, &mut pos)?;
                Record::Trigger { event_seq, ordinal, block, step, verdict, binding }
            }
            4 => {
                let generation = u64_at(payload, &mut pos)?;
                let seq = u64_at(payload, &mut pos)?;
                Record::CheckpointMark { generation, seq }
            }
            5 => {
                let tag = *payload.first()?;
                let rec = Record::Aux { tag, bytes: payload[1..].to_vec() };
                pos = payload.len();
                rec
            }
            _ => return None,
        };
        (pos == payload.len()).then_some(rec)
    }
}

// --- Writer --------------------------------------------------------------

/// Counters the journal writer maintains — the journal-overhead numbers
/// the bench harness folds into `--stats-json`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct JournalStats {
    /// Records appended.
    pub records: u64,
    /// Payload + framing bytes appended (headers excluded).
    pub bytes: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Explicit `sync` calls that reached the OS.
    pub syncs: u64,
    /// Append attempts that failed transiently and were retried by
    /// [`JournalWriter::append_retry`].
    pub retries: u64,
}

impl JournalStats {
    /// Renders the counters as a JSON object (hand-rolled, like the rest
    /// of the observability layer).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"records\":{},\"bytes\":{},\"rotations\":{},\"syncs\":{},\"retries\":{}}}",
            self.records, self.bytes, self.rotations, self.syncs, self.retries
        )
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:08}"))
}

// --- Fault injection (chaos harness) -------------------------------------

/// Deterministic, seeded append-fault injector — the journal's chaos
/// harness. Installed with [`JournalWriter::set_fault`], it makes a
/// configurable fraction of append attempts fail with transient IO error
/// kinds, optionally writing a torn frame prefix first (so the writer's
/// tail-repair path is exercised, not just the error return), and can
/// switch to failing *every* attempt after a scheduled point to simulate
/// a persistently dead disk.
#[derive(Clone, Debug)]
pub struct FailingWriter {
    rng: SplitMix64,
    fail_permille: u32,
    partial_max: usize,
    hard_fail_after: Option<u64>,
    attempts: u64,
    injected: u64,
}

impl FailingWriter {
    /// A fault plan seeded with `seed` where roughly
    /// `fail_permille`/1000 of append attempts fail transiently.
    #[must_use]
    pub fn new(seed: u64, fail_permille: u32) -> FailingWriter {
        FailingWriter {
            rng: SplitMix64::new(seed ^ 0xD6E8_FEB8_6659_FD93),
            fail_permille: fail_permille.min(1000),
            partial_max: 0,
            hard_fail_after: None,
            attempts: 0,
            injected: 0,
        }
    }

    /// On each injected failure, also write up to `max` bytes of the
    /// frame into the sink first — a torn append the writer must repair.
    #[must_use]
    pub fn with_partial(mut self, max: usize) -> FailingWriter {
        self.partial_max = max;
        self
    }

    /// From append attempt `n` (0-based) onward, every attempt fails
    /// with a non-transient error — a persistently failing device.
    #[must_use]
    pub fn with_hard_fail_after(mut self, n: u64) -> FailingWriter {
        self.hard_fail_after = Some(n);
        self
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decides the fate of the next append attempt: `None` to let it
    /// through, or `Some((error, torn_bytes))` to fail it after writing
    /// `torn_bytes` of the frame.
    fn next_fault(&mut self) -> Option<(std::io::Error, usize)> {
        let attempt = self.attempts;
        self.attempts += 1;
        if self.hard_fail_after.is_some_and(|n| attempt >= n) {
            self.injected += 1;
            return Some((
                std::io::Error::other("injected permanent device failure"),
                self.partial_max.min(1),
            ));
        }
        let roll = self.rng.next_u64();
        if self.fail_permille > 0 && roll % 1000 < u64::from(self.fail_permille) {
            self.injected += 1;
            let kind = match roll >> 32 & 3 {
                0 => ErrorKind::Interrupted,
                1 => ErrorKind::WouldBlock,
                _ => ErrorKind::TimedOut,
            };
            let torn = if self.partial_max == 0 {
                0
            } else {
                (roll >> 40) as usize % (self.partial_max + 1)
            };
            return Some((std::io::Error::new(kind, "injected transient write fault"), torn));
        }
        None
    }
}

// --- Retry policy ---------------------------------------------------------

/// Bounded retry-with-backoff for [`JournalWriter::append_retry`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total append attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Ceiling on the doubled backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — the pre-retry behavior, for callers
    /// that want a typed error on the very first failure.
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }
}

/// Whether an IO error kind is worth retrying: the kinds the OS hands
/// back for contention and interruption, not for broken artifacts.
#[must_use]
pub fn is_transient(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// An append-only writer over a journal directory.
pub struct JournalWriter {
    dir: PathBuf,
    file: BufWriter<File>,
    segment_index: u64,
    segment_bytes: u64,
    segment_limit: u64,
    next_seq: u64,
    stats: JournalStats,
    fault: Option<FailingWriter>,
    poisoned: bool,
    /// Whether records were appended since the last [`sync`](Self::sync).
    unsynced: bool,
    /// The generation the next [`checkpoint`](Self::checkpoint) writes.
    generation: u64,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("dir", &self.dir)
            .field("segment_index", &self.segment_index)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl JournalWriter {
    /// Creates a fresh journal in `dir` (creating the directory if
    /// needed) with the default segment size. Journal segments and
    /// checkpoints an earlier run left in `dir` are deleted, so recovery
    /// can never mistake them for this run's.
    ///
    /// # Errors
    ///
    /// Any IO error clearing or creating the directory or the first
    /// segment.
    pub fn create(dir: &Path) -> std::io::Result<JournalWriter> {
        JournalWriter::create_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// Creates a fresh journal with an explicit segment rotation limit
    /// (tests use small limits to exercise rotation).
    ///
    /// # Errors
    ///
    /// Any IO error clearing or creating the directory or the first
    /// segment.
    pub fn create_with(dir: &Path, segment_limit: u64) -> std::io::Result<JournalWriter> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("journal-") || name.starts_with("checkpoint-") {
                std::fs::remove_file(&path)?;
            }
        }
        let mut w = JournalWriter {
            dir: dir.to_path_buf(),
            file: BufWriter::new(File::create(segment_path(dir, 0))?),
            segment_index: 0,
            segment_bytes: 0,
            segment_limit: segment_limit.max(SEGMENT_HEADER_LEN + 64),
            next_seq: 0,
            stats: JournalStats::default(),
            fault: None,
            poisoned: false,
            unsynced: false,
            generation: 0,
        };
        w.write_header()?;
        Ok(w)
    }

    /// Reopens a scanned journal for appending: physically truncates the
    /// torn tail the scan identified, deletes any segments past it, and
    /// positions the writer at the scan's `next_seq`. Checkpoints continue
    /// from the newest generation in `dir`.
    ///
    /// # Errors
    ///
    /// Any IO error truncating or reopening segment files.
    pub fn resume(dir: &Path, scan: &JournalScan) -> std::io::Result<JournalWriter> {
        let Some(last) = scan.last_segment else {
            // Nothing durable at all (empty dir, or a 0-byte first
            // segment): start from scratch.
            return JournalWriter::create(dir);
        };
        for index in last.index + 1.. {
            let p = segment_path(dir, index);
            if p.exists() {
                std::fs::remove_file(p)?;
            } else {
                break;
            }
        }
        let path = segment_path(dir, last.index);
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(last.valid_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            file: BufWriter::new(file),
            segment_index: last.index,
            segment_bytes: last.valid_bytes,
            segment_limit: DEFAULT_SEGMENT_BYTES,
            next_seq: scan.next_seq,
            stats: JournalStats::default(),
            fault: None,
            poisoned: false,
            unsynced: false,
            generation: list_checkpoints(dir).last().map_or(0, |g| g + 1),
        })
    }

    /// Installs a seeded [`FailingWriter`] fault plan — every subsequent
    /// append consults it. Chaos-test hook; production writers carry no
    /// plan and pay only an `Option` check.
    pub fn set_fault(&mut self, fault: FailingWriter) {
        self.fault = Some(fault);
    }

    /// The installed fault plan, if any (tests read its injection count).
    #[must_use]
    pub fn fault(&self) -> Option<&FailingWriter> {
        self.fault.as_ref()
    }

    fn write_header(&mut self) -> std::io::Result<()> {
        self.file.write_all(&SEGMENT_MAGIC)?;
        self.file.write_all(&[JOURNAL_VERSION])?;
        self.segment_bytes = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Appends one record, returning its sequence number.
    ///
    /// A failed append is *atomic*: the writer flushes what it can,
    /// physically truncates the segment back to the last durable record
    /// boundary (discarding any torn frame prefix), and leaves itself
    /// ready for a retry of the same record at the same sequence number.
    /// If even that repair fails the writer poisons itself — further
    /// appends error immediately rather than risk a sequence gap.
    ///
    /// # Errors
    ///
    /// Any IO error writing to the active segment, or an injected fault
    /// from a [`FailingWriter`] plan.
    pub fn append(&mut self, record: &Record) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other("journal writer poisoned by an unrepaired tail"));
        }
        if self.segment_bytes >= self.segment_limit {
            self.rotate()?;
        }
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(40);
        frame.extend_from_slice(&[0u8; 4]);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.push(record.kind());
        record.encode_payload(&mut frame);
        let body_len = u32::try_from(frame.len() - 4).expect("record fits u32");
        frame[..4].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());

        if let Some(fault) = self.fault.as_mut() {
            if let Some((err, torn)) = fault.next_fault() {
                // Simulate a torn write, then repair as for a real one.
                let torn = torn.min(frame.len());
                let _ = self.file.write_all(&frame[..torn]);
                self.repair_tail();
                return Err(err);
            }
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.repair_tail();
            return Err(e);
        }
        let framed = frame.len() as u64;
        self.segment_bytes += framed;
        self.stats.records += 1;
        self.stats.bytes += framed;
        self.next_seq = seq + 1;
        self.unsynced = true;
        Ok(seq)
    }

    /// Appends one record with bounded retry-with-backoff on transient
    /// IO errors ([`is_transient`]). Non-transient failures and exhausted
    /// retries surface as a typed [`EngineError::Journal`]; transient
    /// retries are counted in [`JournalStats::retries`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the append could not be made
    /// durable within `policy.max_attempts` attempts.
    pub fn append_retry(
        &mut self,
        record: &Record,
        policy: &RetryPolicy,
    ) -> Result<u64, EngineError> {
        let max = policy.max_attempts.max(1);
        let mut backoff = policy.backoff;
        for attempt in 1..=max {
            match self.append(record) {
                Ok(seq) => return Ok(seq),
                Err(e) if attempt < max && is_transient(e.kind()) => {
                    self.stats.retries += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff.min(policy.backoff_cap));
                    }
                    backoff = (backoff * 2).min(policy.backoff_cap);
                }
                Err(e) => {
                    return Err(EngineError::Journal {
                        file: segment_path(&self.dir, self.segment_index).display().to_string(),
                        attempts: attempt,
                        detail: e.to_string(),
                    });
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// Restores the append invariant after a failed write: every byte of
    /// the torn frame is gone from both the buffer and the file, and the
    /// cursor sits at the last durable record boundary.
    fn repair_tail(&mut self) {
        // Push whatever the buffer holds (completed records and the torn
        // frame prefix alike) down to the file, so truncation below sees
        // all of it. A transient flush failure gets a few tries; if the
        // sink stays broken the writer is poisoned — appending past an
        // unknown tail would tear the sequence order.
        let mut flushed = false;
        for _ in 0..3 {
            if self.file.flush().is_ok() {
                flushed = true;
                break;
            }
        }
        let repaired = flushed
            && self.file.get_ref().set_len(self.segment_bytes).is_ok()
            && self.file.seek(SeekFrom::Start(self.segment_bytes)).is_ok();
        if !repaired {
            self.poisoned = true;
        }
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        let next = self.segment_index + 1;
        self.file = BufWriter::new(File::create(segment_path(&self.dir, next))?);
        self.segment_index = next;
        self.write_header()?;
        self.stats.rotations += 1;
        Ok(())
    }

    /// Flushes buffered records and fsyncs the active segment — the
    /// durability point callers establish before writing a checkpoint
    /// and at end of run.
    ///
    /// # Errors
    ///
    /// Any IO error flushing or syncing.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        self.stats.syncs += 1;
        self.unsynced = false;
        Ok(())
    }

    /// Commits a checkpoint of the engine state `payload`, which must
    /// reflect every record appended so far: syncs the journal if records
    /// were appended since the last sync, durably writes the next
    /// generation's checkpoint covering them, and appends its
    /// `CheckpointMark` (under `retry`). The mark itself is not synced.
    ///
    /// # Errors
    ///
    /// Any IO error syncing, writing the checkpoint, or appending the mark.
    pub fn checkpoint(&mut self, payload: &[u8], retry: &RetryPolicy) -> std::io::Result<()> {
        if self.unsynced {
            self.sync()?;
        }
        let (generation, seq) = (self.generation, self.next_seq);
        write_checkpoint(&self.dir, generation, seq, payload)?;
        self.append_retry(&Record::CheckpointMark { generation, seq }, retry)
            .map_err(std::io::Error::other)?;
        self.generation += 1;
        Ok(())
    }

    /// Hands buffered records to the OS without fsyncing them, so a
    /// reader of the directory sees them.
    ///
    /// # Errors
    ///
    /// Any IO error flushing.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    /// The sequence number the next appended record will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Writer-side counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

// --- Recovery reader -----------------------------------------------------

/// Where and why the recovery reader stopped early.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Truncation {
    /// The segment file containing the tear.
    pub file: String,
    /// Byte offset of the first unusable byte.
    pub offset: u64,
    /// Bytes past the tear that were discarded (including any later
    /// segments).
    pub lost_bytes: u64,
    /// Human-readable reason (torn record, CRC mismatch, …).
    pub reason: String,
}

/// One decoded record with its sequence number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeqRecord {
    /// The record's journal sequence number.
    pub seq: u64,
    /// The decoded record.
    pub record: Record,
}

/// Identifies the last segment holding durable data, for tail
/// truncation on resume.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentPos {
    /// Segment index.
    pub index: u64,
    /// Valid byte length of that segment.
    pub valid_bytes: u64,
}

/// The result of scanning a journal directory: the durable record
/// prefix, plus where (if anywhere) the scan had to stop.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct JournalScan {
    /// All durable records in sequence order.
    pub records: Vec<SeqRecord>,
    /// Present when a torn/corrupt tail was discarded.
    pub truncation: Option<Truncation>,
    /// The sequence number a resumed writer continues from.
    pub next_seq: u64,
    /// The last segment with durable data (`None` for an empty journal).
    pub last_segment: Option<SegmentPos>,
    /// Number of segment files examined.
    pub segments: u64,
}

impl JournalScan {
    /// The duplicate-suppression high-water mark: the lexicographically
    /// greatest `(event_seq, ordinal)` over all durable trigger records.
    #[must_use]
    pub fn trigger_high_water_mark(&self) -> Option<(u64, u32)> {
        self.records
            .iter()
            .filter_map(|r| match r.record {
                Record::Trigger { event_seq, ordinal, .. } => Some((event_seq, ordinal)),
                _ => None,
            })
            .max()
    }
}

fn corrupt(path: &Path, offset: u64, detail: impl Into<String>) -> EngineError {
    EngineError::CorruptJournal { file: path.display().to_string(), offset, detail: detail.into() }
}

/// Scans the journal in `dir`, returning the durable record prefix.
///
/// Torn or bit-flipped tails are truncated (reported in
/// [`JournalScan::truncation`]), including everything in later segments.
/// A header that is present but wrong — bad magic or a stale version
/// byte — is a typed error: that file was never a journal this format
/// version wrote.
///
/// # Errors
///
/// [`EngineError::CorruptJournal`] on a bad header, or an IO failure
/// reading segment files (also mapped to `CorruptJournal`).
pub fn read_journal(dir: &Path) -> Result<JournalScan, EngineError> {
    let mut scan = JournalScan::default();
    let mut expected_seq = 0u64;
    for index in 0u64.. {
        let path = segment_path(dir, index);
        if !path.exists() {
            break;
        }
        scan.segments += 1;
        let bytes = std::fs::read(&path)
            .map_err(|e| corrupt(&path, 0, format!("unreadable segment: {e}")))?;
        // Header validation: a *prefix* of a valid header is a torn
        // creation (normal crash artifact); anything else is foreign.
        let mut expected_header = SEGMENT_MAGIC.to_vec();
        expected_header.push(JOURNAL_VERSION);
        if bytes.len() < expected_header.len() {
            if bytes == expected_header[..bytes.len()] {
                scan.truncation = Some(Truncation {
                    file: path.display().to_string(),
                    offset: 0,
                    lost_bytes: remaining_bytes(dir, index, bytes.len() as u64, 0),
                    reason: "segment header never completed".into(),
                });
                if index > 0 {
                    // An earlier segment already holds durable data; this
                    // empty successor is the torn tail.
                    return Ok(scan);
                }
                scan.last_segment = None;
                return Ok(scan);
            }
            return Err(corrupt(&path, 0, "bad magic (not a journal segment)"));
        }
        if bytes[..4] != SEGMENT_MAGIC {
            return Err(corrupt(&path, 0, "bad magic (not a journal segment)"));
        }
        if bytes[4] != JOURNAL_VERSION {
            return Err(corrupt(
                &path,
                4,
                format!("unsupported journal version {} (expected {JOURNAL_VERSION})", bytes[4]),
            ));
        }
        let mut pos = SEGMENT_HEADER_LEN as usize;
        scan.last_segment = Some(SegmentPos { index, valid_bytes: pos as u64 });
        loop {
            if pos == bytes.len() {
                break;
            }
            let tear = |reason: &str| Truncation {
                file: path.display().to_string(),
                offset: pos as u64,
                lost_bytes: remaining_bytes(dir, index, bytes.len() as u64, pos as u64),
                reason: reason.into(),
            };
            let Some(len_raw) = bytes.get(pos..pos + 4) else {
                scan.truncation = Some(tear("torn length prefix"));
                return Ok(scan);
            };
            let len = u32::from_le_bytes(len_raw.try_into().expect("4 bytes"));
            if !(MIN_RECORD_LEN..=MAX_RECORD_LEN).contains(&len) {
                scan.truncation = Some(tear("implausible record length"));
                return Ok(scan);
            }
            let body_start = pos + 4;
            let body_end = body_start + len as usize;
            let Some(body) = bytes.get(body_start..body_end) else {
                scan.truncation = Some(tear("torn record body"));
                return Ok(scan);
            };
            let Some(crc_raw) = bytes.get(body_end..body_end + 4) else {
                scan.truncation = Some(tear("torn record checksum"));
                return Ok(scan);
            };
            let stored = u32::from_le_bytes(crc_raw.try_into().expect("4 bytes"));
            if stored != crc32(body) {
                scan.truncation = Some(tear("CRC mismatch"));
                return Ok(scan);
            }
            let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
            if seq != expected_seq {
                scan.truncation = Some(tear("sequence discontinuity"));
                return Ok(scan);
            }
            let Some(record) = Record::decode(body[8], &body[9..]) else {
                scan.truncation = Some(tear("undecodable record"));
                return Ok(scan);
            };
            scan.records.push(SeqRecord { seq, record });
            expected_seq += 1;
            pos = body_end + 4;
            scan.next_seq = expected_seq;
            scan.last_segment = Some(SegmentPos { index, valid_bytes: pos as u64 });
        }
    }
    Ok(scan)
}

/// Bytes at and past a tear, including whole later segments — the
/// `lost_bytes` figure of a [`Truncation`].
fn remaining_bytes(dir: &Path, index: u64, segment_len: u64, offset: u64) -> u64 {
    let mut lost = segment_len - offset;
    for later in index + 1.. {
        let p = segment_path(dir, later);
        match std::fs::metadata(&p) {
            Ok(m) => lost += m.len(),
            Err(_) => break,
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::{Heap, HeapConfig};

    fn aux(tag: u8, bytes: &[u8]) -> Record {
        Record::Aux { tag, bytes: bytes.to_vec() }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rv-journal-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_binding() -> Binding {
        let mut heap = Heap::new(HeapConfig::manual());
        let c = heap.register_class("Obj");
        let _f = heap.enter_frame();
        let a = heap.alloc(c);
        let b = heap.alloc(c);
        Binding::from_pairs(&[(ParamId(0), a), (ParamId(2), b)])
    }

    fn sample_records() -> Vec<Record> {
        let b = sample_binding();
        vec![
            aux(AUX_SPEC, b"spec text"),
            aux(AUX_SLINE, b"\x01\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0create c i"),
            Record::Trigger {
                event_seq: 1,
                ordinal: 0,
                block: 0,
                step: 7,
                verdict: Verdict::Match,
                binding: b,
            },
            aux(AUX_OBJ, b"\x01\0\0\0\0\0\0\0i"),
            Record::CheckpointMark { generation: 1, seq: 4 },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_payload_codec() {
        for rec in sample_records() {
            let mut payload = Vec::new();
            rec.encode_payload(&mut payload);
            let back = Record::decode(rec.kind(), &payload).expect("decodes");
            assert_eq!(back, rec);
        }
        assert!(Record::decode(99, &[]).is_none(), "unknown kind");
        assert!(Record::decode(4, &[1, 2]).is_none(), "short checkpoint mark");
        let mut payload = Vec::new();
        sample_records()[2].encode_payload(&mut payload);
        payload.push(0);
        assert!(Record::decode(2, &payload).is_none(), "trailing garbage");
        // Kinds 1 (`Event`) and 3 (`Degradation`) were retired with
        // version 3: their old payloads decode as nothing.
        assert!(Record::decode(1, &[0, 0, 0]).is_none(), "retired Event kind");
        assert!(Record::decode(3, &[0, 0, 2, 1]).is_none(), "retired Degradation kind");
    }

    #[test]
    fn write_scan_round_trip_preserves_order_and_seq() {
        let dir = temp_dir("roundtrip");
        let mut w = JournalWriter::create(&dir).unwrap();
        let recs = sample_records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(w.append(r).unwrap(), i as u64);
        }
        w.sync().unwrap();
        assert_eq!(w.stats().records, recs.len() as u64);
        let scan = read_journal(&dir).unwrap();
        assert!(scan.truncation.is_none());
        assert_eq!(scan.next_seq, recs.len() as u64);
        let got: Vec<Record> = scan.records.iter().map(|r| r.record.clone()).collect();
        assert_eq!(got, recs);
        assert_eq!(scan.trigger_high_water_mark(), Some((1, 0)));
        let mark = Record::CheckpointMark { generation: 1, seq: 4 };
        assert_eq!(scan.records.last().map(|r| &r.record), Some(&mark));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = temp_dir("rotate");
        let mut w = JournalWriter::create_with(&dir, 96).unwrap();
        for _ in 0..32 {
            w.append(&Record::Aux { tag: AUX_GC_CYCLE, bytes: vec![0; 16] }).unwrap();
        }
        w.sync().unwrap();
        assert!(w.stats().rotations > 0, "segment limit must force rotation");
        assert!(segment_path(&dir, 1).exists());
        let scan = read_journal(&dir).unwrap();
        assert_eq!(scan.records.len(), 32);
        assert!(scan.segments > 1);
        assert!(scan.truncation.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_cut_at_the_last_durable_record() {
        let dir = temp_dir("torn");
        let mut w = JournalWriter::create(&dir).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();
        // Cut at every byte boundary: the scan must never fail, and must
        // recover a monotone prefix of the records.
        let mut last_count = 0usize;
        for cut in (SEGMENT_HEADER_LEN as usize..full.len()).rev() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_journal(&dir).unwrap();
            assert!(scan.records.len() <= 5);
            last_count = last_count.max(scan.records.len());
            // A cut exactly on a record boundary is indistinguishable from
            // a clean shutdown; everywhere else the torn tail must be
            // reported.
            let on_boundary =
                scan.last_segment.as_ref().is_some_and(|s| s.valid_bytes == cut as u64);
            assert!(
                scan.truncation.is_some() || on_boundary,
                "cut at {cut} must report truncation"
            );
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_are_caught_by_the_crc() {
        let dir = temp_dir("flip");
        let mut w = JournalWriter::create(&dir).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();
        for target in [SEGMENT_HEADER_LEN as usize + 6, full.len() - 3, full.len() / 2] {
            let mut flipped = full.clone();
            flipped[target] ^= 0x40;
            std::fs::write(&path, &flipped).unwrap();
            let scan = read_journal(&dir).unwrap();
            assert!(
                scan.records.len() < 5 || scan.truncation.is_some(),
                "a flipped byte at {target} must not survive"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_stale_version_are_typed_errors() {
        let dir = temp_dir("header");
        std::fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0);
        std::fs::write(&path, b"NOPE\x01data").unwrap();
        match read_journal(&dir) {
            Err(EngineError::CorruptJournal { detail, .. }) => {
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        // Version 0 never existed; 1 and 2 carried pre-bound `Event`
        // records, which no reader of this version decodes.
        for version in [0u8, 1, 2] {
            std::fs::write(&path, [b'R', b'V', b'J', b'L', version]).unwrap();
            match read_journal(&dir) {
                Err(EngineError::CorruptJournal { offset, detail, .. }) => {
                    assert_eq!(offset, 4);
                    assert!(detail.contains(&format!("version {version}")), "{detail}");
                }
                other => panic!("version {version}: expected CorruptJournal, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_headerless_journals_scan_as_empty() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let scan = read_journal(&dir).unwrap();
        assert!(scan.records.is_empty() && scan.segments == 0);
        // A 0-byte segment is a crash before the header flushed.
        std::fs::write(segment_path(&dir, 0), b"").unwrap();
        let scan = read_journal(&dir).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.truncation.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A zero-sleep policy so chaos tests don't spend wall-clock backing
    /// off between injected faults.
    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts, backoff: Duration::ZERO, backoff_cap: Duration::ZERO }
    }

    #[test]
    fn transient_faults_with_torn_frames_leave_the_journal_byte_identical() {
        let clean_dir = temp_dir("chaos-clean");
        let fault_dir = temp_dir("chaos-fault");
        let recs: Vec<Record> = (0..64).flat_map(|_| sample_records()).collect();

        let mut clean = JournalWriter::create(&clean_dir).unwrap();
        for r in &recs {
            clean.append(r).unwrap();
        }
        clean.sync().unwrap();

        let mut faulty = JournalWriter::create(&fault_dir).unwrap();
        // ~30% of attempts fail, each tearing up to 64 frame bytes into
        // the sink first — repair + retry must erase every trace.
        faulty.set_fault(FailingWriter::new(0xC0FFEE, 300).with_partial(64));
        for (i, r) in recs.iter().enumerate() {
            let seq = faulty.append_retry(r, &fast_retry(50)).unwrap();
            assert_eq!(seq, i as u64, "retries must not burn sequence numbers");
        }
        faulty.sync().unwrap();
        assert!(faulty.fault().unwrap().injected() > 0, "chaos plan never fired");
        assert!(faulty.stats().retries > 0, "retries must be counted");

        let clean_bytes = std::fs::read(segment_path(&clean_dir, 0)).unwrap();
        let fault_bytes = std::fs::read(segment_path(&fault_dir, 0)).unwrap();
        assert_eq!(clean_bytes, fault_bytes, "fault-free and repaired journals must match");
        let scan = read_journal(&fault_dir).unwrap();
        assert!(scan.truncation.is_none());
        assert_eq!(scan.records.len(), recs.len());
        std::fs::remove_dir_all(&clean_dir).unwrap();
        std::fs::remove_dir_all(&fault_dir).unwrap();
    }

    #[test]
    fn persistent_faults_surface_a_typed_journal_error() {
        let dir = temp_dir("chaos-hard");
        let mut w = JournalWriter::create(&dir).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        // Every attempt from here on fails with a non-transient kind:
        // the first failure must be terminal (no useless retries).
        w.set_fault(FailingWriter::new(7, 0).with_hard_fail_after(0).with_partial(8));
        let rec = aux(AUX_SPEC, b"");
        match w.append_retry(&rec, &fast_retry(5)) {
            Err(EngineError::Journal { file, attempts, detail }) => {
                assert_eq!(attempts, 1, "non-transient failures must not retry");
                assert!(file.contains("journal-00000000"), "{file}");
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected EngineError::Journal, got {other:?}"),
        }
        w.sync().unwrap();
        // The durable prefix survives intact despite the torn attempt.
        let scan = read_journal(&dir).unwrap();
        assert!(scan.truncation.is_none(), "{:?}", scan.truncation);
        assert_eq!(scan.records.len(), sample_records().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_transient_retries_report_the_attempt_count() {
        let dir = temp_dir("chaos-exhaust");
        let mut w = JournalWriter::create(&dir).unwrap();
        // 100% transient failure rate: every attempt fails, so a
        // 4-attempt policy must give up with attempts == 4.
        w.set_fault(FailingWriter::new(11, 1000));
        let rec = aux(AUX_SPEC, b"");
        match w.append_retry(&rec, &fast_retry(4)) {
            Err(EngineError::Journal { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected EngineError::Journal, got {other:?}"),
        }
        assert_eq!(w.stats().retries, 3, "three of the four attempts were retries");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_clears_an_earlier_run_and_checkpoints_count_from_zero() {
        let dir = temp_dir("reuse");
        let mut w = JournalWriter::create_with(&dir, 96).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
            w.checkpoint(b"state", &RetryPolicy::none()).unwrap();
        }
        drop(w);
        assert!(segment_path(&dir, 1).exists() && list_checkpoints(&dir).len() > 1);
        std::fs::write(dir.join("options"), b"kept").unwrap();

        let mut w = JournalWriter::create(&dir).unwrap();
        let entries = |dir: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(entries(&dir), ["journal-00000000", "options"]);
        w.append(&aux(AUX_SPEC, b"")).unwrap();
        w.checkpoint(b"state", &RetryPolicy::none()).unwrap();
        assert_eq!(list_checkpoints(&dir), [0]);
        assert_eq!(w.stats().syncs, 1, "the appended record is synced before the checkpoint");
        drop(w);

        let scan = read_journal(&dir).unwrap();
        let mark = Record::CheckpointMark { generation: 0, seq: 1 };
        assert_eq!(scan.records.last().map(|r| &r.record), Some(&mark));
        let mut w = JournalWriter::resume(&dir, &scan).unwrap();
        w.checkpoint(b"state", &RetryPolicy::none()).unwrap();
        assert_eq!(w.stats().syncs, 0, "nothing appended since the resume, nothing to sync");
        assert_eq!(list_checkpoints(&dir), [0, 1], "resume continues after the newest checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_the_tail_and_continues_the_sequence() {
        let dir = temp_dir("resume");
        let mut w = JournalWriter::create(&dir).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let scan = read_journal(&dir).unwrap();
        assert_eq!(scan.records.len(), 4, "last record torn");
        let mut w = JournalWriter::resume(&dir, &scan).unwrap();
        assert_eq!(w.next_seq(), 4);
        w.append(&aux(AUX_SPEC, b"")).unwrap();
        w.sync().unwrap();
        let rescan = read_journal(&dir).unwrap();
        assert!(rescan.truncation.is_none(), "tail was repaired");
        assert_eq!(rescan.records.len(), 5);
        assert_eq!(rescan.records[4].seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
