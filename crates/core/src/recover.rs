//! The journal replayer: the one path from a journal directory back to a
//! running monitor.
//!
//! [`recover`] runs on top of [`plan_recovery`]: it restores the newest
//! usable checkpoint and re-executes the durable record prefix. The paper's
//! lazy monitor GC flags a monitor only when a weak key's object dies, so
//! the rebuilt heap must reproduce every object death in journal order.
//! The replayer therefore rebuilds the heap from sequence 0 whatever the
//! checkpoint covers, and checks that allocation reproduces every journaled
//! `ObjId`. Engine effects (events and sweeps) apply only from the
//! checkpoint's covered sequence on. Along the way it also
//!
//! * decodes the `AUX_OBJ` name table and applies every `AUX_SLINE`
//!   through [`line::apply`], the function the journal writer applied it
//!   with, and restores per-session `cseq` high-water marks from
//!   `AUX_SLINE` and `AUX_FATAL`; every object a line mentions must have
//!   been named by an earlier `AUX_OBJ`;
//! * follows the spec lineage: the `AUX_SPEC` at sequence 0, then one
//!   fresh engine per `AUX_RELOAD` cutover;
//! * classifies every goal report replay fires: at or below the durable
//!   trigger high-water mark it was delivered before the crash
//!   (suppressed); past it, it is a refired first-time delivery.
//!
//! Replay is exact: the restored engine meets the same heap states the
//! journaling engine met, so it discovers dead keys lazily where that
//! engine did, and E/M/FM/CM match an uninterrupted run. Recovery is
//! lazy only: no pass re-flags monitors against the rebuilt heap, since
//! judging every binding by every death the heap holds would flag
//! monitors the lazy path collects unflagged and inflate FM. Replay ends
//! with `check_invariants`.
//! `rvmond`'s tenant recovery, `rvmon recover`/`replay`/`top`, the crash
//! harness and the recovery bench all run this one function; `rvmond`
//! calls its two halves, `plan` and `replay`, so it can check the
//! tenant's spec (`tail_spec`) before paying for replay.
//!
//! [`plan_recovery`]: crate::snapshot::plan_recovery
//! [`line::apply`]: crate::line::apply

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use rv_heap::{Heap, HeapConfig, ObjId};
use rv_spec::CompiledSpec;

use crate::engine::EngineConfig;
use crate::journal::{
    read_journal, JournalScan, Record, SeqRecord, AUX_FATAL, AUX_OBJ, AUX_RELOAD, AUX_SLINE,
    AUX_SPEC,
};
use crate::line::{apply, parse, ApplyError, Effect, Line, LineError, ObjectTable};
use crate::multi::PropertyMonitor;
use crate::obs::EngineObserver;
use crate::service::TriggerRecord;
use crate::snapshot::{plan_recovery, Checkpoint, Recovery};

/// Where engine replay starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayFrom {
    /// Restore the newest usable checkpoint and replay the suffix past it
    /// (crash recovery).
    LatestCheckpoint,
    /// Ignore checkpoints and re-execute every record (audit replay).
    Start,
}

/// Why a journal directory could not be recovered.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoverError {
    /// A journaled spec (the creation `AUX_SPEC` or an `AUX_RELOAD`) no
    /// longer compiles.
    Spec(String),
    /// The journal head is unusable, a record is inconsistent, or the
    /// recovered state fails to restore or to pass `check_invariants`.
    Journal(String),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Spec(msg) | RecoverError::Journal(msg) => f.write_str(msg),
        }
    }
}

fn reject<T>(msg: String) -> Result<T, RecoverError> {
    Err(RecoverError::Journal(msg))
}

/// Cumulative engine counters carried across hot reloads (and, via the
/// `AUX_RELOAD` journal payload, across daemon restarts): a reload folds
/// the outgoing engine's totals into this base so the tenant's public
/// counters stay monotonic while the engine itself starts fresh.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct BaseCounters {
    /// Events processed by pre-reload engines.
    pub events: u64,
    /// Goal reports fired by pre-reload engines.
    pub triggers: u64,
    /// Monitors quarantined by pre-reload engines.
    pub quarantined: u64,
    /// Budget trips of pre-reload engines.
    pub budget_trips: u64,
    /// Degradation transitions of pre-reload engines.
    pub degradations: u64,
    /// Events shed by pre-reload engines.
    pub shed: u64,
}

impl BaseCounters {
    /// `AUX_RELOAD` payload: `[token][6 × u64 counters][spec source]`.
    pub(crate) fn encode_reload(self, token: u64, source: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(56 + source.len());
        for v in [
            token,
            self.events,
            self.triggers,
            self.quarantined,
            self.budget_trips,
            self.degradations,
            self.shed,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(source.as_bytes());
        out
    }

    fn decode_reload(bytes: &[u8]) -> Option<(u64, BaseCounters, String)> {
        if bytes.len() < 56 {
            return None;
        }
        let u = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let base = BaseCounters {
            events: u(1),
            triggers: u(2),
            quarantined: u(3),
            budget_trips: u(4),
            degradations: u(5),
            shed: u(6),
        };
        Some((u(0), base, String::from_utf8(bytes[56..].to_vec()).ok()?))
    }
}

/// A journal directory replayed back into a running monitor.
pub struct Recovered<O: EngineObserver> {
    /// The plan replay followed: the durable journal scan, the checkpoint
    /// restored (if any), and the checkpoints skipped.
    pub plan: Recovery,
    /// The monitor for the spec in force at the journal tail.
    pub monitor: PropertyMonitor<O>,
    /// The rebuilt heap.
    pub heap: Heap,
    /// Every journaled object, with the client-visible names from
    /// `AUX_OBJ` records and which objects were freed.
    pub objects: ObjectTable,
    /// Per-session `cseq` high-water marks.
    pub sessions: HashMap<u64, u64>,
    /// The spec source in force at the journal tail.
    pub spec_source: String,
    /// 1 plus the number of `AUX_RELOAD` cutovers.
    pub spec_version: u64,
    /// The token of the last reload (0 if none).
    pub reload_token: u64,
    /// Counters folded in from pre-reload engines.
    pub base: BaseCounters,
    /// Events dispatched to the engine during replay.
    pub events: u64,
    /// Every goal report replay fired, in `(event_seq, ordinal)` order.
    pub fired: Vec<TriggerRecord>,
    /// How many leading entries of `fired` sit at or below the durable
    /// trigger high-water mark: delivered before the crash.
    pub suppressed: usize,
}

impl<O: EngineObserver> Recovered<O> {
    /// Reports replay fired past the durable high-water mark: first-time
    /// deliveries the crash tore from the journal.
    #[must_use]
    pub fn refired(&self) -> &[TriggerRecord] {
        &self.fired[self.suppressed..]
    }
}

/// Replays the journal in `dir` into a monitor built by `observers`
/// (called with the block index, once per block of every engine built).
/// `config.record_triggers` is forced on: replay classifies every report.
///
/// # Errors
///
/// [`RecoverError::Spec`] when a journaled spec no longer compiles.
/// [`RecoverError::Journal`], naming the offending record, when the
/// journal head is unusable, carries no spec, or is inconsistent: a
/// rebuilt `ObjId` that diverges from the journaled one, an unknown
/// object, a truncated `AUX_OBJ`/`AUX_SLINE`/`AUX_FATAL`, a malformed
/// `AUX_RELOAD`, an unknown event, an arity mismatch, or a free of a
/// never-allocated or already freed object; also when the checkpoint
/// fails to restore or the recovered state fails `check_invariants`.
pub fn recover<O: EngineObserver>(
    dir: &Path,
    from: ReplayFrom,
    config: &EngineConfig,
    observers: impl FnMut(usize) -> O,
) -> Result<Recovered<O>, RecoverError> {
    replay(plan(dir, from)?, config, observers)
}

/// The first half of [`recover`]: reads the durable journal in `dir`
/// and, for [`ReplayFrom::LatestCheckpoint`], picks the checkpoint to
/// restore. Fails with [`RecoverError::Journal`] when the journal head is
/// unusable.
pub(crate) fn plan(dir: &Path, from: ReplayFrom) -> Result<Recovery, RecoverError> {
    match from {
        ReplayFrom::LatestCheckpoint => plan_recovery(dir),
        ReplayFrom::Start => read_journal(dir).map(|scan| Recovery {
            scan,
            checkpoint: None,
            skipped_checkpoints: Vec::new(),
        }),
    }
    .map_err(|e| RecoverError::Journal(e.to_string()))
}

/// The spec source in force at the journal tail: the last `AUX_RELOAD`'s,
/// else the `AUX_SPEC` at sequence 0. Cheap: it decodes no other record.
/// Fails with [`RecoverError::Journal`] when the journal is empty, does
/// not begin with a spec record, or its last `AUX_RELOAD` is malformed.
pub(crate) fn tail_spec(scan: &JournalScan) -> Result<String, RecoverError> {
    for sr in scan.records.iter().rev() {
        if let Record::Aux { tag: AUX_RELOAD, bytes } = &sr.record {
            return reload_of(sr.seq, bytes).map(|(_, _, source)| source);
        }
    }
    head_spec(scan)
}

fn head_spec(scan: &JournalScan) -> Result<String, RecoverError> {
    let Some(first) = scan.records.first() else {
        return reject("journal holds no durable records".to_owned());
    };
    let Record::Aux { tag: AUX_SPEC, bytes } = &first.record else {
        return reject("journal does not begin with a spec record".to_owned());
    };
    String::from_utf8(bytes.clone())
        .map_err(|_| RecoverError::Journal("spec record is not valid UTF-8".to_owned()))
}

fn reload_of(seq: u64, bytes: &[u8]) -> Result<(u64, BaseCounters, String), RecoverError> {
    BaseCounters::decode_reload(bytes)
        .ok_or_else(|| RecoverError::Journal(format!("journal record {seq}: malformed AUX_RELOAD")))
}

/// The second half of [`recover`]: restores the plan's checkpoint and
/// re-executes its durable records. Errors as [`recover`]'s.
pub(crate) fn replay<O: EngineObserver>(
    mut plan: Recovery,
    config: &EngineConfig,
    mut observers: impl FnMut(usize) -> O,
) -> Result<Recovered<O>, RecoverError> {
    let source = head_spec(&plan.scan)?;
    let spec = compile(plan.scan.records[0].seq, &source)?;
    let config = EngineConfig { record_triggers: true, ..config.clone() };
    let mut heap = Heap::new(HeapConfig::manual());
    let objects = ObjectTable::new(&mut heap);
    // Replay walks the records and restores the checkpoint while it
    // builds the result that owns them; both go back in at the end.
    let (hwm, replay_from) = (plan.scan.trigger_high_water_mark(), plan.replay_from());
    let records = std::mem::take(&mut plan.scan.records);
    let checkpoint = plan.checkpoint.take();
    let mut replay = Replay {
        replay_from,
        current: checkpoint.is_none(),
        checkpoint: checkpoint.as_ref(),
        hwm,
        rec: Recovered {
            monitor: PropertyMonitor::with_observers(spec, &config, &mut observers),
            plan,
            heap,
            objects,
            sessions: HashMap::new(),
            spec_source: source,
            spec_version: 1,
            reload_token: 0,
            base: BaseCounters::default(),
            events: 0,
            fired: Vec::new(),
            suppressed: 0,
        },
        config,
        observers,
    };
    for sr in &records[1..] {
        replay.apply(sr)?;
    }
    make_current(&mut replay.rec.monitor, replay.checkpoint, &mut replay.current)?;
    let mut rec = replay.rec;
    rec.monitor.check_invariants(&rec.heap).map_err(|e| RecoverError::Journal(e.to_string()))?;
    rec.plan.scan.records = records;
    rec.plan.checkpoint = checkpoint;
    Ok(rec)
}

fn compile(seq: u64, source: &str) -> Result<CompiledSpec, RecoverError> {
    CompiledSpec::from_source(source).map_err(|d| {
        RecoverError::Spec(format!(
            "journal record {seq}: journaled spec no longer compiles: {}",
            d.message
        ))
    })
}

/// Replay state between records: the recovery built so far, and what
/// continuing it needs.
struct Replay<'a, O: EngineObserver, F> {
    rec: Recovered<O>,
    config: EngineConfig,
    observers: F,
    checkpoint: Option<&'a Checkpoint>,
    replay_from: u64,
    hwm: Option<(u64, u32)>,
    /// Whether `rec.monitor` holds the engine state at the current
    /// record: false until the checkpoint is restored, or a cutover at
    /// or past it starts a fresh engine.
    current: bool,
}

impl<O: EngineObserver, F: FnMut(usize) -> O> Replay<'_, O, F> {
    fn apply(&mut self, sr: &SeqRecord) -> Result<(), RecoverError> {
        let seq = sr.seq;
        match &sr.record {
            Record::Aux { tag: AUX_OBJ, bytes } => {
                let Some(bits) =
                    bytes.get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                else {
                    return reject(format!("journal record {seq}: truncated AUX_OBJ"));
                };
                let obj = ObjId::from_bits(bits);
                if !self.rec.objects.contains(obj) {
                    let fresh = self.rec.objects.alloc(&mut self.rec.heap);
                    if fresh != obj {
                        return reject(format!(
                            "heap replay diverged at record {seq}: journal names object \
                             {bits:#x} but the rebuilt heap allocated {:#x}",
                            fresh.to_bits()
                        ));
                    }
                }
                self.rec.objects.name(&String::from_utf8_lossy(&bytes[8..]), obj);
                Ok(())
            }
            Record::Aux { tag: AUX_SLINE, bytes } => {
                let (session, cseq) = session_key(seq, bytes, "AUX_SLINE")?;
                self.note_session(session, cseq);
                self.line(seq, &String::from_utf8_lossy(&bytes[16..]))
            }
            Record::Aux { tag: AUX_FATAL, bytes } => {
                // The dedup mark of a `!fatal` that already killed one
                // incarnation: advancing the HWM here is what turns the
                // client's resend into a no-op instead of a kill loop.
                let (session, cseq) = session_key(seq, bytes, "AUX_FATAL")?;
                self.note_session(session, cseq);
                Ok(())
            }
            Record::Aux { tag: AUX_RELOAD, bytes } => {
                let (token, base, source) = reload_of(seq, bytes)?;
                let spec = compile(seq, &source)?;
                self.rec.spec_source = source;
                self.rec.spec_version += 1;
                self.rec.reload_token = token;
                self.rec.base = base;
                // Every cutover starts a fresh engine; one at or past the
                // checkpoint replaces whatever engine state came before it.
                self.rec.monitor =
                    PropertyMonitor::with_observers(spec, &self.config, &mut self.observers);
                self.current |= seq >= self.replay_from;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// One session-stamped trace line, applied as the writer applied it:
    /// every object it mentions must already be named, and its engine
    /// side runs only at or past the checkpoint.
    fn line(&mut self, seq: u64, raw: &str) -> Result<(), RecoverError> {
        let rec = &mut self.rec;
        let Some(line) = parse(raw, rec.monitor.spec()).map_err(|e| line_error(seq, &e))? else {
            return Ok(());
        };
        let (replay_from, checkpoint, current) =
            (self.replay_from, self.checkpoint, &mut self.current);
        let commit =
            |monitor: &mut PropertyMonitor<O>, effect: &Effect, fresh: &[(ObjId, &str)]| {
                if let Some((_, name)) = fresh.first() {
                    return reject(format!(
                        "journal record {seq} references `{name}` with no AUX_OBJ record"
                    ));
                }
                if seq < replay_from || *effect == Effect::Heap {
                    return Ok(None);
                }
                make_current(monitor, checkpoint, current)?;
                Ok(Some(seq))
            };
        let applied = apply(&line, &mut rec.heap, &mut rec.objects, &mut rec.monitor, commit)
            .map_err(|e| match e {
                ApplyError::Line(e) => line_error(seq, &e),
                ApplyError::Commit(e) => e,
                ApplyError::Engine(e) => {
                    RecoverError::Journal(format!("engine error at record {seq}: {e}"))
                }
            })?;
        if matches!(line, Line::Event(..)) && seq >= replay_from {
            rec.events += 1;
        }
        rec.suppressed +=
            applied.fired.iter().filter(|t| self.hwm.is_some_and(|h| t.key() <= h)).count();
        rec.fired.extend(applied.fired);
        Ok(())
    }

    fn note_session(&mut self, session: u64, cseq: u64) {
        let hwm = self.rec.sessions.entry(session).or_insert(0);
        *hwm = (*hwm).max(cseq);
    }
}

/// Restores the checkpoint into the (still fresh) monitor of the spec in
/// force, at the first engine effect past it.
fn make_current<O: EngineObserver>(
    monitor: &mut PropertyMonitor<O>,
    checkpoint: Option<&Checkpoint>,
    current: &mut bool,
) -> Result<(), RecoverError> {
    if let (false, Some(cp)) = (*current, checkpoint) {
        monitor
            .restore_snapshot(&cp.payload, &cp.file)
            .map_err(|e| RecoverError::Journal(e.to_string()))?;
    }
    *current = true;
    Ok(())
}

fn line_error(seq: u64, e: &LineError) -> RecoverError {
    RecoverError::Journal(format!("journal record {seq}: {e}"))
}

/// Decodes the `(session, cseq)` prefix of an `AUX_SLINE`/`AUX_FATAL`.
fn session_key(seq: u64, bytes: &[u8], tag: &str) -> Result<(u64, u64), RecoverError> {
    if bytes.len() < 16 {
        return reject(format!("journal record {seq}: truncated {tag}"));
    }
    let u = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    Ok((u(0), u(8)))
}
