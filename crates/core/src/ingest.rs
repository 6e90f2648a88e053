//! The journal writer: the one place a journal record is made.
//!
//! A [`JournaledMonitor`] owns a spec's monitor, the heap its trace lines
//! name objects on, the [`ObjectTable`] and the [`JournalWriter`] in front
//! of them, and decides everything a journal says:
//!
//! * the record grammar: `AUX_SPEC` at sequence 0; per trace line the
//!   `AUX_OBJ` of every object it mentions first, one `AUX_SLINE`, then
//!   an `AUX_GC_CYCLE` per heap collection or block swept and a `Trigger`
//!   per report; `CheckpointMark`s; the `AUX_FATAL` and `AUX_RELOAD`
//!   marks;
//! * first-mention naming, through [`line::apply`], the function the
//!   replayer applies every journaled line with;
//! * the per-session dedup and gap rules;
//! * trigger keys: a line's reports are keyed by its `AUX_SLINE`
//!   sequence;
//! * checkpoint cadence: one every `checkpoint_every` events.
//!
//! `rvmond`'s tenant workers, `rvmon run --journal`, the crash harness
//! and the recovery bench all journal through it, so the journal the
//! replayer ([`recover`](crate::recover)) reads is the one shipped code
//! writes.
//!
//! [`line::apply`]: crate::line::apply

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::time::Instant;

use rv_heap::{Heap, HeapConfig, ObjId};
use rv_spec::CompiledSpec;

use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::journal::{
    JournalStats, JournalWriter, Record, RetryPolicy, AUX_FATAL, AUX_GC_CYCLE, AUX_OBJ, AUX_RELOAD,
    AUX_SLINE, AUX_SPEC,
};
use crate::line::{apply, parse, ApplyError, Effect, Line, LineError, ObjectTable};
use crate::multi::PropertyMonitor;
use crate::obs::{GcCycleRecord, NoopObserver};
use crate::recover::{self, BaseCounters, RecoverError};
use crate::service::TriggerRecord;
use crate::snapshot::Recovery;

/// Events between checkpoints unless the caller sets another cadence.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

/// Why the writer cannot go on: the journal could not be written, or the
/// engine failed on an event.
#[derive(Debug)]
pub enum WriteError {
    /// A journal append, sync or checkpoint failed.
    Journal(String),
    /// The engine failed on an event.
    Engine(EngineError),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::Journal(msg) => f.write_str(msg),
            WriteError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

/// What [`JournaledMonitor::process_line`] did with a line.
#[derive(Debug)]
pub enum Ingest {
    /// Journaled and applied.
    Applied(Ingested),
    /// Blank or comment only: the session mark advanced, nothing was
    /// journaled.
    Blank,
    /// At or below the session's high-water mark: dropped unjournaled.
    Duplicate,
    /// Past a gap in the session's sequence: dropped unjournaled, and the
    /// mark stays, so the resend of the missing line is not deduped.
    Gap,
    /// Rejected: the session mark advanced, nothing was journaled or
    /// changed.
    Bad(LineError),
}

/// A journaled line's results, and where its time went.
#[derive(Clone, Debug, Default)]
pub struct Ingested {
    /// Journal sequence of the line's `AUX_SLINE` (or `AUX_FATAL`).
    pub seq: u64,
    /// The reports the line fired.
    pub fired: Vec<TriggerRecord>,
    /// The GC cycles the line ran.
    pub cycles: Vec<GcCycleRecord>,
    /// Nanoseconds appending the line's `AUX_OBJ`, `AUX_SLINE` and
    /// `AUX_GC_CYCLE` records.
    pub append_ns: u64,
    /// Nanoseconds in the line's heap and engine sides.
    pub engine_ns: u64,
    /// Nanoseconds appending the line's `Trigger` records.
    pub trigger_ns: u64,
}

/// What [`JournaledMonitor::resume`] replayed.
pub struct Replayed {
    /// The durable journal and the checkpoint replay restored.
    pub plan: Recovery,
    /// Events replayed into the engine.
    pub events: u64,
    /// Every report replay fired, in key order.
    pub fired: Vec<TriggerRecord>,
    /// How many leading `fired` entries were delivered before the crash.
    pub suppressed: usize,
}

impl Replayed {
    /// Reports replay fired past the durable high-water mark: first-time
    /// deliveries, now journaled.
    #[must_use]
    pub fn refired(&self) -> &[TriggerRecord] {
        &self.fired[self.suppressed..]
    }
}

/// A monitor whose every input and report is written ahead to a journal.
pub struct JournaledMonitor {
    monitor: PropertyMonitor,
    heap: Heap,
    objects: ObjectTable,
    journal: JournalWriter,
    retry: RetryPolicy,
    config: EngineConfig,
    /// Per-session `cseq` high-water marks.
    sessions: HashMap<u64, u64>,
    checkpoint_every: u64,
    since_checkpoint: u64,
    checkpoints: u64,
    spec_source: String,
    base: BaseCounters,
    spec_version: u64,
    reload_token: u64,
    on_fsync: Option<Box<dyn FnMut(u64)>>,
}

impl fmt::Debug for JournaledMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournaledMonitor")
            .field("journal", &self.journal)
            .field("spec_version", &self.spec_version)
            .finish_non_exhaustive()
    }
}

fn span_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn append(journal: &mut JournalWriter, retry: &RetryPolicy, r: &Record) -> Result<u64, WriteError> {
    journal.append_retry(r, retry).map_err(|e| WriteError::Journal(e.to_string()))
}

/// `[session][cseq][text]`: an `AUX_SLINE` payload, or with empty text
/// an `AUX_FATAL` one.
fn session_key(session: u64, cseq: u64, text: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16 + text.len());
    bytes.extend_from_slice(&session.to_le_bytes());
    bytes.extend_from_slice(&cseq.to_le_bytes());
    bytes.extend_from_slice(text.as_bytes());
    bytes
}

impl JournaledMonitor {
    /// Starts a fresh journal for `spec` (compiled from `source`) in
    /// `dir`, deleting the segments and checkpoints an earlier run left
    /// there. Segments rotate past `segment_bytes`.
    ///
    /// # Errors
    ///
    /// [`WriteError::Journal`] when the journal cannot be created or its
    /// spec record written.
    pub fn create(
        dir: &Path,
        source: &str,
        spec: CompiledSpec,
        config: &EngineConfig,
        retry: RetryPolicy,
        segment_bytes: u64,
    ) -> Result<JournaledMonitor, WriteError> {
        let io = |e: std::io::Error| WriteError::Journal(format!("cannot create journal: {e}"));
        let journal = JournalWriter::create_with(dir, segment_bytes).map_err(io)?;
        let config = EngineConfig { record_triggers: true, ..config.clone() };
        let mut heap = Heap::new(HeapConfig::manual());
        let objects = ObjectTable::new(&mut heap);
        let mut w = JournaledMonitor {
            monitor: PropertyMonitor::new(spec, &config),
            heap,
            objects,
            journal,
            retry,
            config,
            sessions: HashMap::new(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            since_checkpoint: 0,
            checkpoints: 0,
            spec_source: source.to_owned(),
            base: BaseCounters::default(),
            spec_version: 1,
            reload_token: 0,
            on_fsync: None,
        };
        w.append(&Record::Aux { tag: AUX_SPEC, bytes: source.as_bytes().to_vec() })?;
        // The spec reaches the OS at once: a directory whose journal
        // holds no spec is not a journal.
        w.journal.flush().map_err(io)?;
        Ok(w)
    }

    /// Replays the journal in `dir` as `plan` describes, repairs its torn
    /// tail, and continues it: the reports replay fired past the durable
    /// high-water mark are journaled (and synced), so the next recovery
    /// suppresses them.
    ///
    /// # Errors
    ///
    /// As [`recover::recover`]; IO errors reopening the journal or
    /// appending the refired reports are [`RecoverError::Journal`].
    pub fn resume(
        dir: &Path,
        plan: Recovery,
        config: &EngineConfig,
        retry: RetryPolicy,
    ) -> Result<(JournaledMonitor, Replayed), RecoverError> {
        let config = EngineConfig { record_triggers: true, ..config.clone() };
        let rec = recover::replay(plan, &config, |_| NoopObserver)?;
        let failed = |e: &dyn fmt::Display| RecoverError::Journal(e.to_string());
        let mut journal = JournalWriter::resume(dir, &rec.plan.scan).map_err(|e| failed(&e))?;
        for t in rec.refired() {
            journal.append_retry(&t.to_record(), &retry).map_err(|e| failed(&e))?;
        }
        if !rec.refired().is_empty() {
            journal.sync().map_err(|e| failed(&e))?;
        }
        let recover::Recovered {
            plan,
            monitor,
            heap,
            objects,
            sessions,
            spec_source,
            spec_version,
            reload_token,
            base,
            events,
            fired,
            suppressed,
        } = rec;
        let w = JournaledMonitor {
            monitor,
            heap,
            objects,
            journal,
            retry,
            config,
            sessions,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            since_checkpoint: 0,
            checkpoints: 0,
            spec_source,
            base,
            spec_version,
            reload_token,
            on_fsync: None,
        };
        Ok((w, Replayed { plan, events, fired, suppressed }))
    }

    /// Checkpoints every `n` events (at least 1) from now on.
    pub fn set_checkpoint_every(&mut self, n: u64) {
        self.checkpoint_every = n.max(1);
    }

    /// Hands every journal fsync's duration in nanoseconds to `hook`.
    pub fn on_fsync(&mut self, hook: impl FnMut(u64) + 'static) {
        self.on_fsync = Some(Box::new(hook));
    }

    fn append(&mut self, r: &Record) -> Result<u64, WriteError> {
        append(&mut self.journal, &self.retry, r)
    }

    fn note_session(&mut self, session: u64, cseq: u64) {
        let hwm = self.sessions.entry(session).or_insert(0);
        *hwm = (*hwm).max(cseq);
    }

    /// The drop outcome for a `(session, cseq)` this writer must not
    /// apply: at or below the session's mark, or past a gap after it.
    fn admit(&self, session: u64, cseq: u64) -> Option<Ingest> {
        let hwm = self.hwm(session);
        if cseq <= hwm {
            Some(Ingest::Duplicate)
        } else if cseq > hwm + 1 {
            Some(Ingest::Gap)
        } else {
            None
        }
    }

    /// Journals and applies one trace line of `session`, numbered `cseq`
    /// within it (from 1).
    ///
    /// A `cseq` at or below the session's high-water mark is a resend
    /// and is dropped before journaling, so the journal, and with it the
    /// trigger stream, is the same however often a client resends. The
    /// mark advances only contiguously: a line past `mark + 1` follows a
    /// lost one, and accepting it would dedup the lost line's resend, so
    /// it is dropped too. A line the grammar or the object table rejects
    /// is journaled nowhere and changes nothing but the mark.
    ///
    /// Otherwise the line's first-mention `AUX_OBJ`s and its `AUX_SLINE`
    /// are appended before it takes effect, then its GC cycles and
    /// reports, and an event that completes the cadence checkpoints.
    ///
    /// # Errors
    ///
    /// [`WriteError`] when the journal or the engine fails; the caller
    /// must stop writing.
    pub fn process_line(
        &mut self,
        session: u64,
        cseq: u64,
        raw: &str,
    ) -> Result<Ingest, WriteError> {
        if let Some(dropped) = self.admit(session, cseq) {
            return Ok(dropped);
        }
        let text = raw.split('#').next().unwrap_or("").trim();
        let line = match parse(text, self.monitor.spec()) {
            Ok(Some(line)) => line,
            Ok(None) => {
                self.note_session(session, cseq);
                return Ok(Ingest::Blank);
            }
            Err(e) => {
                self.note_session(session, cseq);
                return Ok(Ingest::Bad(e));
            }
        };
        let mut done = Ingested::default();
        let t0 = Instant::now();
        let (journal, retry) = (&mut self.journal, &self.retry);
        let commit = |_: &mut PropertyMonitor, _: &Effect, fresh: &[(ObjId, &str)]| {
            let t = Instant::now();
            for (obj, name) in fresh {
                let named = obj.to_bits().to_le_bytes().into_iter().chain(name.bytes());
                append(journal, retry, &Record::Aux { tag: AUX_OBJ, bytes: named.collect() })?;
            }
            let line = Record::Aux { tag: AUX_SLINE, bytes: session_key(session, cseq, text) };
            done.seq = append(journal, retry, &line)?;
            done.append_ns = span_ns(t);
            Ok(Some(done.seq))
        };
        let applied =
            match apply(&line, &mut self.heap, &mut self.objects, &mut self.monitor, commit) {
                Ok(applied) => applied,
                Err(ApplyError::Line(e)) => {
                    self.note_session(session, cseq);
                    return Ok(Ingest::Bad(e));
                }
                Err(ApplyError::Commit(e)) => return Err(e),
                Err(ApplyError::Engine(e)) => return Err(WriteError::Engine(e)),
            };
        done.engine_ns = span_ns(t0).saturating_sub(done.append_ns);
        let t = Instant::now();
        for c in &applied.cycles {
            self.append(&Record::Aux { tag: AUX_GC_CYCLE, bytes: c.to_bytes() })?;
        }
        done.append_ns += span_ns(t);
        let t = Instant::now();
        for r in &applied.fired {
            self.append(&r.to_record())?;
        }
        done.trigger_ns = span_ns(t);
        (done.fired, done.cycles) = (applied.fired, applied.cycles);
        self.note_session(session, cseq);
        if matches!(line, Line::Event(..)) {
            self.since_checkpoint += 1;
            if self.since_checkpoint >= self.checkpoint_every {
                self.checkpoint_now()?;
            }
        }
        Ok(Ingest::Applied(done))
    }

    /// Journals and fsyncs the `AUX_FATAL` mark of a worker-fatal chaos
    /// line, after the dedup and gap checks of
    /// [`process_line`](Self::process_line): recovery advances the
    /// session mark past it, so the line kills exactly one incarnation
    /// however often it is resent. [`Ingest::Applied`] means the mark is
    /// durable and the caller is to fail.
    ///
    /// # Errors
    ///
    /// [`WriteError::Journal`] when the mark cannot be made durable.
    pub fn mark_fatal(&mut self, session: u64, cseq: u64) -> Result<Ingest, WriteError> {
        if let Some(dropped) = self.admit(session, cseq) {
            return Ok(dropped);
        }
        let seq =
            self.append(&Record::Aux { tag: AUX_FATAL, bytes: session_key(session, cseq, "") })?;
        self.sync()?;
        self.note_session(session, cseq);
        Ok(Ingest::Applied(Ingested { seq, ..Ingested::default() }))
    }

    /// Flushes and fsyncs the journal: everything processed so far is
    /// durable.
    ///
    /// # Errors
    ///
    /// [`WriteError::Journal`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), WriteError> {
        let t0 = Instant::now();
        self.journal
            .sync()
            .map_err(|e| WriteError::Journal(format!("journal sync failed: {e}")))?;
        if let Some(hook) = &mut self.on_fsync {
            hook(span_ns(t0));
        }
        Ok(())
    }

    /// Syncs the journal, commits a checkpoint of the monitor at its
    /// tail, and syncs the checkpoint's mark; the cadence restarts.
    /// Returns whether a checkpoint was written (a monitor whose state
    /// cannot be serialized writes none).
    ///
    /// # Errors
    ///
    /// [`WriteError::Journal`] when a sync or the checkpoint fails.
    pub fn checkpoint_now(&mut self) -> Result<bool, WriteError> {
        self.since_checkpoint = 0;
        self.sync()?;
        let Some(payload) = self.monitor.snapshot_bytes() else {
            return Ok(false);
        };
        self.journal
            .checkpoint(&payload, &self.retry)
            .map_err(|e| WriteError::Journal(format!("checkpoint failed: {e}")))?;
        self.sync()?;
        self.checkpoints += 1;
        Ok(true)
    }

    /// Ends a run: the final sweep of every block
    /// ([`PropertyMonitor::finish`]), then a checkpoint, so recovering a
    /// finished run restores its final state.
    ///
    /// # Errors
    ///
    /// As [`checkpoint_now`](Self::checkpoint_now).
    pub fn finish(&mut self) -> Result<(), WriteError> {
        self.monitor.finish(&self.heap);
        self.checkpoint_now().map(|_| ())
    }

    /// Cuts over to `spec` (compiled from `source`) under reload `token`:
    /// checkpoints the old engine at its exact journal tail, journals and
    /// fsyncs the `AUX_RELOAD` (token, counter totals, new source), then
    /// swaps in a fresh engine. Replay crosses the record the same way,
    /// and rebuilds the token, so a retried reload can be recognised.
    ///
    /// # Errors
    ///
    /// [`WriteError::Journal`] when the checkpoint or the cutover record
    /// cannot be made durable.
    pub fn reload(
        &mut self,
        token: u64,
        source: &str,
        spec: CompiledSpec,
    ) -> Result<(), WriteError> {
        self.checkpoint_now()?;
        let base = self.totals();
        self.append(&Record::Aux { tag: AUX_RELOAD, bytes: base.encode_reload(token, source) })?;
        self.sync()?;
        self.monitor = PropertyMonitor::new(spec, &self.config);
        self.base = base;
        self.spec_version += 1;
        self.reload_token = token;
        self.spec_source = source.to_owned();
        Ok(())
    }

    /// The monitor of the spec in force.
    #[must_use]
    pub fn monitor(&self) -> &PropertyMonitor {
        &self.monitor
    }

    /// The monitor, for installing trigger handlers.
    pub fn monitor_mut(&mut self) -> &mut PropertyMonitor {
        &mut self.monitor
    }

    /// The heap the trace's objects live on.
    #[must_use]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// `session`'s contiguous `cseq` high-water mark (0 before its first
    /// line).
    #[must_use]
    pub fn hwm(&self, session: u64) -> u64 {
        self.sessions.get(&session).copied().unwrap_or(0)
    }

    /// Counters of every engine since the journal began: the pre-reload
    /// base plus the current engine's.
    #[must_use]
    pub fn totals(&self) -> BaseCounters {
        let stats = self.monitor.stats();
        BaseCounters {
            events: self.base.events + stats.events,
            triggers: self.base.triggers + stats.triggers,
            quarantined: self.base.quarantined + stats.quarantined,
            budget_trips: self.base.budget_trips + stats.budget_trips,
            degradations: self.base.degradations + stats.degradations,
            shed: self.base.shed + stats.shed,
        }
    }

    /// The journal writer's counters.
    #[must_use]
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Checkpoints this writer committed.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The spec source in force.
    #[must_use]
    pub fn spec_source(&self) -> &str {
        &self.spec_source
    }

    /// 1 plus the number of reload cutovers in the journal.
    #[must_use]
    pub fn spec_version(&self) -> u64 {
        self.spec_version
    }

    /// The token of the last reload (0 if none).
    #[must_use]
    pub fn reload_token(&self) -> u64 {
        self.reload_token
    }
}
