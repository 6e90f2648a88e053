//! The kill-at-any-byte crash harness: journaled monitoring under
//! simulated process death, differentially checked against an
//! uninterrupted oracle run.
//!
//! [`crash_and_recover`] drives a whole-spec [`PropertyMonitor`] over a
//! seed-reproducible schedule of parametric events, object deaths, heap
//! collections, and safepoint sweeps. It journals every operation in the
//! vocabulary `rvmond` and `rvmon run` write — `AUX_SPEC` at sequence 0,
//! then `Event`, `AUX_FREE`, `AUX_GC`, `AUX_SWEEP`, one record per
//! operation, plus `Trigger` records — through a [`JournalWriter`], and
//! writes periodic engine checkpoints. At a seed-chosen operation it
//! simulates a crash: the writer is dropped and the on-disk artifacts are
//! mutilated per a [`KillClass`] — the journal tail truncated at an
//! adversarial byte offset (including byte 0), a bit flipped in the
//! journal tail, or the newest checkpoint truncated or bit-flipped.
//! Recovery then runs the daemon's own replayer, [`recover`]: it restores
//! the latest usable checkpoint, rebuilds the heap from sequence 0,
//! and replays the event suffix with reports at or below the durable
//! trigger high-water mark suppressed. The harness resumes the remaining
//! schedule with a [`JournalWriter::resume`]d writer.
//!
//! The differential check is the paper's own currency: the recovered
//! run's final verdicts (per property block) and E/M/FM/CM statistics
//! must equal the uninterrupted oracle's, each block's verdicts must equal
//! the Figure 5 reference monitor's, and no goal report may be delivered
//! twice.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use rv_heap::{ClassId, Heap, HeapConfig, HeapStats, ObjId, SplitMix64};
use rv_logic::{EventId, ParamId};
use rv_spec::CompiledSpec;

use crate::binding::Binding;
use crate::chaos::dedup;
use crate::engine::{EngineConfig, GcPolicy};
use crate::journal::{
    read_journal, JournalWriter, Record, RetryPolicy, AUX_FREE, AUX_GC, AUX_SPEC, AUX_SWEEP,
    SEGMENT_HEADER_LEN,
};
use crate::multi::PropertyMonitor;
use crate::obs::NoopObserver;
use crate::recover::{alloc_pinned, recover, ReplayFrom};
use crate::reference::{monitor_trace, Trigger};
use crate::service::TriggerRecord;
use crate::snapshot::{checkpoint_path, list_checkpoints};
use crate::stats::EngineStats;

/// Live parameter objects available to the schedule generator.
const POOL: usize = 6;
/// Per-op probability of killing a pool object (its slot allocates a
/// fresh one at its next mention).
const KILL_PROB: f64 = 0.15;
/// Per-op probability of forcing a heap collection.
const COLLECT_PROB: f64 = 0.08;
/// Per-op probability of a safepoint sweep.
const SWEEP_PROB: f64 = 0.04;
/// Segment rotation limit for harness journals — small, so kills regularly
/// land past a rotation boundary.
const SEGMENT_BYTES: u64 = 1 << 12;

/// How the simulated crash mutilates the on-disk artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KillClass {
    /// Truncate the last journal segment to `pct`% of its byte length
    /// (0 cuts it to nothing, including the header).
    TruncateJournal(u8),
    /// Flip one seed-chosen bit in the last journal segment's body.
    BitFlipJournal,
    /// Truncate the newest checkpoint file to half its length.
    TruncateCheckpoint,
    /// Flip one seed-chosen bit anywhere in the newest checkpoint file.
    BitFlipCheckpoint,
}

impl KillClass {
    /// The sweep the integration suites run: every mutilation mode, with
    /// journal truncation at byte-offset classes from "everything lost"
    /// to "one torn record".
    pub const ALL: [KillClass; 8] = [
        KillClass::TruncateJournal(0),
        KillClass::TruncateJournal(25),
        KillClass::TruncateJournal(55),
        KillClass::TruncateJournal(85),
        KillClass::TruncateJournal(99),
        KillClass::BitFlipJournal,
        KillClass::TruncateCheckpoint,
        KillClass::BitFlipCheckpoint,
    ];

    /// A short label for test output and logs.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            KillClass::TruncateJournal(pct) => format!("truncate_journal_{pct}"),
            KillClass::BitFlipJournal => "bitflip_journal".to_owned(),
            KillClass::TruncateCheckpoint => "truncate_checkpoint".to_owned(),
            KillClass::BitFlipCheckpoint => "bitflip_checkpoint".to_owned(),
        }
    }

    /// Distinguishes the rng stream per kill class so different classes
    /// crash at different schedule points.
    fn salt(self) -> u64 {
        match self {
            KillClass::TruncateJournal(pct) => 0x100 + u64::from(pct),
            KillClass::BitFlipJournal => 0x200,
            KillClass::TruncateCheckpoint => 0x300,
            KillClass::BitFlipCheckpoint => 0x400,
        }
    }
}

/// The result of one kill-and-recover differential run.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// Parametric events in the full schedule.
    pub trace_len: usize,
    /// Operation index at which the process "died".
    pub crash_op: usize,
    /// Operation index recovery resumed from (the durable op count).
    pub resumed_at_op: usize,
    /// Journal sequence covered by the restored checkpoint, if one was
    /// usable after the mutilation.
    pub checkpoint_seq: Option<u64>,
    /// Journal bytes the recovery reader discarded as torn or corrupt.
    pub lost_bytes: u64,
    /// Final statistics of the uninterrupted oracle run.
    pub oracle_stats: EngineStats,
    /// Final statistics of the crashed-and-recovered run.
    pub recovered_stats: EngineStats,
    /// Oracle goal reports per property block: first report per
    /// binding, sorted.
    pub oracle_triggers: Vec<Vec<Trigger>>,
    /// Recovered-run goal reports per block, deduplicated the same way.
    pub recovered_triggers: Vec<Vec<Trigger>>,
    /// Figure 5 reference-monitor reports per block on the same trace.
    pub reference_triggers: Vec<Vec<Trigger>>,
    /// Goal reports delivered exactly once across the crash boundary.
    pub delivered: u64,
    /// Duplicate `(event_seq, ordinal)` deliveries observed — must be 0.
    pub duplicate_deliveries: u64,
}

impl CrashOutcome {
    /// Whether the recovered run's verdicts equal both the uninterrupted
    /// engine's and the reference monitor's.
    #[must_use]
    pub fn verdicts_match(&self) -> bool {
        self.recovered_triggers == self.oracle_triggers
            && self.oracle_triggers == self.reference_triggers
    }

    /// Whether the recovered run's final statistics equal the oracle's.
    /// `cache_hits` is excluded: a restore deliberately starts with a
    /// cold lookup cache.
    #[must_use]
    pub fn stats_match(&self) -> bool {
        let mut a = self.recovered_stats;
        let mut b = self.oracle_stats;
        a.cache_hits = 0;
        b.cache_hits = 0;
        a == b
    }

    /// The full acceptance predicate: verdicts and stats match, every
    /// report was delivered exactly once, and the delivery count equals
    /// the oracle's trigger count.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.verdicts_match()
            && self.stats_match()
            && self.duplicate_deliveries == 0
            && self.delivered == self.oracle_stats.triggers
    }
}

/// One step of the deterministic schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Dispatch an event with parameters drawn from pool slots.
    Event(EventId, Vec<(ParamId, usize)>),
    /// Kill a pool object.
    Kill(usize),
    /// Force a heap collection.
    Collect,
    /// Run a safepoint sweep.
    Sweep,
}

/// Generates the full op schedule — a pure function of `(spec, seed,
/// events)`, so recovery can regenerate the tail the journal lost.
fn schedule(spec: &CompiledSpec, seed: u64, events: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0xc3a5_c85c_97cb_3127);
    let mut ops = Vec::new();
    let mut emitted = 0;
    while emitted < events {
        if rng.chance(KILL_PROB) {
            ops.push(Op::Kill(rng.gen_range(POOL)));
            continue;
        }
        if rng.chance(COLLECT_PROB) {
            ops.push(Op::Collect);
            continue;
        }
        if rng.chance(SWEEP_PROB) {
            ops.push(Op::Sweep);
            continue;
        }
        let e = EventId(rng.gen_range(spec.alphabet.len()) as u16);
        let slots: Vec<(ParamId, usize)> =
            spec.event_params[e.as_usize()].iter().map(|&p| (p, rng.gen_range(POOL))).collect();
        ops.push(Op::Event(e, slots));
        emitted += 1;
    }
    ops
}

/// The monitored program: a manual heap plus a pool of parameter slots.
/// A slot's object is allocated lazily at its first mention, so the
/// journal's event records fully determine allocation order.
struct World {
    heap: Heap,
    class: ClassId,
    pool: Vec<Option<ObjId>>,
}

impl World {
    fn new() -> World {
        let mut heap = Heap::new(HeapConfig::manual());
        let class = heap.register_class("Obj");
        World { heap, class, pool: vec![None; POOL] }
    }

    /// Performs `op`'s heap side and returns the record that journals it.
    fn record(&mut self, op: &Op) -> Record {
        match op {
            Op::Kill(slot) => {
                let bytes = self.pool[*slot].take().map_or(Vec::new(), |obj| {
                    self.heap.unpin(obj);
                    obj.to_bits().to_le_bytes().to_vec()
                });
                Record::Aux { tag: AUX_FREE, bytes }
            }
            Op::Collect => {
                self.heap.collect();
                Record::Aux { tag: AUX_GC, bytes: Vec::new() }
            }
            Op::Sweep => Record::Aux { tag: AUX_SWEEP, bytes: Vec::new() },
            Op::Event(event, slots) => {
                let pairs: Vec<(ParamId, ObjId)> = slots
                    .iter()
                    .map(|&(p, s)| {
                        (
                            p,
                            *self.pool[s]
                                .get_or_insert_with(|| alloc_pinned(&mut self.heap, self.class)),
                        )
                    })
                    .collect();
                Record::Event { event: *event, binding: Binding::from_pairs(&pairs) }
            }
        }
    }
}

/// Whether `record` journals one schedule op (resumption counts them).
fn is_op(record: &Record) -> bool {
    matches!(record, Record::Event { .. } | Record::Aux { tag: AUX_FREE | AUX_GC | AUX_SWEEP, .. })
}

/// Applies a journaled op's engine side, returning the reports it fired
/// keyed by `seq`, the op record's journal sequence.
fn step(
    monitor: &mut PropertyMonitor,
    heap: &Heap,
    record: &Record,
    seq: u64,
) -> Result<Vec<TriggerRecord>, String> {
    match record {
        Record::Aux { tag: AUX_SWEEP, .. } => {
            for engine in monitor.engines_mut() {
                engine.full_sweep(heap);
            }
            Ok(Vec::new())
        }
        Record::Event { event, binding } => {
            monitor.process_keyed(heap, *event, *binding, seq).map_err(|e| e.to_string())
        }
        _ => Ok(Vec::new()),
    }
}

/// Deduplicated goal reports per block, and the schedule's events.
type Verdicts = Vec<Vec<Trigger>>;
type Trace = Vec<(EventId, Binding)>;

/// Finishes the run and returns its per-block verdicts.
fn finish(monitor: &mut PropertyMonitor, heap: &Heap) -> Result<Verdicts, String> {
    monitor.finish(heap);
    monitor.check_invariants(heap).map_err(|e| e.to_string())?;
    Ok(monitor.engines().iter().map(|e| dedup(e.triggers())).collect())
}

/// Runs the schedule uninterrupted and returns `(stats, verdicts,
/// trace)` — the oracle side of the differential check.
fn oracle_run(
    spec: &CompiledSpec,
    config: &EngineConfig,
    ops: &[Op],
) -> Result<(EngineStats, Verdicts, Trace), String> {
    let mut world = World::new();
    let mut monitor = PropertyMonitor::new(spec.clone(), config);
    let mut trace = Vec::new();
    for op in ops {
        let record = world.record(op);
        if let Record::Event { event, binding } = record {
            trace.push((event, binding));
        }
        step(&mut monitor, &world.heap, &record, 0)?;
    }
    let verdicts = finish(&mut monitor, &world.heap)?;
    Ok((monitor.stats(), verdicts, trace))
}

fn io(e: std::io::Error) -> String {
    format!("crash harness IO: {e}")
}

/// A journaled run: the program, its monitor, and the write-ahead
/// journal, checkpointed every few ops.
struct Run {
    world: World,
    monitor: PropertyMonitor,
    journal: JournalWriter,
    checkpoint_every: usize,
}

impl Run {
    /// Executes `ops` (whose global schedule indices start at
    /// `first_op_index`), appending op and trigger records and writing a
    /// checkpoint every `checkpoint_every` ops. `on_trigger` sees each
    /// fired report's `(event_seq, ordinal)` key.
    fn run(
        &mut self,
        ops: &[Op],
        first_op_index: usize,
        mut on_trigger: impl FnMut((u64, u32)),
    ) -> Result<(), String> {
        for (i, op) in ops.iter().enumerate() {
            let record = self.world.record(op);
            let seq = self.journal.append(&record).map_err(io)?;
            for t in step(&mut self.monitor, &self.world.heap, &record, seq)? {
                self.journal.append(&t.to_record()).map_err(io)?;
                on_trigger(t.key());
            }
            if (first_op_index + i + 1).is_multiple_of(self.checkpoint_every) {
                if let Some(payload) = self.monitor.snapshot_bytes() {
                    self.journal.checkpoint(&payload, &RetryPolicy::none()).map_err(io)?;
                }
            }
        }
        Ok(())
    }
}

/// Goal-report deliveries across the crash boundary.
#[derive(Default)]
struct Deliveries {
    seen: HashSet<(u64, u32)>,
    duplicates: u64,
}

impl Deliveries {
    fn deliver(&mut self, key: (u64, u32)) {
        if !self.seen.insert(key) {
            self.duplicates += 1;
        }
    }
}

fn last_segment_path(dir: &Path) -> Option<PathBuf> {
    let mut last = None;
    for index in 0u64.. {
        let p = dir.join(format!("journal-{index:08}"));
        if p.exists() {
            last = Some(p);
        } else {
            break;
        }
    }
    last
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat artifact").len()
}

fn truncate(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).expect("open artifact");
    file.set_len(len).expect("truncate artifact");
}

fn flip_bit(path: &Path, offset: u64, bit: u8) {
    let mut bytes = std::fs::read(path).expect("read artifact");
    let i = offset as usize;
    if i < bytes.len() {
        bytes[i] ^= 1 << (bit % 8);
        std::fs::write(path, bytes).expect("rewrite artifact");
    }
}

/// Mutilates the on-disk artifacts per `kill`, as if the process died at
/// an adversarial byte.
fn apply_kill(dir: &Path, kill: KillClass, rng: &mut SplitMix64) {
    match kill {
        KillClass::TruncateJournal(pct) => {
            if let Some(path) = last_segment_path(dir) {
                truncate(&path, file_len(&path) * u64::from(pct.min(100)) / 100);
            }
        }
        KillClass::BitFlipJournal => {
            if let Some(path) = last_segment_path(dir) {
                let len = file_len(&path);
                if len > SEGMENT_HEADER_LEN {
                    let span = len - SEGMENT_HEADER_LEN;
                    let offset = SEGMENT_HEADER_LEN + rng.gen_range(span as usize) as u64;
                    flip_bit(&path, offset, (rng.gen_range(8)) as u8);
                }
            }
        }
        KillClass::TruncateCheckpoint => {
            if let Some(&generation) = list_checkpoints(dir).last() {
                let path = checkpoint_path(dir, generation);
                truncate(&path, file_len(&path) / 2);
            }
        }
        KillClass::BitFlipCheckpoint => {
            if let Some(&generation) = list_checkpoints(dir).last() {
                let path = checkpoint_path(dir, generation);
                let len = file_len(&path);
                if len > 0 {
                    flip_bit(&path, rng.gen_range(len as usize) as u64, rng.gen_range(8) as u8);
                }
            }
        }
    }
}

/// Runs every property block of the spec `source` under `policy`, kills
/// the journaled run at a seed-chosen op via `kill`, recovers from the
/// mutilated artifacts in `dir` through [`recover`], finishes the
/// schedule, and differentially checks the result against an
/// uninterrupted oracle run.
///
/// `dir` is created (and wiped) by the harness; callers own its cleanup.
///
/// # Errors
///
/// A message from spec compilation, the engine, the scratch directory's
/// IO, the recovery scan or replay, or the final invariant checks — under
/// correct operation, none.
#[allow(clippy::too_many_arguments)]
pub fn crash_and_recover(
    source: &str,
    policy: GcPolicy,
    seed: u64,
    events: usize,
    checkpoint_every: usize,
    kill: KillClass,
    dir: &Path,
) -> Result<CrashOutcome, String> {
    let spec = CompiledSpec::from_source(source).map_err(|d| d.message)?;
    let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    let ops = schedule(&spec, seed, events);
    let (oracle_stats, oracle_triggers, trace) = oracle_run(&spec, &config, &ops)?;
    let reference_triggers = spec
        .properties
        .iter()
        .map(|p| dedup(&monitor_trace(&p.formalism, p.goal, &trace).triggers))
        .collect();

    // The crash point and mutilation offsets come from a stream distinct
    // from the schedule's, salted by kill class.
    let mut crash_rng =
        SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(kill.salt()));
    let span = (ops.len() / 2).max(1);
    let crash_op = ops.len() / 4 + crash_rng.gen_range(span);

    // --- Pre-crash journaled run -----------------------------------------
    let begin = || -> Result<Run, String> {
        let mut journal = JournalWriter::create_with(dir, SEGMENT_BYTES).map_err(io)?;
        journal
            .append(&Record::Aux { tag: AUX_SPEC, bytes: source.as_bytes().to_vec() })
            .map_err(io)?;
        Ok(Run {
            world: World::new(),
            monitor: PropertyMonitor::new(spec.clone(), &config),
            journal,
            checkpoint_every: checkpoint_every.max(1),
        })
    };
    let mut run = begin()?;
    run.run(&ops[..crash_op], 0, |_| {})?;
    // Model the bytes that reached the OS before the kill; the mutilation
    // below decides which of them survive.
    run.journal.sync().map_err(io)?;
    drop(run);

    apply_kill(dir, kill, &mut crash_rng);

    // --- Recovery ---------------------------------------------------------
    let durable = read_journal(dir).map_err(|e| e.to_string())?;
    let lost_bytes = durable.truncation.as_ref().map_or(0, |t| t.lost_bytes);
    let mut deliveries = Deliveries::default();
    let (mut run, resumed_at_op, checkpoint_seq) = if durable.records.is_empty() {
        // Not even the spec header survived: the run starts over.
        (begin()?, 0, None)
    } else {
        let rec = recover(dir, ReplayFrom::LatestCheckpoint, &config, |_| NoopObserver)
            .map_err(|e| e.to_string())?;
        let scan = &rec.plan.scan;
        // Reports journaled before the crash were delivered then; the
        // replayer's refired ones are delivered now.
        for sr in &scan.records {
            if let Some(t) = TriggerRecord::from_record(&sr.record) {
                deliveries.deliver(t.key());
            }
        }
        for t in rec.refired() {
            deliveries.deliver(t.key());
        }
        // The program re-executes its durable prefix; the replayer must
        // have rebuilt exactly the heap that prefix leaves behind.
        let resumed_at_op = scan.records.iter().filter(|sr| is_op(&sr.record)).count();
        let mut world = World::new();
        for op in &ops[..resumed_at_op] {
            world.record(op);
        }
        let shape = |heap: &Heap| HeapStats { gc_pause_ns: 0, ..heap.stats() };
        if shape(&world.heap) != shape(&rec.heap) {
            return Err(format!(
                "replayed heap {:?} differs from the program's {:?}",
                shape(&rec.heap),
                shape(&world.heap)
            ));
        }
        world.heap = rec.heap;
        let run = Run {
            world,
            monitor: rec.monitor,
            journal: JournalWriter::resume(dir, scan).map_err(io)?,
            checkpoint_every: checkpoint_every.max(1),
        };
        (run, resumed_at_op, rec.plan.checkpoint.map(|c| c.seq))
    };

    // --- Resume the lost tail of the schedule ----------------------------
    run.run(&ops[resumed_at_op..], resumed_at_op, |key| deliveries.deliver(key))?;
    run.journal.sync().map_err(io)?;
    let recovered_triggers = finish(&mut run.monitor, &run.world.heap)?;

    Ok(CrashOutcome {
        trace_len: trace.len(),
        crash_op,
        resumed_at_op,
        checkpoint_seq,
        lost_bytes,
        oracle_stats,
        recovered_stats: run.monitor.stats(),
        oracle_triggers,
        recovered_triggers,
        reference_triggers,
        delivered: deliveries.seen.len() as u64,
        duplicate_deliveries: deliveries.duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rv-crashtest-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    const HAS_NEXT: &str = r#"HasNext(Iterator i) {
                event hasnexttrue(i);
                event hasnextfalse(i);
                event next(i);
                fsm:
                    unknown [ hasnexttrue -> more  hasnextfalse -> none  next -> error ]
                    more [ hasnexttrue -> more  next -> unknown ]
                    none [ hasnextfalse -> none  next -> error ]
                    error []
                @error { report "bad"; }
            }"#;

    #[test]
    fn every_kill_class_recovers_to_the_oracle_outcome() {
        for kill in KillClass::ALL {
            let dir = scratch_dir("classes");
            let out =
                crash_and_recover(HAS_NEXT, GcPolicy::CoenableLazy, 7, 96, 8, kill, &dir).unwrap();
            assert!(
                out.ok(),
                "{}: verdicts_match={} stats_match={} dups={} delivered={} \
                 recovered={:?} oracle={:?}",
                kill.label(),
                out.verdicts_match(),
                out.stats_match(),
                out.duplicate_deliveries,
                out.delivered,
                out.recovered_stats,
                out.oracle_stats
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn losing_the_whole_journal_restarts_from_scratch() {
        let dir = scratch_dir("wipe");
        // Huge checkpoint interval: no checkpoint is ever written, and
        // truncating the only segment to zero bytes leaves nothing durable
        // — recovery must re-run the entire schedule.
        let out = crash_and_recover(
            HAS_NEXT,
            GcPolicy::AllParamsDead,
            11,
            48,
            10_000,
            KillClass::TruncateJournal(0),
            &dir,
        )
        .unwrap();
        assert_eq!(out.resumed_at_op, 0, "nothing durable, everything re-executed");
        assert!(out.checkpoint_seq.is_none());
        assert!(out.ok(), "recovered={:?} oracle={:?}", out.recovered_stats, out.oracle_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_runs_are_reproducible_and_actually_lose_bytes() {
        let dir_a = scratch_dir("repro");
        let dir_b = scratch_dir("repro");
        let kill = KillClass::TruncateJournal(55);
        let a =
            crash_and_recover(HAS_NEXT, GcPolicy::CoenableLazy, 13, 96, 8, kill, &dir_a).unwrap();
        let b =
            crash_and_recover(HAS_NEXT, GcPolicy::CoenableLazy, 13, 96, 8, kill, &dir_b).unwrap();
        assert_eq!(a.recovered_stats, b.recovered_stats, "same seed, same run");
        assert_eq!(a.crash_op, b.crash_op);
        assert_eq!(a.resumed_at_op, b.resumed_at_op);
        assert!(a.lost_bytes > 0, "a 55% cut must discard bytes: {a:?}");
        assert!(a.resumed_at_op < a.crash_op, "some executed ops must have been lost");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
