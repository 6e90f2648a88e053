//! Durability overhead and recovery-time harness: the journaled engine
//! versus its unjournaled twin over the paper's evaluated properties.
//!
//! For each property, a seed-reproducible synthetic lifecycle workload
//! (events over a churning pool of parameter objects, with deaths and
//! collections) runs twice — once bare, once with a write-ahead journal
//! and periodic checkpoints — and then the journal is recovered into a
//! fresh monitor, timing the checkpoint restore plus suffix replay.
//!
//! Usage: `cargo run --release -p rv-bench --bin recovery --
//! [--scale X] [--stats-json BENCH_RECOVERY.json]`

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rv_core::journal::{AUX_FREE, AUX_GC};
use rv_core::recover::alloc_pinned;
use rv_core::snapshot::write_checkpoint;
use rv_core::{
    recover, Binding, EngineConfig, GcPolicy, JournalStats, JournalWriter, NoopObserver,
    PropertyMonitor, Record, ReplayFrom,
};
use rv_heap::{ClassId, Heap, HeapConfig, ObjId, SplitMix64};
use rv_logic::EventId;
use rv_props::Property;
use rv_spec::CompiledSpec;

const POOL: usize = 8;
const CHECKPOINT_EVERY: usize = 1024;

/// One step of the lifecycle schedule. Replacement objects for killed
/// pool slots are allocated lazily at the next event that uses the slot,
/// so the journal's event records fully determine allocation order.
enum Step {
    Kill(usize),
    Collect,
    Event(EventId, Vec<(rv_logic::ParamId, usize)>),
}

fn schedule(spec: &CompiledSpec, seed: u64, events: usize) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed ^ 0x1bad_b002_dead_beef);
    let mut steps = Vec::new();
    let mut emitted = 0;
    while emitted < events {
        if rng.chance(0.12) {
            steps.push(Step::Kill(rng.gen_range(POOL)));
        } else if rng.chance(0.05) {
            steps.push(Step::Collect);
        } else {
            let e = EventId(rng.gen_range(spec.alphabet.len()) as u16);
            let slots =
                spec.event_params[e.as_usize()].iter().map(|&p| (p, rng.gen_range(POOL))).collect();
            steps.push(Step::Event(e, slots));
            emitted += 1;
        }
    }
    steps
}

/// The measurements for one property row.
struct Row {
    events: u64,
    bare: Duration,
    journaled: Duration,
    journal: JournalStats,
    checkpoints: u64,
    checkpoint_bytes: u64,
    recover: Duration,
    replayed: u64,
    triggers: u64,
}

/// The monitored program: a manual heap and a pool of parameter slots.
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

    /// Performs `step`'s heap side and returns the record that journals
    /// it (none for a kill of an empty slot).
    fn step(&mut self, step: &Step) -> Option<Record> {
        match step {
            Step::Kill(slot) => self.pool[*slot].take().map(|obj| {
                self.heap.unpin(obj);
                Record::Aux { tag: AUX_FREE, bytes: obj.to_bits().to_le_bytes().to_vec() }
            }),
            Step::Collect => {
                self.heap.collect();
                Some(Record::Aux { tag: AUX_GC, bytes: Vec::new() })
            }
            Step::Event(event, slots) => {
                let pairs: Vec<_> = slots
                    .iter()
                    .map(|&(p, s)| {
                        let (heap, class) = (&mut self.heap, self.class);
                        (p, *self.pool[s].get_or_insert_with(|| alloc_pinned(heap, class)))
                    })
                    .collect();
                Some(Record::Event { event: *event, binding: Binding::from_pairs(&pairs) })
            }
        }
    }
}

/// Runs the schedule without any durability machinery.
fn run_bare(spec: &CompiledSpec, steps: &[Step]) -> (Duration, u64) {
    let config = EngineConfig { policy: GcPolicy::CoenableLazy, ..EngineConfig::default() };
    let mut monitor = PropertyMonitor::new(spec.clone(), &config);
    let mut world = World::new();
    let start = Instant::now();
    for step in steps {
        if let Some(Record::Event { event, binding }) = world.step(step) {
            monitor.process(&world.heap, event, binding);
        }
    }
    monitor.finish(&world.heap);
    (start.elapsed(), monitor.triggers())
}

/// Runs the same schedule with the write-ahead journal and periodic
/// checkpoints, then times a full recovery from the directory.
fn run_journaled(
    spec: &CompiledSpec,
    source: &str,
    steps: &[Step],
    dir: &Path,
) -> (Duration, JournalStats, u64, u64, Duration, u64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let config = EngineConfig { policy: GcPolicy::CoenableLazy, ..EngineConfig::default() };
    let mut monitor = PropertyMonitor::new(spec.clone(), &config);
    let mut world = World::new();
    let mut journal = JournalWriter::create(dir).expect("create journal");
    let mut since_checkpoint = 0usize;
    let mut generation = 0u64;
    let mut checkpoint_bytes = 0u64;
    let start = Instant::now();
    journal
        .append(&Record::Aux { tag: rv_core::journal::AUX_SPEC, bytes: source.as_bytes().to_vec() })
        .expect("journal spec");
    for step in steps {
        let Some(record) = world.step(step) else { continue };
        journal.append(&record).expect("journal step");
        if let Record::Event { event, binding } = record {
            monitor.process(&world.heap, event, binding);
            since_checkpoint += 1;
            if since_checkpoint >= CHECKPOINT_EVERY {
                since_checkpoint = 0;
                journal.sync().expect("sync journal");
                let payload = monitor.snapshot_bytes().expect("serializable state");
                checkpoint_bytes += payload.len() as u64;
                let covered = journal.next_seq();
                write_checkpoint(dir, generation, covered, &payload).expect("write checkpoint");
                journal
                    .append(&Record::CheckpointMark { generation, seq: covered })
                    .expect("journal mark");
                generation += 1;
            }
        }
    }
    monitor.finish(&world.heap);
    journal.sync().expect("final sync");
    let journaled = start.elapsed();
    let jstats = journal.stats();
    let triggers = monitor.triggers();
    drop(journal);

    // Recovery: scan, restore the newest checkpoint, rebuild the heap
    // from the record prefix, replay the suffix.
    let start = Instant::now();
    let mut recovered = recover(dir, ReplayFrom::LatestCheckpoint, &config, |_| NoopObserver)
        .expect("recover the journal");
    assert!(
        recovered.plan.skipped_checkpoints.is_empty(),
        "clean run must not skip checkpoints: {:?}",
        recovered.plan.skipped_checkpoints
    );
    recovered.monitor.finish(&recovered.heap);
    let recover_time = start.elapsed();
    assert_eq!(recovered.monitor.triggers(), triggers, "recovery must reproduce the verdicts");
    (journaled, jstats, generation, checkpoint_bytes, recover_time, recovered.events, triggers)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = rv_bench::HarnessArgs::from_env();
    let events = ((40_000.0 * args.scale) as usize).max(256);
    let mut report = rv_bench::StatsReport::new("recovery", args.scale);
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("rv-bench-recovery-{}", std::process::id()));

    println!("Durability harness: journaled vs unjournaled lifecycle (scale {})", args.scale);
    println!(
        "{:<28} {:>8} {:>9} {:>9} {:>7} {:>9} {:>5} {:>9} {:>8}",
        "property",
        "events",
        "bare ms",
        "wal ms",
        "ovh %",
        "wal KiB",
        "ckpts",
        "ckpt KiB",
        "rec ms"
    );
    for property in Property::EVALUATED {
        let spec = rv_props::compiled(property).expect("bundled properties compile");
        let source = property.source();
        let steps = schedule(&spec, 42, events);
        let (bare, bare_triggers) = run_bare(&spec, &steps);
        let (journaled, jstats, checkpoints, checkpoint_bytes, recover, replayed, triggers) =
            run_journaled(&spec, source, &steps, &scratch);
        assert_eq!(bare_triggers, triggers, "journaling must not change verdicts");
        let row = Row {
            events: events as u64,
            bare,
            journaled,
            journal: jstats,
            checkpoints,
            checkpoint_bytes,
            recover,
            replayed,
            triggers,
        };
        let overhead = (ms(row.journaled) / ms(row.bare).max(1e-9) - 1.0) * 100.0;
        println!(
            "{:<28} {:>8} {:>9.2} {:>9.2} {:>7.0} {:>9.1} {:>5} {:>9.1} {:>8.2}",
            property.paper_name().chars().take(28).collect::<String>(),
            row.events,
            ms(row.bare),
            ms(row.journaled),
            overhead,
            row.journal.bytes as f64 / 1024.0,
            row.checkpoints,
            row.checkpoint_bytes as f64 / 1024.0,
            ms(row.recover),
        );
        report.push_raw_cell(format!(
            "{{\"property\":\"{}\",\"events\":{},\"bare_ms\":{},\"journaled_ms\":{},\
             \"recover_ms\":{},\"replayed_events\":{},\"checkpoints\":{},\
             \"checkpoint_bytes\":{},\"triggers\":{},\"journal\":{}}}",
            rv_core::obs::json_escape(property.paper_name()),
            row.events,
            rv_core::obs::json_f64(ms(row.bare)),
            rv_core::obs::json_f64(ms(row.journaled)),
            rv_core::obs::json_f64(ms(row.recover)),
            row.replayed,
            row.checkpoints,
            row.checkpoint_bytes,
            row.triggers,
            row.journal.to_json(),
        ));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!();
    println!(
        "wal = write-ahead journal (fsync every {CHECKPOINT_EVERY} events at each checkpoint); \
         rec = scan + checkpoint restore + suffix replay"
    );
    report.write_if_requested(args.stats_json.as_deref());
}
