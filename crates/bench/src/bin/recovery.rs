//! Durability overhead and recovery-time harness: the journaled engine
//! versus its unjournaled twin over the paper's evaluated properties.
//!
//! For each property, a seed-reproducible synthetic lifecycle workload
//! (events over a churning pool of parameter objects, with deaths and
//! collections, as trace lines) runs twice over the same lines — once
//! bare, applied with no journal, once through the journal writer rvmond
//! ships, with periodic checkpoints — and then the journal is recovered
//! into a fresh monitor, timing the checkpoint restore plus suffix
//! replay. Both runs parse and apply every line the same way, so the
//! overhead column prices only the journal.
//!
//! Usage: `cargo run --release -p rv-bench --bin recovery --
//! [--scale X] [--stats-json BENCH_RECOVERY.json]`

use std::convert::Infallible;
use std::path::Path;
use std::time::{Duration, Instant};

use rv_core::journal::DEFAULT_SEGMENT_BYTES;
use rv_core::line::{apply, parse};
use rv_core::snapshot::{checkpoint_path, list_checkpoints};
use rv_core::{
    recover, EngineConfig, GcPolicy, Ingest, JournalStats, JournaledMonitor, NoopObserver,
    ObjectTable, PropertyMonitor, ReplayFrom, RetryPolicy,
};
use rv_heap::{Heap, HeapConfig, SplitMix64};
use rv_props::Property;
use rv_spec::CompiledSpec;

const POOL: usize = 8;
const CHECKPOINT_EVERY: u64 = 1024;

/// The lifecycle schedule as trace lines. Pool slot `s` names its objects
/// `o{s}.{generation}`: an object is allocated at its slot's first
/// mention, and a kill frees it (a kill of an empty slot is skipped), so
/// the slot's next mention allocates a fresh one. A final `!sweep` does
/// the end-of-run monitor sweep.
fn schedule(spec: &CompiledSpec, seed: u64, events: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x1bad_b002_dead_beef);
    let mut generation = [0usize; POOL];
    let mut live = [false; POOL];
    let mut lines = Vec::new();
    let mut emitted = 0;
    while emitted < events {
        if rng.chance(0.12) {
            let s = rng.gen_range(POOL);
            if live[s] {
                live[s] = false;
                lines.push(format!("!free o{s}.{}", generation[s]));
                generation[s] += 1;
            }
        } else if rng.chance(0.05) {
            lines.push("!gc".to_owned());
        } else {
            let e = rng.gen_range(spec.alphabet.len());
            let mut line = spec.alphabet.name(rv_logic::EventId(e as u16)).to_owned();
            for _ in &spec.event_params[e] {
                let s = rng.gen_range(POOL);
                live[s] = true;
                line.push_str(&format!(" o{s}.{}", generation[s]));
            }
            lines.push(line);
            emitted += 1;
        }
    }
    lines.push("!sweep".to_owned());
    lines
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

fn config() -> EngineConfig {
    EngineConfig { policy: GcPolicy::CoenableLazy, ..EngineConfig::default() }
}

/// Applies the lines with no durability machinery.
fn run_bare(spec: &CompiledSpec, lines: &[String]) -> (Duration, u64) {
    let config = EngineConfig { record_triggers: true, ..config() };
    let mut monitor = PropertyMonitor::new(spec.clone(), &config);
    let mut heap = Heap::new(HeapConfig::manual());
    let mut objects = ObjectTable::new(&mut heap);
    let start = Instant::now();
    for raw in lines {
        let line = parse(raw, spec).expect("schedule line parses").expect("not blank");
        apply(&line, &mut heap, &mut objects, &mut monitor, |_, _, _| Ok::<_, Infallible>(Some(0)))
            .expect("schedule line applies");
    }
    (start.elapsed(), monitor.triggers())
}

/// Feeds the same lines to the journal writer, then times a full
/// recovery from the directory.
fn run_journaled(
    spec: &CompiledSpec,
    source: &str,
    lines: &[String],
    dir: &Path,
) -> (Duration, JournalStats, u64, u64, Duration, u64, u64) {
    let start = Instant::now();
    let mut w = JournaledMonitor::create(
        dir,
        source,
        spec.clone(),
        &config(),
        RetryPolicy::none(),
        DEFAULT_SEGMENT_BYTES,
    )
    .expect("create journal");
    w.set_checkpoint_every(CHECKPOINT_EVERY);
    for (i, raw) in lines.iter().enumerate() {
        let done = w.process_line(1, i as u64 + 1, raw).expect("journal the line");
        assert!(matches!(done, Ingest::Applied(_)), "line {raw}: {done:?}");
    }
    w.sync().expect("final sync");
    let journaled = start.elapsed();
    let (jstats, checkpoints, triggers) =
        (w.journal_stats(), w.checkpoints(), w.monitor().triggers());
    drop(w);
    let checkpoint_bytes = list_checkpoints(dir)
        .into_iter()
        .map(|g| std::fs::metadata(checkpoint_path(dir, g)).expect("stat checkpoint").len())
        .sum();

    // Recovery: scan, restore the newest checkpoint, rebuild the heap
    // from the record prefix, replay the suffix.
    let start = Instant::now();
    let mut recovered = recover(dir, ReplayFrom::LatestCheckpoint, &config(), |_| NoopObserver)
        .expect("recover the journal");
    assert!(
        recovered.plan.skipped_checkpoints.is_empty(),
        "clean run must not skip checkpoints: {:?}",
        recovered.plan.skipped_checkpoints
    );
    recovered.monitor.finish(&recovered.heap);
    let recover_time = start.elapsed();
    assert_eq!(recovered.monitor.triggers(), triggers, "recovery must reproduce the verdicts");
    (journaled, jstats, checkpoints, checkpoint_bytes, recover_time, recovered.events, triggers)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = rv_bench::HarnessArgs::from_env();
    let events = ((40_000.0 * args.scale) as usize).max(256);
    let mut report = rv_bench::StatsReport::new("recovery", args.scale);
    let scratch = std::env::temp_dir().join(format!("rv-bench-recovery-{}", std::process::id()));

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
        let lines = schedule(&spec, 42, events);
        let (bare, bare_triggers) = run_bare(&spec, &lines);
        let (journaled, jstats, checkpoints, checkpoint_bytes, recover, replayed, triggers) =
            run_journaled(&spec, source, &lines, &scratch);
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
