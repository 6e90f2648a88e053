//! Durability suite: snapshot round-trips over the full property catalog
//! and the kill-at-any-byte crash sweep through an rvmond tenant.
//!
//! Part one snapshots a mid-flight [`PropertyMonitor`] for every catalog
//! property under every GC policy, restores it into a fresh monitor, and
//! drives both twins over the identical event suffix: the restored run
//! must be byte-identical at the snapshot point and verdict-identical at
//! the end (modulo the deliberately cold lookup cache).
//!
//! Part two is the crash sweep. A seeded schedule of events, `!free`,
//! `!gc` and `!sweep` lines goes, as two interleaved client sessions, into
//! an in-process [`Service`] tenant, the daemon's own worker, journal
//! writer and replayer. At a seeded line the service is dropped without a
//! drain (the crash path), the tenant directory is damaged per
//! [`KillClass`], and a new service recovers it; each session resends
//! from its last barrier, or from the recovered high-water mark + 1 when
//! the damage took acknowledged lines. The run must equal an
//! uninterrupted tenant fed the same lines, which must equal the offline
//! [`line::apply`] oracle and, block by block, the Figure 5 reference
//! monitor — with every goal report delivered exactly once.
//!
//! [`line::apply`]: rv_monitor::core::line::apply

use std::collections::HashSet;
use std::convert::Infallible;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use rv_monitor::core::journal::{AUX_RELOAD, SEGMENT_HEADER_LEN};
use rv_monitor::core::line::{self, Effect};
use rv_monitor::core::obs::json_object_field;
use rv_monitor::core::service::REJECT_TENANT_FAILED;
use rv_monitor::core::snapshot::{checkpoint_path, list_checkpoints};
use rv_monitor::core::{
    monitor_trace, read_journal, recover, Binding, EngineConfig, EngineStats, GcPolicy,
    NoopObserver, ObjectTable, PropertyMonitor, Record, ReplayFrom, Service, ServiceConfig,
    TenantOptions, TenantSnapshot, Trigger,
};
use rv_monitor::heap::{Heap, HeapConfig, HeapStats, ObjId, SplitMix64};
use rv_monitor::logic::EventId;
use rv_monitor::props::{compiled, Property};
use rv_monitor::spec::CompiledSpec;

mod common;
use common::Feeder;

const POOL: usize = 6;
const POLICIES: [GcPolicy; 3] = [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy];

/// One scheduled step of the deterministic workload driver.
enum Step {
    Kill(usize),
    Collect,
    Event(EventId, Vec<(rv_monitor::logic::ParamId, usize)>),
}

/// A seed-reproducible schedule of kills, collections, and events over a
/// fixed pool of parameter objects — the same shape the chaos and crash
/// harnesses use, regenerated here so the test is a pure function of
/// `(spec, seed)`.
fn schedule(spec: &CompiledSpec, seed: u64, events: usize) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut steps = Vec::new();
    let mut emitted = 0;
    while emitted < events {
        if rng.chance(0.15) {
            steps.push(Step::Kill(rng.gen_range(POOL)));
        } else if rng.chance(0.08) {
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

fn fresh_pool(heap: &mut Heap, class: rv_monitor::heap::ClassId) -> Vec<ObjId> {
    let frame = heap.enter_frame();
    let pool: Vec<ObjId> = (0..POOL).map(|_| heap.alloc(class)).collect();
    for &o in &pool {
        heap.pin(o);
    }
    heap.exit_frame(frame);
    pool
}

fn apply(
    step: &Step,
    heap: &mut Heap,
    class: rv_monitor::heap::ClassId,
    pool: &mut [ObjId],
    monitors: &mut [&mut PropertyMonitor],
) {
    match step {
        Step::Kill(slot) => {
            heap.unpin(pool[*slot]);
            let frame = heap.enter_frame();
            let fresh = heap.alloc(class);
            heap.pin(fresh);
            heap.exit_frame(frame);
            pool[*slot] = fresh;
        }
        Step::Collect => {
            heap.collect();
        }
        Step::Event(e, slots) => {
            let pairs: Vec<_> = slots.iter().map(|&(p, s)| (p, pool[s])).collect();
            let binding = Binding::from_pairs(&pairs);
            for m in monitors.iter_mut() {
                m.try_process(heap, *e, binding).expect("engine accepts scheduled event");
            }
        }
    }
}

/// Engine statistics with the lookup-cache counter zeroed: a restored
/// monitor deliberately starts with a cold cache, so `cache_hits` is the
/// one counter allowed to differ between the twins.
fn normalized(m: &PropertyMonitor) -> rv_monitor::core::EngineStats {
    let mut s = m.stats();
    s.cache_hits = 0;
    s
}

fn round_trip_one(spec: &CompiledSpec, policy: GcPolicy, seed: u64, events: usize, split: usize) {
    let config = EngineConfig { policy, record_triggers: true, ..EngineConfig::default() };
    let mut original = PropertyMonitor::new(spec.clone(), &config);
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Obj");
    let mut pool = fresh_pool(&mut heap, class);
    let steps = schedule(spec, seed, events);

    for step in &steps[..split] {
        apply(step, &mut heap, class, &mut pool, &mut [&mut original]);
    }
    let ctx = format!("{}/{policy:?}/seed {seed}", spec.name);
    let snap = original.snapshot_bytes().unwrap_or_else(|| panic!("{ctx}: unserializable state"));
    let mut restored = PropertyMonitor::new(spec.clone(), &config);
    restored
        .restore_snapshot(&snap, "<memory>")
        .unwrap_or_else(|e| panic!("{ctx}: restore own snapshot: {e}"));
    assert_eq!(
        restored.snapshot_bytes().unwrap_or_else(|| panic!("{ctx}: re-serialize")),
        snap,
        "{}/{policy:?}/seed {seed}: restore → snapshot must be byte-identical",
        spec.name
    );
    restored
        .check_invariants(&heap)
        .unwrap_or_else(|e| panic!("{ctx}: restored state is unsound: {e}"));

    for step in &steps[split..] {
        apply(step, &mut heap, class, &mut pool, &mut [&mut original, &mut restored]);
    }
    original.finish(&heap);
    restored.finish(&heap);
    assert_eq!(
        normalized(&original),
        normalized(&restored),
        "{}/{policy:?}/seed {seed}: twins diverged after the split",
        spec.name
    );
    for (a, b) in original.engines().iter().zip(restored.engines()) {
        assert_eq!(a.triggers(), b.triggers(), "{}/{policy:?}/seed {seed}", spec.name);
    }
}

/// Every catalog property, every GC policy: snapshot mid-run, restore,
/// and the twin runs stay in lock-step to the end of the trace.
#[test]
fn snapshot_round_trips_for_every_catalog_property_and_policy() {
    for property in Property::ALL {
        let spec = compiled(property).expect("catalog property compiles");
        for policy in POLICIES {
            round_trip_one(&spec, policy, 11, 96, 40);
        }
    }
}

/// A snapshot taken at step 0 (before any event) and at the very end of
/// the trace both round-trip — the boundary cases of the split point.
#[test]
fn snapshot_round_trips_at_trace_boundaries() {
    let spec = compiled(Property::UnsafeMapIter).expect("catalog property compiles");
    for split in [0, 60] {
        round_trip_one(&spec, GcPolicy::CoenableLazy, 3, 60, split);
    }
}

// --- Part two: the kill-at-any-byte sweep -------------------------------

/// The sweep's one tenant.
const TENANT: &str = "t";
/// The token the sweep's one spec reload carries, on every attempt.
const RELOAD_TOKEN: u64 = 0x5eed_0001;
/// Chance that a line's session takes a barrier right after it.
const BARRIER_PROB: f64 = 0.125;

/// How the simulated crash damages the tenant's files.
#[derive(Clone, Copy, Debug)]
enum KillClass {
    /// Truncate the last journal segment to `pct`% of its byte length
    /// (0 cuts it to nothing, header included).
    TruncateJournal(u8),
    /// Flip one seeded bit in the last journal segment's body.
    BitFlipJournal,
    /// Truncate the newest checkpoint file to half its length.
    TruncateCheckpoint,
    /// Flip one seeded bit anywhere in the newest checkpoint file.
    BitFlipCheckpoint,
}

impl KillClass {
    /// Every damage mode, with journal truncation from "everything lost"
    /// to "one torn record".
    const ALL: [KillClass; 8] = [
        KillClass::TruncateJournal(0),
        KillClass::TruncateJournal(25),
        KillClass::TruncateJournal(55),
        KillClass::TruncateJournal(85),
        KillClass::TruncateJournal(99),
        KillClass::BitFlipJournal,
        KillClass::TruncateCheckpoint,
        KillClass::BitFlipCheckpoint,
    ];

    /// Salts the crash stream, so each class dies at its own line.
    fn salt(self) -> u64 {
        match self {
            KillClass::TruncateJournal(pct) => 0x100 + u64::from(pct),
            KillClass::BitFlipJournal => 0x200,
            KillClass::TruncateCheckpoint => 0x300,
            KillClass::BitFlipCheckpoint => 0x400,
        }
    }

    /// Damages the tenant directory `dir` as a kill at an adversarial
    /// byte would.
    fn damage(self, dir: &Path, rng: &mut SplitMix64) {
        let newest_checkpoint = list_checkpoints(dir).last().map(|&g| checkpoint_path(dir, g));
        // Segments rotate at 1 MiB, so the sweep's journals have one.
        let journal = dir.join("journal-00000000");
        match self {
            KillClass::TruncateJournal(pct) => {
                truncate(&journal, file_len(&journal) * u64::from(pct) / 100);
            }
            KillClass::BitFlipJournal => {
                let body = file_len(&journal) - SEGMENT_HEADER_LEN;
                flip_bit(&journal, SEGMENT_HEADER_LEN + rng.gen_range(body as usize) as u64, rng);
            }
            KillClass::TruncateCheckpoint => {
                if let Some(path) = newest_checkpoint {
                    truncate(&path, file_len(&path) / 2);
                }
            }
            KillClass::BitFlipCheckpoint => {
                if let Some(path) = newest_checkpoint {
                    flip_bit(&path, rng.gen_range(file_len(&path) as usize) as u64, rng);
                }
            }
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat artifact").len()
}

fn truncate(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).expect("open artifact");
    file.set_len(len).expect("truncate artifact");
}

fn flip_bit(path: &Path, offset: u64, rng: &mut SplitMix64) {
    let mut bytes = std::fs::read(path).expect("read artifact");
    bytes[offset as usize] ^= 1 << rng.gen_range(8);
    std::fs::write(path, bytes).expect("rewrite artifact");
}

/// The seeded schedule as trace lines: events over `POOL` object slots,
/// `!free` of a slot's object, `!gc` and `!sweep`. Slot `s` names its
/// objects `o{s}.{generation}`: an object is allocated at its first
/// mention, and once freed the slot's next mention names a fresh one (a
/// `!free` of an empty slot frees nothing).
fn schedule_lines(spec: &CompiledSpec, seed: u64, events: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0xc3a5_c85c_97cb_3127);
    let mut generation = [0usize; POOL];
    let mut live = [false; POOL];
    let mut lines = Vec::new();
    let mut emitted = 0;
    while emitted < events {
        let line = if rng.chance(0.15) {
            let s = rng.gen_range(POOL);
            if std::mem::take(&mut live[s]) {
                generation[s] += 1;
                format!("!free o{s}.{}", generation[s] - 1)
            } else {
                "!free".to_owned()
            }
        } else if rng.chance(0.08) {
            "!gc".to_owned()
        } else if rng.chance(0.04) {
            "!sweep".to_owned()
        } else {
            let e = EventId(rng.gen_range(spec.alphabet.len()) as u16);
            let mut line = spec.alphabet.name(e).to_owned();
            for _ in &spec.event_params[e.as_usize()] {
                let s = rng.gen_range(POOL);
                live[s] = true;
                line.push_str(&format!(" o{s}.{}", generation[s]));
            }
            emitted += 1;
            line
        };
        lines.push(line);
    }
    lines
}

/// One case's client side, the same for every kill class.
struct Script {
    /// `(session index, cseq, line)` in send order.
    lines: Vec<(usize, u64, String)>,
    /// Whether the line's session takes a barrier after it.
    barrier_after: Vec<bool>,
    /// The spec reload goes before the line at this index: in the span
    /// crashes land in, so kills fall before it, and soon after it.
    reload_at: Option<usize>,
}

impl Script {
    fn new(spec: &CompiledSpec, seed: u64, events: usize, reload: bool) -> Script {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5e55);
        let mut next = [1u64; 2];
        let lines: Vec<_> = schedule_lines(spec, seed, events)
            .into_iter()
            .map(|text| {
                let s = rng.gen_range(2);
                next[s] += 1;
                (s, next[s] - 1, text)
            })
            .collect();
        let barrier_after = lines.iter().map(|_| rng.chance(BARRIER_PROB)).collect();
        let n = lines.len();
        let reload_at = reload.then(|| n / 4 + rng.gen_range(n / 2));
        Script { lines, barrier_after, reload_at }
    }

    /// Sends the lines in `range` in order, each through its session's
    /// feeder, skipping lines that session has sent already, and issues
    /// the reload when the feed reaches it. Returns whether the tenant
    /// had applied that reload already (a re-issue after a crash).
    fn feed(
        &self,
        svc: &Service,
        feeders: &mut [Feeder; 2],
        source: &str,
        range: Range<usize>,
        barriers: bool,
    ) -> bool {
        let mut reapplied = false;
        for i in range {
            if self.reload_at == Some(i) {
                let version = |svc: &Service| tenant_snapshot(svc).spec_version;
                let before = version(svc);
                let after = svc.reload(TENANT, RELOAD_TOKEN, source).expect("reload the spec");
                assert_eq!(after, version(svc), "the reload's answer is the tenant's version");
                reapplied = after == before;
            }
            let (s, cseq, text) = &self.lines[i];
            let feeder = &mut feeders[*s];
            if *cseq < feeder.next_cseq() {
                continue;
            }
            assert_eq!(*cseq, feeder.next_cseq(), "session {s} would skip a line");
            feeder.send(svc, text);
            if barriers && self.barrier_after[i] {
                feeder.barrier(svc);
            }
        }
        reapplied
    }
}

fn tenant_snapshot(svc: &Service) -> TenantSnapshot {
    svc.snapshots().into_iter().find(|s| s.name == TENANT).expect("tenant snapshot")
}

fn sessions() -> [Feeder; 2] {
    [Feeder::new(TENANT, 1), Feeder::new(TENANT, 2)]
}

/// Deduplicated goal reports, per spec segment (split at the reload), per
/// property block.
type Verdicts = Vec<Vec<Vec<Trigger>>>;

/// First report per binding, sorted: the oracle re-fires absorbing
/// verdicts every event while the engine retires such monitors after the
/// first report.
fn dedup(mut ts: Vec<Trigger>) -> Vec<Trigger> {
    let mut seen: HashSet<Binding> = HashSet::new();
    ts.retain(|t| seen.insert(t.binding));
    ts.sort();
    ts
}

/// Heap statistics with the wall-clock pause zeroed.
fn shape(heap: &Heap) -> HeapStats {
    HeapStats { gc_pause_ns: 0, ..heap.stats() }
}

/// An engine stats JSON object without its `cache_hits` field: a
/// restored engine starts with a cold lookup cache.
fn without_cache_hits(json: &str) -> String {
    let at = json.find("\"cache_hits\":").expect("engine stats carry cache_hits");
    let end = at + json[at..].find(',').expect("cache_hits is not the last field") + 1;
    format!("{}{}", &json[..at], &json[end..])
}

/// What a run must end with, whether a tenant or the offline oracle
/// produced it. Engine statistics are those of the engine in force at
/// the end, `cache_hits` zeroed: before and after a final sweep.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The live engine's stats JSON, `cache_hits` dropped.
    engine: String,
    stats: EngineStats,
    finished: EngineStats,
    heap: HeapStats,
    /// Events and goal reports of every engine the run went through.
    totals: (u64, u64),
    verdicts: Verdicts,
}

/// The offline side: every line applied through `line::apply`, as the
/// journal writer and the replayer apply it, with a fresh monitor at the
/// reload; and the Figure 5 reference run over each spec segment.
fn oracle(spec: &CompiledSpec, config: &EngineConfig, script: &Script) -> (Outcome, Verdicts) {
    let config = EngineConfig { record_triggers: true, ..config.clone() };
    let blocks = spec.properties.len();
    let mut heap = Heap::new(HeapConfig::manual());
    let mut objects = ObjectTable::new(&mut heap);
    let mut monitor = PropertyMonitor::new(spec.clone(), &config);
    let mut traces: Vec<Vec<(EventId, Binding)>> = vec![Vec::new()];
    let mut fired: Vec<Vec<Vec<Trigger>>> = vec![vec![Vec::new(); blocks]];
    let mut totals = (0, 0);
    for (i, (_, _, raw)) in script.lines.iter().enumerate() {
        if script.reload_at == Some(i) {
            totals.0 += monitor.stats().events;
            totals.1 += monitor.stats().triggers;
            monitor = PropertyMonitor::new(spec.clone(), &config);
            traces.push(Vec::new());
            fired.push(vec![Vec::new(); blocks]);
        }
        let trace = traces.last_mut().expect("a segment");
        let parsed = line::parse(raw, spec).expect("schedule line parses").expect("not blank");
        let applied =
            line::apply(&parsed, &mut heap, &mut objects, &mut monitor, |_, effect, _| {
                if let Effect::Event(event, binding) = effect {
                    trace.push((*event, *binding));
                }
                Ok::<_, Infallible>(Some(0))
            })
            .unwrap_or_else(|e| panic!("oracle line `{raw}`: {e:?}"));
        let segment = fired.last_mut().expect("a segment");
        for t in applied.fired {
            let step = t.step as usize;
            segment[usize::from(t.block)].push(Trigger {
                step,
                binding: t.binding,
                verdict: t.verdict,
            });
        }
    }
    monitor.check_invariants(&heap).expect("oracle state is sound");
    let stats = monitor.stats();
    let engine = without_cache_hits(&stats.to_json());
    totals.0 += stats.events;
    totals.1 += stats.triggers;
    monitor.finish(&heap);
    let reference = traces
        .iter()
        .map(|trace| {
            let run = |p: &rv_monitor::spec::CompiledProperty| {
                dedup(monitor_trace(&p.formalism, p.goal, trace).triggers)
            };
            spec.properties.iter().map(run).collect()
        })
        .collect();
    let outcome = Outcome {
        engine,
        stats: normalized_stats(stats),
        finished: normalized_stats(monitor.stats()),
        heap: shape(&heap),
        totals,
        verdicts: fired.into_iter().map(|seg| seg.into_iter().map(dedup).collect()).collect(),
    };
    (outcome, reference)
}

fn normalized_stats(mut s: EngineStats) -> EngineStats {
    s.cache_hits = 0;
    s
}

/// A drained tenant's end state, and how it delivered its reports.
struct Finished {
    outcome: Outcome,
    snap: TenantSnapshot,
    /// Reports the tenant's trigger log serves from the start.
    delivered: usize,
    /// `(event_seq, ordinal)` of every `Trigger` record in its journal.
    journal_keys: Vec<(u64, u32)>,
}

/// Barriers every session, reads the tenant's books, and drains it; then
/// reads the journal and recovers the directory offline.
fn finish(svc: Service, feeders: &mut [Feeder; 2], config: &ServiceConfig) -> Finished {
    for feeder in feeders.iter_mut() {
        feeder.barrier(&svc);
    }
    let snap = tenant_snapshot(&svc);
    let stats = svc.tenant_stats_json(TENANT).expect("tenant stats");
    let engine = without_cache_hits(json_object_field(&stats, "engine").expect("engine stats"));
    let mut delivered = 0;
    let mut after = (0, 0);
    loop {
        let batch = svc.poll_triggers(TENANT, after, 4096).expect("poll the trigger log");
        let Some(last) = batch.last() else { break };
        delivered += batch.len();
        after = last.key();
    }
    assert_eq!(svc.drain(), 1, "the tenant drains to a checkpoint");
    drop(svc);

    let dir = config.root.join(TENANT);
    let scan = read_journal(&dir).expect("journal scans");
    let reloads: Vec<u64> = scan
        .records
        .iter()
        .filter(|sr| matches!(sr.record, Record::Aux { tag: AUX_RELOAD, .. }))
        .map(|sr| sr.seq)
        .collect();
    let mut keyed = Vec::new();
    for sr in &scan.records {
        if let Record::Trigger { event_seq, ordinal, block, step, verdict, binding } = sr.record {
            let segment = reloads.iter().filter(|&&r| r < event_seq).count();
            let t = Trigger { step: step as usize, binding, verdict };
            keyed.push(((event_seq, ordinal), segment, usize::from(block), t));
        }
    }
    keyed.sort_by_key(|k| k.0);
    let rec = recover(&dir, ReplayFrom::LatestCheckpoint, &config.engine, |_| NoopObserver)
        .expect("the drained tenant recovers offline");
    let blocks = rec.monitor.engines().len();
    let mut verdicts = vec![vec![Vec::new(); blocks]; reloads.len() + 1];
    for &(_, segment, block, t) in &keyed {
        verdicts[segment][block].push(t);
    }
    let mut monitor = rec.monitor;
    let stats = monitor.stats();
    monitor.finish(&rec.heap);
    Finished {
        outcome: Outcome {
            engine,
            stats: normalized_stats(stats),
            finished: normalized_stats(monitor.stats()),
            heap: shape(&rec.heap),
            totals: (snap.events, snap.triggers),
            verdicts: verdicts
                .into_iter()
                .map(|seg| seg.into_iter().map(dedup).collect())
                .collect(),
        },
        snap,
        delivered,
        journal_keys: keyed.iter().map(|k| k.0).collect(),
    }
}

/// One property × policy × seed of the sweep.
struct Case<'a> {
    name: &'a str,
    source: &'a str,
    policy: GcPolicy,
    seed: u64,
    events: usize,
    checkpoint_every: u64,
    reload: bool,
}

/// What the sweep saw across its cases, so it can show it exercised
/// what it claims to.
#[derive(Default)]
struct Tally {
    /// Cases whose damage left no durable record, so the tenant started
    /// over at its sessions' next HELLO.
    started_over: usize,
    /// Sent lines the damage took from the journal, over all cases.
    lost_lines: u64,
    /// Resent lines the recovered tenants dropped as duplicates.
    deduped: u64,
    /// Reloads re-issued after a crash that the tenant had applied
    /// already, and answered without a second cutover.
    reloads_reapplied: usize,
}

impl Case<'_> {
    fn config(&self, root: &Path) -> ServiceConfig {
        ServiceConfig {
            root: root.to_path_buf(),
            checkpoint_every: self.checkpoint_every,
            engine: EngineConfig { policy: self.policy, ..EngineConfig::default() },
            ..ServiceConfig::default()
        }
    }

    /// Runs the uninterrupted tenant once, then one crashed tenant per
    /// kill class, and checks each against it, the oracle and the
    /// reference.
    fn sweep(&self, tally: &mut Tally) {
        let spec = CompiledSpec::from_source(self.source).expect("catalog property compiles");
        let script = Script::new(&spec, self.seed, self.events, self.reload);
        let label = format!("{}/{:?}/seed {}", self.name, self.policy, self.seed);
        let root = std::env::temp_dir().join(format!(
            "rv-crash-sweep-{}-{}-{:?}-{}",
            std::process::id(),
            self.name,
            self.policy,
            self.seed
        ));
        let _ = std::fs::remove_dir_all(&root);
        let (oracle, reference) = oracle(&spec, &self.config(&root).engine, &script);
        assert_eq!(oracle.verdicts, reference, "{label}: oracle vs Figure 5 reference");

        let config = self.config(&root.join("uninterrupted"));
        let svc = Service::new(config.clone()).expect("service starts");
        svc.admit(TENANT, self.source, TenantOptions::default()).expect("admit");
        let mut feeders = sessions();
        script.feed(&svc, &mut feeders, self.source, 0..script.lines.len(), true);
        let twin = finish(svc, &mut feeders, &config);
        self.check(&format!("{label}/uninterrupted"), &twin, &oracle);

        for kill in KillClass::ALL {
            let ctx = format!("{label}/{kill:?}");
            let dir = root.join(format!("{kill:?}"));
            // A panic deeper in (a feeder, a reload, a poll) names its case.
            let run = AssertUnwindSafe(|| self.crash(&script, kill, &dir, tally, &ctx));
            let crashed = catch_unwind(run).unwrap_or_else(|_| panic!("{ctx}: case failed"));
            self.check(&ctx, &crashed, &oracle);
            assert_eq!(crashed.outcome, twin.outcome, "{ctx}: crashed vs uninterrupted tenant");
            assert_eq!(crashed.snap.spec_version, twin.snap.spec_version, "{ctx}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Feeds the script up to a seeded line, crashes the service, damages
    /// the tenant per `kill`, recovers it under a new service, resends
    /// from each session's resume point, and finishes.
    fn crash(
        &self,
        script: &Script,
        kill: KillClass,
        root: &Path,
        tally: &mut Tally,
        ctx: &str,
    ) -> Finished {
        let n = script.lines.len();
        let mut rng = SplitMix64::new(
            self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(kill.salt()),
        );
        let crash_at = n / 4 + rng.gen_range(n / 2);
        let config = self.config(root);
        let mut feeders = sessions();
        {
            let svc = Service::new(config.clone()).expect("service starts");
            svc.admit(TENANT, self.source, TenantOptions::default()).expect("admit");
            script.feed(&svc, &mut feeders, self.source, 0..crash_at, true);
            // Dropped without drain(): the crash path.
        }
        let dir = root.join(TENANT);
        kill.damage(&dir, &mut rng);
        let durable = read_journal(&dir).expect("damaged journal scans").records.len();

        let svc = Service::new(config.clone()).expect("service restarts");
        let (ok, failed) = svc.recover_all().expect("root is readable");
        if durable == 0 {
            // Not even the spec record survived: recovery cannot rebuild
            // the tenant, and the sessions' HELLO below starts it over.
            let refused = matches!(&failed[..], [(t, (REJECT_TENANT_FAILED, _))] if t == TENANT);
            assert!(ok.is_empty() && refused, "{ctx}: recovered {ok:?}, failed {failed:?}");
            tally.started_over += 1;
        } else {
            assert_eq!(ok, [TENANT], "{ctx}: recovery failed: {failed:?}");
        }
        if let KillClass::TruncateJournal(0) = kill {
            assert_eq!(durable, 0, "{ctx}: a journal cut to 0 bytes holds nothing");
        }
        svc.admit(TENANT, self.source, TenantOptions::default())
            .unwrap_or_else(|e| panic!("{ctx}: HELLO after recovery: {e:?}"));
        for feeder in &mut feeders {
            let sent = feeder.next_cseq() - 1;
            tally.lost_lines += sent - feeder.resume(&svc);
        }
        let from = (0..n)
            .find(|&i| script.lines[i].1 >= feeders[script.lines[i].0].next_cseq())
            .unwrap_or(n);
        if script.feed(&svc, &mut feeders, self.source, from..n, false) {
            tally.reloads_reapplied += 1;
        }
        let done = finish(svc, &mut feeders, &config);
        tally.deduped += done.snap.deduped_events;
        done
    }

    /// The checks every finished tenant must pass against the oracle.
    fn check(&self, ctx: &str, got: &Finished, oracle: &Outcome) {
        assert_eq!(&got.outcome, oracle, "{ctx}: tenant vs offline oracle");
        assert_eq!(got.snap.gap_dropped_events, 0, "{ctx}: gap-dropped lines");
        let keys: HashSet<_> = got.journal_keys.iter().collect();
        assert_eq!(keys.len(), got.journal_keys.len(), "{ctx}: duplicate trigger keys");
        assert_eq!(got.journal_keys.len() as u64, oracle.totals.1, "{ctx}: journaled reports");
        assert_eq!(got.delivered as u64, oracle.totals.1, "{ctx}: delivered reports");
    }
}

/// The crash sweep proper: every kill class against every catalog
/// property under the paper's coenable policy.
#[test]
fn every_property_survives_every_kill_class() {
    let mut tally = Tally::default();
    for property in Property::ALL {
        let spec = compiled(property).expect("catalog property compiles");
        let case = Case {
            name: &spec.name,
            source: property.source(),
            policy: GcPolicy::CoenableLazy,
            seed: 23,
            events: 96,
            checkpoint_every: 8,
            reload: false,
        };
        case.sweep(&mut tally);
    }
    assert_eq!(tally.started_over, Property::ALL.len(), "every 0-byte cut starts over");
    assert!(tally.lost_lines > 0, "no kill took a sent line");
    assert!(tally.deduped > 0, "no resent line was deduplicated");
}

/// Seeds × policies on one representative property, each run with one
/// spec reload at a seeded line: the crash point and the damage move with
/// the seed, and the kill lands before, on or after the cutover.
#[test]
fn seed_sweep_crashes_at_many_offsets_without_duplicates() {
    let mut tally = Tally::default();
    for policy in POLICIES {
        for seed in [1u64, 2, 3, 5, 8] {
            let case = Case {
                name: "UnsafeIter",
                source: Property::UnsafeIter.source(),
                policy,
                seed,
                events: 80,
                checkpoint_every: 6,
                reload: true,
            };
            case.sweep(&mut tally);
        }
    }
    assert!(tally.started_over >= 15, "every 0-byte cut starts over");
    assert!(
        tally.reloads_reapplied > 0,
        "no resumed feed re-issued a reload the tenant had applied"
    );
    assert!(tally.lost_lines > 0, "no kill took a sent line");
    assert!(tally.deduped > 0, "no resent line was deduplicated");
}

/// Seeded round-trip: each seed chooses the property, policy, trace
/// length and split point, and seeds the trace itself.
#[test]
fn any_split_point_round_trips() {
    for seed in 0..48 {
        let mut rng = SplitMix64::new(seed);
        let property = Property::ALL[rng.gen_range(Property::ALL.len())];
        let policy = POLICIES[rng.gen_range(POLICIES.len())];
        let events = 8 + rng.gen_range(56);
        let spec = compiled(property).expect("catalog property compiles");
        let steps = schedule(&spec, seed, events).len();
        let split = ((steps as f64) * rng.next_f64()) as usize;
        round_trip_one(&spec, policy, seed, events, split.min(steps));
    }
}
