//! The daemon workloads: closed-loop tenants drive the shipped `rvmond`
//! binary over loopback through `ResilientClient` — one thread and one
//! connection per tenant, a `SYNC` barrier every 64 lines, each client
//! waiting on its barrier. Every repetition starts `rvmond` on a fresh
//! root, SIGKILLs it after the final barrier, and times the restart that
//! recovers the root.
//!
//! The correctness reference is an in-process replay of the same lines
//! through a `PropertyMonitor` built the way a tenant builds its own; the
//! replay also gives these workloads their engine-layer numbers.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rv_core::service::{TenantOptions, TriggerRecord};
use rv_core::{
    load_latest_checkpoint, read_journal, Binding, ChaosProfile, ChaosProxy, ClientStats,
    EngineConfig, NoopObserver, PhaseProfiler, ReconnectPolicy, ResilientClient,
};
use rv_heap::{Heap, HeapConfig, HeapStats, ObjId};
use rv_logic::{ParamId, Verdict};
use rv_spec::CompiledSpec;
use rv_workloads::Profile;

use crate::layers::EngineLayers;
use crate::monitor::{logic_step_ns, Monitors, Observed, Pass, BATCH};
use crate::report::{
    fnv1a, json_number, json_object, median, num, quantile_u64, splitmix64, Spans,
};
use crate::{Outcome, RunCfg};

/// The spec every tenant monitors: UnsafeIter, the paper's running example.
pub const SPEC: &str = "\
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report \"improper Concurrent Modification found!\"; }
}
";

pub struct DaemonWorkload {
    rvmond: PathBuf,
    tenants: Vec<(&'static str, Profile)>,
    lines_per_tenant: usize,
    chaos: Option<ChaosProfile>,
    policy: ReconnectPolicy,
}

impl DaemonWorkload {
    /// Two tenants (avrora- and pmd-derived line mixes) on a clean wire.
    pub fn durable(rvmond: PathBuf) -> DaemonWorkload {
        DaemonWorkload {
            rvmond,
            tenants: vec![("avrora", Profile::avrora()), ("pmd", Profile::pmd())],
            lines_per_tenant: 8192,
            chaos: None,
            policy: ReconnectPolicy::default(),
        }
    }

    /// One tenant (the same lines as daemon-durable's avrora tenant)
    /// through an in-process chaos proxy that drops frames.
    pub fn lossy(rvmond: PathBuf) -> DaemonWorkload {
        DaemonWorkload {
            rvmond,
            tenants: vec![("avrora", Profile::avrora())],
            lines_per_tenant: 4096,
            chaos: Some(ChaosProfile {
                seed: 0x10_55,
                drop_permille: 2,
                ..ChaosProfile::default()
            }),
            policy: ReconnectPolicy {
                read_timeout: Duration::from_millis(250),
                ..ReconnectPolicy::default()
            },
        }
    }
}

// --- Line generation ------------------------------------------------------

/// UnsafeIter trace lines whose mix is derived from a workload profile:
/// one `create` per iterator, about `nexts_per_iter` `next`s per create,
/// an `update` rate following `map_fraction`, and every `gc_period` lines
/// the oldest half of the live iterators freed and the heap collected.
struct LineGen {
    rng: u64,
    colls: u64,
    iters: Vec<u64>,
    p_create: f64,
    p_update: f64,
    gc_period: usize,
    emitted: usize,
}

impl LineGen {
    fn new(p: &Profile, seed: u64) -> LineGen {
        let p_create = 1.0 / (1.0 + p.nexts_per_iter.max(0.1));
        LineGen {
            rng: seed,
            colls: 0,
            iters: Vec::new(),
            p_create,
            p_update: p.map_fraction.clamp(0.01, 0.9) * p_create,
            gc_period: p.gc_period.max(64),
            emitted: 0,
        }
    }

    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn push_next(&mut self, out: &mut Vec<String>) {
        self.emitted += 1;
        if self.emitted.is_multiple_of(self.gc_period) && self.iters.len() > 8 {
            let retire: Vec<u64> = self.iters.drain(..self.iters.len() / 2).collect();
            let names: Vec<String> = retire.iter().map(|i| format!("i{i}")).collect();
            out.push(format!("!free {}", names.join(" ")));
            out.push("!gc".to_owned());
            return;
        }
        let roll = self.unit();
        if self.iters.is_empty() || roll < self.p_create {
            let c = if self.colls == 0 || self.unit() < 0.5 {
                self.colls += 1;
                self.colls
            } else {
                1 + splitmix64(&mut self.rng) % self.colls
            };
            let i = self.emitted as u64;
            self.iters.push(i);
            out.push(format!("create c{c} i{i}"));
        } else if roll < self.p_create + self.p_update {
            // Any collection that already has an iterator.
            let c = 1 + splitmix64(&mut self.rng) % self.colls;
            out.push(format!("update c{c}"));
        } else {
            let i = self.iters[(splitmix64(&mut self.rng) as usize) % self.iters.len()];
            out.push(format!("next i{i}"));
        }
    }

    fn lines(p: &Profile, seed: u64, n: usize) -> Vec<String> {
        let mut g = LineGen::new(p, seed);
        let mut out = Vec::with_capacity(n + 1);
        while out.len() < n {
            g.push_next(&mut out);
        }
        out.truncate(n);
        out
    }
}

fn is_event(line: &str) -> bool {
    !line.starts_with('!')
}

// --- Trigger digest -------------------------------------------------------

/// FNV-1a over goal reports in delivery order. A report is digested as
/// its ordinal within the firing line, block, engine step, verdict and
/// binding — everything but the daemon's journal sequence number, which
/// an in-process replay has no journal to reproduce.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Digest {
    hash: u64,
    count: u64,
}

impl Digest {
    fn fold(&mut self, ordinal: u32, block: usize, step: u64, verdict: Verdict, binding: &Binding) {
        let line = format!("{ordinal} b{block} s{step} v{} {binding:?}\n", verdict.to_byte());
        self.hash = fnv1a(self.hash, line.as_bytes());
        self.count += 1;
    }

    fn fold_record(&mut self, t: &TriggerRecord) {
        self.fold(t.ordinal, usize::from(t.block), t.step, t.verdict, &t.binding);
    }
}

// --- In-process replay ----------------------------------------------------

/// Replays `lines` the way a fresh tenant applies them: a manual heap,
/// first-mention objects allocated and pinned, `!free` unpins, `!gc`
/// collects. With `monitors` the events are dispatched to slot 0; with
/// `digest` every new goal report is folded in. Returns the bare wall
/// time (meaningful without monitors) and the heap's statistics.
fn replay<O: Observed>(
    spec: &CompiledSpec,
    lines: &[String],
    mut monitors: Option<&mut Monitors<O>>,
    mut digest: Option<&mut Digest>,
) -> (f64, HeapStats) {
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Obj");
    let mut objects: HashMap<&str, ObjId> = HashMap::new();
    if let Some(m) = monitors.as_deref_mut() {
        m.start();
    }
    let t0 = Instant::now();
    for line in lines {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("!gc") => {
                heap.collect();
            }
            Some("!free") => {
                for name in words {
                    if let Some(&o) = objects.get(name) {
                        heap.unpin(o);
                    }
                }
            }
            Some(name) => {
                let event = spec.alphabet.lookup(name).expect("generated events are declared");
                let mut pairs = [(ParamId(0), ObjId::from_bits(0)); 3];
                let mut n = 0;
                for (&p, w) in spec.event_params[event.as_usize()].iter().zip(words) {
                    let o = *objects.entry(w).or_insert_with(|| {
                        let frame = heap.enter_frame();
                        let o = heap.alloc(class);
                        heap.pin(o);
                        heap.exit_frame(frame);
                        o
                    });
                    pairs[n] = (p, o);
                    n += 1;
                }
                let binding = Binding::from_pairs(&pairs[..n]);
                if let Some(m) = monitors.as_deref_mut() {
                    let engines = m.monitors[0].engines();
                    let before: Vec<usize> = match digest {
                        Some(_) => engines.iter().map(|e| e.triggers().len()).collect(),
                        None => Vec::new(),
                    };
                    m.process(&heap, 0, event, binding);
                    if let Some(d) = digest.as_deref_mut() {
                        let mut ordinal = 0u32;
                        for (block, engine) in m.monitors[0].engines().iter().enumerate() {
                            for t in &engine.triggers()[before[block]..] {
                                d.fold(ordinal, block, t.step as u64, t.verdict, &t.binding);
                                ordinal += 1;
                            }
                        }
                    }
                }
            }
            None => {}
        }
        if let Some(m) = monitors.as_deref_mut() {
            m.program_step();
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    if let Some(m) = monitors {
        m.at_exit(&heap);
    }
    (wall, heap.stats())
}

/// A tenant's engine configuration: the daemon default with goal reports
/// recorded (tenants always record them for the journal).
fn tenant_engine() -> EngineConfig {
    EngineConfig { record_triggers: true, ..EngineConfig::default() }
}

/// Every tenant's lines replayed through its own monitor, merged.
fn replay_monitored<O: Observed>(spec: &CompiledSpec, refs: &[Reference], traced: bool) -> Pass {
    refs.iter()
        .map(|r| {
            let mut m =
                Monitors::<O>::new(std::slice::from_ref(spec), &tenant_engine(), traced, 256);
            let (_, heap) = replay(spec, &r.lines, Some(&mut m), None);
            m.finish(heap)
        })
        .reduce(Pass::merge)
        .expect("at least one tenant")
}

/// Every tenant's lines replayed without monitoring: seconds and heap.
fn replay_bare(spec: &CompiledSpec, refs: &[Reference]) -> (f64, HeapStats) {
    let mut total = (0.0, HeapStats::default());
    for r in refs {
        let (secs, heap) = replay::<NoopObserver>(spec, &r.lines, None, None);
        total.0 += secs;
        total.1.collections += heap.collections;
        total.1.gc_pause_ns += heap.gc_pause_ns;
    }
    total
}

// --- The daemon process ---------------------------------------------------

/// A running `rvmond`; killed (SIGKILL) and reaped on drop.
struct Daemon {
    child: Child,
    reader: Option<JoinHandle<()>>,
    addr: String,
}

impl Daemon {
    /// Spawns `rvmond` on `root` and waits for its listen banner.
    fn spawn(bin: &Path, root: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .arg("--root")
            .arg(root)
            .args(["--port", "0", "--http-port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout after the banner so the daemon never
        // writes into a closed pipe.
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut banner = String::new();
            let _ = r.read_line(&mut banner);
            let _ = tx.send(banner);
            let _ = r.read_to_end(&mut Vec::new());
        });
        let mut daemon = Daemon { child, reader: Some(reader), addr: String::new() };
        let banner = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "no rvmond banner in 60 s"))?;
        // "rvmond ingest on ADDR http on http://ADDR/healthz"
        daemon.addr = banner
            .strip_prefix("rvmond ingest on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| io::Error::other(format!("unexpected rvmond banner {banner:?}")))?
            .to_owned();
        Ok(daemon)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

// --- One repetition -------------------------------------------------------

/// One tenant's closed loop as its client saw it.
struct TenantRun {
    acked_lines: u64,
    batches_ns: Vec<u64>,
    syncs_ns: Vec<u64>,
    sends_ns: Vec<u64>,
    start: Instant,
    end: Instant,
    digest: Digest,
    stats_json: String,
    client: ClientStats,
    error: Option<String>,
    spans: Spans,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn drive(mut client: ResilientClient, lines: &[String], traced: bool, epoch: Instant) -> TenantRun {
    let mut run = TenantRun {
        acked_lines: 0,
        batches_ns: Vec::new(),
        syncs_ns: Vec::new(),
        sends_ns: Vec::new(),
        start: Instant::now(),
        end: Instant::now(),
        digest: Digest::default(),
        stats_json: String::new(),
        client: ClientStats::default(),
        error: None,
        spans: Spans::new(epoch),
    };
    let mut batch_start = run.start;
    let mut sent = 0u64;
    let mut barrier = |client: &mut ResilientClient, run: &mut TenantRun, sent: u64| {
        let t0 = Instant::now();
        let result = client.sync();
        let t1 = Instant::now();
        if traced {
            run.spans.leaf("client.sync", t0, t1);
        }
        match result {
            Ok(_) => {
                run.acked_lines = sent;
                run.syncs_ns.push(nanos(t1 - t0));
                run.batches_ns.push(nanos(t1 - batch_start));
                batch_start = t1;
                true
            }
            Err(e) => {
                run.error = Some(format!("sync: {e}"));
                false
            }
        }
    };
    for line in lines {
        let t0 = traced.then(Instant::now);
        if let Err(e) = client.send(line) {
            run.error = Some(format!("send: {e}"));
            break;
        }
        if let Some(t0) = t0 {
            run.sends_ns.push(nanos(t0.elapsed()));
        }
        sent += 1;
        if sent.is_multiple_of(u64::from(BATCH)) && !barrier(&mut client, &mut run, sent) {
            break;
        }
    }
    if run.error.is_none() && !sent.is_multiple_of(u64::from(BATCH)) {
        barrier(&mut client, &mut run, sent);
    }
    run.end = Instant::now();
    if run.error.is_none() {
        // The final barrier made every report visible; empty polls
        // absorb stale reply frames a lossy wire may still deliver.
        let mut empties = 0;
        while empties < 2 {
            match client.poll_triggers(4096) {
                Ok(batch) if batch.is_empty() => {
                    empties += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(batch) => {
                    empties = 0;
                    batch.iter().for_each(|t| run.digest.fold_record(t));
                }
                Err(e) => {
                    run.error = Some(format!("poll: {e}"));
                    break;
                }
            }
        }
        let t0 = Instant::now();
        match client.server_stats_json() {
            Ok(json) => run.stats_json = json,
            Err(e) => run.error = Some(format!("stats: {e}")),
        }
        if traced {
            run.spans.leaf("client.server_stats_json", t0, Instant::now());
        }
    }
    run.client = client.bye();
    run
}

/// Per-tenant files under a daemon root after a run.
#[derive(Default, Clone, Copy)]
struct Disk {
    journal_files: u64,
    journal_bytes: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    total_bytes: u64,
}

fn scan_disk(dir: &Path) -> Disk {
    let mut d = Disk::default();
    let Ok(entries) = std::fs::read_dir(dir) else { return d };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let sub = scan_disk(&path);
            d.total_bytes += sub.total_bytes;
            continue;
        }
        let len = entry.metadata().map_or(0, |m| m.len());
        d.total_bytes += len;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("journal-") {
            d.journal_files += 1;
            d.journal_bytes += len;
        } else if name.starts_with("checkpoint-") && !name.ends_with(".tmp") {
            d.checkpoints += 1;
            d.checkpoint_bytes += len;
        }
    }
    d
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Reference values of one tenant's lines.
struct Reference {
    name: &'static str,
    lines: Vec<String>,
    events: u64,
    digest: Digest,
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    events_per_s: f64,
    batches_ns: Vec<u64>,
    syncs_ns: Vec<u64>,
    sends_ns: Vec<u64>,
    /// Per tenant, per stage label: (p50, p99) in µs from STATS.
    stages: Vec<HashMap<&'static str, (f64, f64)>>,
    fsyncs: u64,
    reconnects: u64,
    resent: u64,
    lines: u64,
    faults: u64,
    disk: Vec<(&'static str, Disk)>,
    recover_s: f64,
    read_journal_ms: f64,
    load_checkpoint_ms: f64,
    replayed_events: u64,
}

const STAGES: [&str; 5] = ["wire_read", "queue_wait", "engine", "journal_append", "journal_fsync"];

fn tenant_counter(stats_json: &str, key: &str) -> Option<u64> {
    json_object(stats_json, "tenant").and_then(|t| json_number(t, key)).map(|v| v as u64)
}

impl DaemonWorkload {
    fn session(name: &str, salt: &str) -> u64 {
        fnv1a(fnv1a(0, name.as_bytes()), salt.as_bytes()) | 1
    }

    #[allow(clippy::too_many_lines)]
    fn rep(
        &self,
        cfg: &RunCfg,
        refs: &[Reference],
        index: usize,
        traced: bool,
        out: &mut Outcome,
    ) -> io::Result<Rep> {
        let mut rep = Rep::default();
        let root = cfg.out_dir.join(format!("{}-{}-r{index}", cfg.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let span = out.spans.enter(format!("rep{index}{}", if traced { " traced" } else { "" }));
        let t0 = Instant::now();
        let mut daemon = Daemon::spawn(&self.rvmond, &root)?;
        let proxy = match self.chaos {
            Some(profile) => Some(ChaosProxy::start(&daemon.addr, profile)?),
            None => None,
        };
        let addr = proxy.as_ref().map_or_else(|| daemon.addr.clone(), ChaosProxy::addr);
        let mut clients = Vec::new();
        for r in refs {
            let policy = ReconnectPolicy { seed: Self::session(r.name, "jitter"), ..self.policy };
            let session = Self::session(r.name, "run");
            clients.push(ResilientClient::connect(
                &addr,
                r.name,
                SPEC,
                TenantOptions::default(),
                session,
                policy,
            )?);
        }
        rep.setup_s = t0.elapsed().as_secs_f64();
        out.spans.leaf("setup: spawn rvmond + connect", t0, Instant::now());

        let runs: Vec<TenantRun> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(refs)
                .map(|(client, r)| s.spawn(move || drive(client, &r.lines, traced, cfg.epoch)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("tenant driver panicked")).collect()
        });
        rep.faults = proxy.as_ref().map_or(0, |p| p.stats().faults());
        drop(proxy);
        // The crash: SIGKILL right after every tenant's final barrier.
        daemon.kill();

        let start = runs.iter().map(|r| r.start).min().expect("at least one tenant");
        let end = runs.iter().map(|r| r.end).max().expect("at least one tenant");
        let mut acked_events = 0;
        for (run, r) in runs.into_iter().zip(refs) {
            let gate = &mut out.gate;
            gate.attempt(r.lines.len() as u64);
            let lost = r.lines.len() as u64 - run.acked_lines;
            gate.check(run.error.is_none() && lost == 0, lost, || {
                format!(
                    "tenant {}: {} of {} lines unacknowledged ({:?})",
                    r.name,
                    lost,
                    r.lines.len(),
                    run.error
                )
            });
            acked_events +=
                r.lines[..run.acked_lines as usize].iter().filter(|l| is_event(l)).count() as u64;
            let expected = if cfg.inject_mismatch {
                Digest { hash: r.digest.hash ^ 1, ..r.digest }
            } else {
                r.digest
            };
            gate.check(run.digest == expected, r.lines.len() as u64, || {
                format!(
                    "tenant {}: trigger digest {:?} != in-process replay {expected:?}",
                    r.name, run.digest
                )
            });
            let served = (
                tenant_counter(&run.stats_json, "events"),
                tenant_counter(&run.stats_json, "triggers"),
            );
            gate.check(
                served == (Some(r.events), Some(r.digest.count)),
                r.lines.len() as u64,
                || {
                    format!(
                        "tenant {}: daemon counts {served:?} != replay ({}, {})",
                        r.name, r.events, r.digest.count
                    )
                },
            );
            let mut stages = HashMap::new();
            if let Some(st) = json_object(&run.stats_json, "stages") {
                for stage in STAGES {
                    let q = |k: &str| json_number(st, &format!("{stage}_{k}_us")).unwrap_or(0.0);
                    stages.insert(stage, (q("p50"), q("p99")));
                }
            }
            rep.stages.push(stages);
            rep.fsyncs += json_object(&run.stats_json, "journal")
                .and_then(|j| json_number(j, "syncs"))
                .map_or(0, |v| v as u64);
            rep.reconnects += run.client.reconnects;
            rep.resent += run.client.resent_lines;
            rep.lines += r.lines.len() as u64;
            rep.batches_ns.extend(run.batches_ns);
            rep.syncs_ns.extend(run.syncs_ns);
            rep.sends_ns.extend(run.sends_ns);
            out.spans.absorb(run.spans);
        }
        rep.events_per_s = acked_events as f64 / end.duration_since(start).as_secs_f64();
        for r in refs {
            rep.disk.push((r.name, scan_disk(&root.join(r.name))));
        }

        if traced {
            // The read path on a copy of the crashed root.
            let copy = root.with_extension("copy");
            copy_dir(&root, &copy)?;
            for r in refs {
                let dir = copy.join(r.name);
                let t0 = Instant::now();
                let scan = read_journal(&dir).map_err(|e| io::Error::other(e.to_string()))?;
                let t1 = Instant::now();
                let (checkpoint, _) = load_latest_checkpoint(&dir, scan.next_seq);
                let t2 = Instant::now();
                std::hint::black_box(checkpoint.map(|c| c.payload.len()));
                out.spans.leaf("recover.read_journal", t0, t1);
                out.spans.leaf("recover.load_latest_checkpoint", t1, t2);
                rep.read_journal_ms += (t1 - t0).as_secs_f64() * 1e3;
                rep.load_checkpoint_ms += (t2 - t1).as_secs_f64() * 1e3;
            }
            let _ = std::fs::remove_dir_all(&copy);
        }

        // Recovery: spawn on the crashed root until the listen banner.
        let t0 = Instant::now();
        let mut recovered = Daemon::spawn(&self.rvmond, &root)?;
        let t1 = Instant::now();
        rep.recover_s = (t1 - t0).as_secs_f64();
        out.spans.leaf("recover: spawn rvmond until banner", t0, t1);
        for r in refs {
            let mut client = ResilientClient::connect(
                &recovered.addr,
                r.name,
                SPEC,
                TenantOptions::default(),
                Self::session(r.name, "verify"),
                ReconnectPolicy::default(),
            )?;
            let json = client.server_stats_json()?;
            let _ = client.bye();
            let counts = (tenant_counter(&json, "events"), tenant_counter(&json, "triggers"));
            out.gate.check(
                counts == (Some(r.events), Some(r.digest.count)),
                r.lines.len() as u64,
                || {
                    format!(
                        "tenant {}: recovered counts {counts:?} != acknowledged ({}, {})",
                        r.name, r.events, r.digest.count
                    )
                },
            );
            rep.replayed_events += tenant_counter(&json, "recovered_events").unwrap_or(0);
        }
        recovered.kill();
        out.spans.exit(span);
        let _ = std::fs::remove_dir_all(&root);
        Ok(rep)
    }

    #[allow(clippy::too_many_lines)]
    pub fn run(&self, cfg: &RunCfg) -> io::Result<Outcome> {
        let mut out = Outcome::new(cfg);
        let spec = CompiledSpec::from_source(SPEC).expect("the UnsafeIter spec compiles");
        let refs: Vec<Reference> = self
            .tenants
            .iter()
            .map(|(name, profile)| {
                let lines =
                    LineGen::lines(profile, cfg.workload_seed(profile.seed), self.lines_per_tenant);
                let mut digest = Digest::default();
                let mut m = Monitors::<NoopObserver>::new(
                    std::slice::from_ref(&spec),
                    &tenant_engine(),
                    false,
                    256,
                );
                let _ = replay(&spec, &lines, Some(&mut m), Some(&mut digest));
                let events = lines.iter().filter(|l| is_event(l)).count() as u64;
                Reference { name, lines, events, digest }
            })
            .collect();

        // The in-process replay: monitoring overhead and peak monitor
        // memory on the same lines, bare and monitored in turn.
        let mut bare_s = Vec::new();
        let mut bare_gc_ms = Vec::new();
        let mut bare_collections = 0;
        let mut untraced_s = Vec::new();
        let mut peak_kib = 0.0;
        let span = out.spans.enter("in-process replay");
        for round in 0..31u32 {
            let mut pair = (0.0, 0.0);
            for bare_turn in [round.is_multiple_of(2), !round.is_multiple_of(2)] {
                if bare_turn {
                    let (secs, heap) = replay_bare(&spec, &refs);
                    pair.0 = secs;
                    bare_gc_ms.push(heap.gc_pause_ns as f64 / 1e6);
                    bare_collections = heap.collections;
                } else {
                    let pass = replay_monitored::<NoopObserver>(&spec, &refs, false);
                    pair.1 = pass.wall_s;
                    peak_kib = pass.peak_bytes as f64 / 1024.0;
                }
            }
            bare_s.push(pair.0);
            untraced_s.push(pair.1);
        }
        out.spans.exit(span);

        let mut reps = Vec::new();
        let mut traced_reps = Vec::new();
        let deadline = Instant::now() + cfg.seconds;
        while reps.len() < 3 || Instant::now() < deadline {
            let index = reps.len() + traced_reps.len();
            reps.push(self.rep(cfg, &refs, index, false, &mut out)?);
            if cfg.traced {
                let index = reps.len() + traced_reps.len();
                traced_reps.push(self.rep(cfg, &refs, index, true, &mut out)?);
            }
        }

        let med =
            |f: &dyn Fn(&Rep) -> f64, reps: &[Rep]| median(&reps.iter().map(f).collect::<Vec<_>>());
        let m = &mut out.metrics;
        if cfg.traced {
            let span = out.spans.enter("in-process replay traced");
            let traced: Vec<Pass> =
                (0..15).map(|_| replay_monitored::<NoopObserver>(&spec, &refs, true)).collect();
            let profiled = replay_monitored::<PhaseProfiler>(&spec, &refs, false);
            out.spans.exit(span);
            let layers = EngineLayers {
                traced: &traced,
                profiled: &profiled,
                untraced_s: &untraced_s,
                bare_s: &bare_s,
                bare_gc_ms: &bare_gc_ms,
                bare_collections,
                step_ns: logic_step_ns(std::slice::from_ref(&spec), cfg.seed),
            };
            layers.report(m);
            layers.check(&mut out.gate);
            for stage in STAGES {
                for (k, label) in [(0, "p50"), (1, "p99")] {
                    let values: Vec<f64> = traced_reps
                        .iter()
                        .flat_map(|r| r.stages.iter().filter_map(|s| s.get(stage)))
                        .map(|v| if k == 0 { v.0 } else { v.1 })
                        .collect();
                    m.push(&format!("service.{stage}_us_{label}"), median(&values), "us");
                }
            }
            m.push("journal.fsyncs", med(&|r| r.fsyncs as f64, &traced_reps), "count");
            let mut sends: Vec<u64> =
                traced_reps.iter().flat_map(|r| r.sends_ns.iter().copied()).collect();
            m.push("client.send_ns_p50", quantile_u64(&mut sends, 0.5), "ns");
            let mut syncs: Vec<u64> =
                traced_reps.iter().flat_map(|r| r.syncs_ns.iter().copied()).collect();
            m.push("client.sync_us_p50", quantile_u64(&mut syncs, 0.5) / 1e3, "us");
            m.push("client.sync_us_p99", quantile_u64(&mut syncs, 0.99) / 1e3, "us");
            m.push("client.sync_samples", syncs.len() as f64, "count");
            let disk = |f: &dyn Fn(&Disk) -> u64| {
                med(&|r: &Rep| r.disk.iter().map(|(_, d)| f(d)).sum::<u64>() as f64, &traced_reps)
            };
            m.push("journal.bytes", disk(&|d| d.journal_bytes), "bytes");
            m.push("journal.files", disk(&|d| d.journal_files), "count");
            m.push("snapshot.checkpoints", disk(&|d| d.checkpoints), "count");
            m.push("snapshot.bytes", disk(&|d| d.checkpoint_bytes), "bytes");
            m.push("disk_mib", disk(&|d| d.total_bytes) / f64::from(1 << 20), "MiB");
            m.push("recover_s", med(&|r| r.recover_s, &traced_reps), "s");
            m.push("recover.read_journal_ms", med(&|r| r.read_journal_ms, &traced_reps), "ms");
            m.push(
                "recover.load_checkpoint_ms",
                med(&|r| r.load_checkpoint_ms, &traced_reps),
                "ms",
            );
            m.push(
                "recover.replayed_events",
                med(&|r| r.replayed_events as f64, &traced_reps),
                "count",
            );
            m.push("client.reconnects", med(&|r| r.reconnects as f64, &traced_reps), "count");
            m.push("client.resent_lines", med(&|r| r.resent as f64, &traced_reps), "count");
            m.push(
                "client.useful_send_ratio",
                med(&|r| r.lines as f64 / (r.lines + r.resent) as f64, &traced_reps),
                "ratio",
            );
            m.push("netchaos.faults", med(&|r| r.faults as f64, &traced_reps), "count");
            let batches: usize = reps.iter().map(|r| r.batches_ns.len()).sum();
            m.push("batch.samples", batches as f64, "count");
            let overhead =
                (med(&|r| r.events_per_s, &reps) / med(&|r| r.events_per_s, &traced_reps) - 1.0)
                    * 100.0;
            m.push("trace.overhead_pct", overhead, "%");
        } else {
            let mut batches: Vec<u64> =
                reps.iter().flat_map(|r| r.batches_ns.iter().copied()).collect();
            m.push("events_per_s", med(&|r| r.events_per_s, &reps), "1/s");
            let overhead = median(&untraced_s) / median(&bare_s) - 1.0;
            m.push("overhead_pct", overhead * 100.0, "%");
            m.push("peak_kib", peak_kib, "KiB");
            m.push("batch_p50_us", quantile_u64(&mut batches, 0.5) / 1e3, "us");
            m.push("batch_p99_us", quantile_u64(&mut batches, 0.99) / 1e3, "us");
            m.push("setup_s", med(&|r| r.setup_s, &reps), "s");
        }

        let per_rep =
            |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| num(f(r))).collect::<Vec<_>>().join(",");
        let tenants: Vec<String> = reps[0]
            .disk
            .iter()
            .map(|(name, d)| {
                format!(
                    "{{\"tenant\":\"{name}\",\"journal_files\":{},\"journal_bytes\":{},\
                     \"checkpoints\":{},\"checkpoint_bytes\":{},\"total_bytes\":{}}}",
                    d.journal_files,
                    d.journal_bytes,
                    d.checkpoints,
                    d.checkpoint_bytes,
                    d.total_bytes
                )
            })
            .collect();
        let digests: Vec<String> = refs
            .iter()
            .map(|r| {
                format!(
                    "{{\"tenant\":\"{}\",\"lines\":{},\"events\":{},\"triggers\":{},\"digest\":\"{:016x}\"}}",
                    r.name,
                    r.lines.len(),
                    r.events,
                    r.digest.count,
                    r.digest.hash
                )
            })
            .collect();
        out.detail.push(format!(
            "\"daemon\":{{\"reps\":{},\"traced_reps\":{},\"lines_per_tenant\":{},\"sync_every\":{BATCH},\
             \"reference\":[{}],\"disk_rep0\":[{}],\"events_per_s\":[{}],\"batch_p50_us\":[{}],\
             \"batch_p99_us\":[{}],\"setup_s\":[{}],\"recover_s\":[{}]}}",
            reps.len(),
            traced_reps.len(),
            self.lines_per_tenant,
            digests.join(","),
            tenants.join(","),
            per_rep(&|r| r.events_per_s),
            per_rep(&|r| quantile_u64(&mut r.batches_ns.clone(), 0.5) / 1e3),
            per_rep(&|r| quantile_u64(&mut r.batches_ns.clone(), 0.99) / 1e3),
            per_rep(&|r| r.setup_s),
            per_rep(&|r| r.recover_s),
        ));
        Ok(out)
    }
}
