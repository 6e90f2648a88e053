//! `loadgen` — multi-tenant load generator for `rvmond`.
//!
//! Drives one logical session per tenant against a running `rvmond`
//! through [`ResilientClient`], generating UnsafeIter event mixes whose
//! shape (iterator fan-out, `next` density, GC cadence) is derived from
//! the DaCapo workload profiles in `rv_workloads`. A `SYNC` barrier
//! every `--sync-every` events measures the *end-to-end durable*
//! latency — the round trip covers queueing, engine processing, and the
//! journal fsync — into an [`Histogram`], and the run ends with a
//! per-tenant SLO table (p50/p99/p99.9) plus optional JSON for
//! EXPERIMENTS.md.
//!
//! Because the transport is the resilient client, a connection fault —
//! or an `rvmon netchaos` proxy in the middle — costs reconnects and
//! resends, never events: the goal-report stream is pulled exactly-once
//! and digested into `trigger_hash`, which a differential harness can
//! compare against a clean run. `--fatal-at N` injects a worker-fatal
//! `!fatal` directive after N events to exercise rvmond's supervisor
//! mid-run.
//!
//! ```text
//! loadgen --addr HOST:PORT --tenant NAME=PROFILE[,panic] ...
//!         [--events N] [--sync-every K] [--max-live N] [--fatal-at N]
//!         [--reload-at N] [--reload-spec FILE]
//!         [--journal-retries N] [--journal-backoff-ms N] [--json]
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rv_core::obs::{json_number_field, json_object_field};
use rv_core::service::{TenantOptions, TENANT_FLAG_ALLOW_FATAL, TENANT_FLAG_PANIC_HANDLER};
use rv_core::{ClientStats, Histogram, ReconnectPolicy, ResilientClient};
use rv_heap::SplitMix64;
use rv_workloads::Profile;

/// The spec every generated tenant monitors (UnsafeIter, the paper's
/// running example).
const SPEC: &str = "\
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report \"improper Concurrent Modification found!\"; }
}
";

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen --addr HOST:PORT --tenant NAME=PROFILE[,panic] [--tenant ...] \
         [--events N] [--sync-every K] [--max-live N] [--fatal-at N] \
         [--reload-at N] [--reload-spec FILE] \
         [--journal-retries N] [--journal-backoff-ms N] [--json]"
    );
    ExitCode::from(2)
}

struct TenantPlan {
    name: String,
    profile: Profile,
    panic_handler: bool,
}

struct TenantOutcome {
    name: String,
    profile: &'static str,
    sent: u64,
    triggers: u64,
    /// FNV-1a over the rendered trigger stream, in key order — two runs
    /// observed the same reports iff the hashes match.
    trigger_hash: u64,
    client: ClientStats,
    failed: Option<String>,
    latency: Histogram,
    elapsed: Duration,
    /// The server's STATS reply for this tenant — carries per-stage
    /// latency percentiles and the SLO budget alongside engine/journal
    /// counters. `None` when the tenant never got far enough to ask.
    server_stats: Option<String>,
}

impl TenantOutcome {
    fn empty(name: &str, profile: &'static str, failed: String) -> TenantOutcome {
        TenantOutcome {
            name: name.to_owned(),
            profile,
            sent: 0,
            triggers: 0,
            trigger_hash: 0,
            client: ClientStats::default(),
            failed: Some(failed),
            latency: Histogram::new(),
            elapsed: Duration::ZERO,
            server_stats: None,
        }
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives the event mix from the profile: one `create` per iterator,
/// `nexts_per_iter` `next`s per create, and an `update` rate that keeps
/// roughly `map_fraction` of collections mutated mid-iteration.
struct Generator {
    rng: SplitMix64,
    colls: u64,
    iters: Vec<(u64, u64)>,
    p_create: f64,
    p_update: f64,
    gc_period: usize,
    emitted: usize,
}

impl Generator {
    fn new(p: &Profile) -> Generator {
        let nexts = p.nexts_per_iter.max(0.1);
        // Weights: every create is followed by ~nexts `next`s, so the
        // steady-state create share is 1/(1+nexts).
        let p_create = 1.0 / (1.0 + nexts);
        let p_update = (p.map_fraction.clamp(0.01, 0.9)) * p_create;
        Generator {
            rng: SplitMix64::new(p.seed),
            colls: 0,
            iters: Vec::new(),
            p_create,
            p_update,
            gc_period: p.gc_period.max(64),
            emitted: 0,
        }
    }

    fn unit(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// The next trace line (events plus the occasional `!free`/`!gc`).
    fn next_line(&mut self) -> String {
        self.emitted += 1;
        if self.emitted % self.gc_period == 0 && self.iters.len() > 8 {
            // Retire the oldest half of the live iterators, then collect:
            // the monitor GC behind dead params is part of the workload.
            let retire: Vec<(u64, u64)> = self.iters.drain(..self.iters.len() / 2).collect();
            let mut line = String::from("!free");
            for (c, i) in retire {
                line.push_str(&format!(" i{i}"));
                let _ = c;
            }
            line.push_str("\n!gc");
            return line;
        }
        let roll = self.unit();
        if self.iters.is_empty() || roll < self.p_create {
            let c = if self.colls == 0 || self.unit() < 0.5 {
                self.colls += 1;
                self.colls
            } else {
                1 + self.rng.next_u64() % self.colls
            };
            let i = self.emitted as u64;
            self.iters.push((c, i));
            format!("create c{c} i{i}")
        } else if roll < self.p_create + self.p_update {
            let (c, _) = self.iters[(self.rng.next_u64() as usize) % self.iters.len()];
            format!("update c{c}")
        } else {
            let (_, i) = self.iters[(self.rng.next_u64() as usize) % self.iters.len()];
            format!("next i{i}")
        }
    }
}

struct DriveConfig {
    events: u64,
    sync_every: u64,
    max_live: Option<u32>,
    fatal_at: Option<u64>,
    /// After this many events: barrier to quiescence, then hot-reload
    /// the spec through the same session. The quiescent barrier pins
    /// the cutover to a deterministic journal position, which is what
    /// lets a chaos run stay byte-identical to a clean one.
    reload_at: Option<u64>,
    reload_spec: Option<String>,
    journal_retries: Option<u32>,
    journal_backoff_ms: Option<u32>,
}

fn drive_tenant(addr: &str, plan: &TenantPlan, cfg: &DriveConfig) -> TenantOutcome {
    let mut flags = if plan.panic_handler { TENANT_FLAG_PANIC_HANDLER } else { 0 };
    if cfg.fatal_at.is_some() {
        flags |= TENANT_FLAG_ALLOW_FATAL;
    }
    let opts = TenantOptions {
        flags,
        max_live_monitors: cfg.max_live,
        journal_retries: cfg.journal_retries,
        journal_backoff_ms: cfg.journal_backoff_ms,
    };
    // The session id only has to be stable per logical client so that a
    // rerun of the same plan dedups identically server-side.
    let session = fnv1a(0, plan.name.as_bytes()) | 1;
    let policy = ReconnectPolicy { seed: plan.profile.seed | 1, ..ReconnectPolicy::default() };
    let mut client = match ResilientClient::connect(addr, &plan.name, SPEC, opts, session, policy) {
        Ok(c) => c,
        Err(e) => {
            return TenantOutcome::empty(&plan.name, plan.profile.name, format!("connect: {e}"));
        }
    };

    let mut outcome = TenantOutcome {
        name: plan.name.clone(),
        profile: plan.profile.name,
        sent: 0,
        triggers: 0,
        trigger_hash: 0,
        client: ClientStats::default(),
        failed: None,
        latency: Histogram::new(),
        elapsed: Duration::ZERO,
        server_stats: None,
    };
    let mut generator = Generator::new(&plan.profile);
    let mut fatal_pending = cfg.fatal_at;
    let mut reload_pending = cfg.reload_at;
    let started = Instant::now();
    'drive: while outcome.sent < cfg.events {
        for line in generator.next_line().split('\n') {
            if let Err(e) = client.send(line) {
                outcome.failed = Some(format!("send: {e}"));
                break 'drive;
            }
            outcome.sent += 1;
            if fatal_pending == Some(outcome.sent) {
                // Worker-fatal fault injection: the tenant journals the
                // directive, fsyncs, and dies — the supervisor's
                // problem now. Our resend window replays through the
                // restart and the server dedups it.
                fatal_pending = None;
                if let Err(e) = client.send("!fatal") {
                    outcome.failed = Some(format!("send !fatal: {e}"));
                    break 'drive;
                }
            }
        }
        if outcome.sent % cfg.sync_every == 0 {
            let t0 = Instant::now();
            if let Err(e) = client.sync() {
                outcome.failed = Some(format!("sync: {e}"));
                break 'drive;
            }
            let micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            outcome.latency.record(micros);
        }
        if reload_pending.is_some_and(|n| outcome.sent >= n) {
            reload_pending = None;
            let spec = cfg.reload_spec.as_deref().unwrap_or(SPEC);
            // Quiesce first: with every sent line acknowledged, the
            // cutover lands at a deterministic journal position.
            let reloaded =
                client.sync().and_then(|_| client.reload(fnv1a(0, spec.as_bytes()) | 1, spec));
            if let Err(e) = reloaded {
                outcome.failed = Some(format!("reload: {e}"));
                break 'drive;
            }
        }
    }
    if outcome.failed.is_none() {
        if let Err(e) = client.sync() {
            outcome.failed = Some(format!("final sync: {e}"));
        }
    }
    outcome.elapsed = started.elapsed();

    // Pull the goal-report stream exactly-once (the client filters by
    // its (event_seq, ordinal) HWM) and digest it in key order. The
    // final sync already made every report visible; the extra empty
    // polls absorb stale reply frames a chaotic wire may still deliver.
    if outcome.failed.is_none() {
        let mut empties = 0;
        while empties < 3 {
            match client.poll_triggers(512) {
                Ok(batch) if batch.is_empty() => {
                    empties += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(batch) => {
                    empties = 0;
                    for t in batch {
                        outcome.triggers += 1;
                        outcome.trigger_hash = fnv1a(outcome.trigger_hash, t.render().as_bytes());
                        outcome.trigger_hash = fnv1a(outcome.trigger_hash, b"\n");
                    }
                }
                Err(e) => {
                    outcome.failed = Some(format!("poll: {e}"));
                    break;
                }
            }
        }
    }
    // Pull the server-side view last: the stage histograms now cover
    // every line this run pushed through the pipeline, so the reported
    // percentiles attribute the SYNC round trip we measured client-side.
    if outcome.failed.is_none() {
        outcome.server_stats = client.server_stats_json().ok();
    }
    outcome.client = client.stats();
    let _ = client.bye();
    outcome
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut plans: Vec<TenantPlan> = Vec::new();
    let mut json = false;
    let mut cfg = DriveConfig {
        events: 20_000,
        sync_every: 64,
        max_live: None,
        fatal_at: None,
        reload_at: None,
        reload_spec: None,
        journal_retries: None,
        journal_backoff_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return usage(),
            },
            "--tenant" => {
                let Some(v) = it.next() else { return usage() };
                let Some((name, rest)) = v.split_once('=') else { return usage() };
                let (profile_name, panic_handler) = match rest.split_once(',') {
                    Some((p, "panic")) => (p, true),
                    Some(_) => return usage(),
                    None => (rest, false),
                };
                let Some(profile) = Profile::by_name(profile_name) else {
                    eprintln!("loadgen: unknown workload profile `{profile_name}`");
                    return ExitCode::from(2);
                };
                plans.push(TenantPlan { name: name.to_owned(), profile, panic_handler });
            }
            "--events" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.events = n,
                None => return usage(),
            },
            "--sync-every" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cfg.sync_every = n,
                _ => return usage(),
            },
            "--max-live" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cfg.max_live = Some(n),
                _ => return usage(),
            },
            "--fatal-at" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cfg.fatal_at = Some(n),
                _ => return usage(),
            },
            "--reload-at" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cfg.reload_at = Some(n),
                _ => return usage(),
            },
            "--reload-spec" => match it.next().map(std::fs::read_to_string) {
                Some(Ok(src)) => cfg.reload_spec = Some(src),
                Some(Err(e)) => {
                    eprintln!("loadgen: cannot read reload spec: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--journal-retries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cfg.journal_retries = Some(n),
                _ => return usage(),
            },
            "--journal-backoff-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.journal_backoff_ms = Some(n),
                None => return usage(),
            },
            "--json" => json = true,
            _ => return usage(),
        }
    }
    let Some(addr) = addr else { return usage() };
    if plans.is_empty() {
        return usage();
    }

    let cfg = std::sync::Arc::new(cfg);
    let handles: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            let addr = addr.clone();
            let cfg = std::sync::Arc::clone(&cfg);
            std::thread::spawn(move || drive_tenant(&addr, &plan, &cfg))
        })
        .collect();
    let outcomes: Vec<TenantOutcome> =
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect();

    println!(
        "{:<10} {:<10} {:>9} {:>7} {:>9} {:>10} {:>9} {:>9} {:>9}  status",
        "tenant", "profile", "events", "reconn", "triggers", "ev/s", "p50us", "p99us", "p999us"
    );
    let mut failures = 0;
    for o in &outcomes {
        let rate = if o.elapsed.as_secs_f64() > 0.0 {
            o.sent as f64 / o.elapsed.as_secs_f64()
        } else {
            0.0
        };
        println!(
            "{:<10} {:<10} {:>9} {:>7} {:>9} {:>10.0} {:>9.0} {:>9.0} {:>9.0}  {}",
            o.name,
            o.profile,
            o.sent,
            o.client.reconnects,
            o.triggers,
            rate,
            o.latency.quantile(0.50),
            o.latency.quantile(0.99),
            o.latency.quantile(0.999),
            o.failed.as_deref().unwrap_or("ok"),
        );
        if o.failed.is_some() {
            failures += 1;
        }
    }
    // Server-side stage attribution: where the SYNC round trip actually
    // went, per tenant, from the daemon's own stage histograms.
    if outcomes.iter().any(|o| o.server_stats.is_some()) {
        println!();
        println!(
            "{:<10} {:<16} {:>9} {:>9} {:>9} {:>9}",
            "tenant", "stage", "count", "p50us", "p99us", "maxus"
        );
        for o in &outcomes {
            let Some(stats) = o.server_stats.as_deref() else { continue };
            let Some(stages) = json_object_field(stats, "stages") else { continue };
            for stage in [
                "wire_read",
                "admission",
                "queue_wait",
                "engine",
                "journal_append",
                "journal_fsync",
                "trigger_delivery",
            ] {
                let count = json_number_field(stages, &format!("{stage}_count")).unwrap_or(0.0);
                if count == 0.0 {
                    continue;
                }
                println!(
                    "{:<10} {:<16} {:>9.0} {:>9.1} {:>9.1} {:>9.1}",
                    o.name,
                    stage,
                    count,
                    json_number_field(stages, &format!("{stage}_p50_us")).unwrap_or(0.0),
                    json_number_field(stages, &format!("{stage}_p99_us")).unwrap_or(0.0),
                    json_number_field(stages, &format!("{stage}_max_us")).unwrap_or(0.0),
                );
            }
        }
    }
    if json {
        let rows: Vec<String> = outcomes
            .iter()
            .map(|o| {
                format!(
                    "{{\"tenant\":\"{}\",\"profile\":\"{}\",\"events\":{},\
                     \"triggers\":{},\"trigger_hash\":\"{:016x}\",\"elapsed_ms\":{},\
                     \"sync_p50_us\":{:.0},\"sync_p99_us\":{:.0},\"sync_p999_us\":{:.0},\
                     \"client\":{},\"stages\":{},\"slo\":{},\"failed\":{}}}",
                    o.name,
                    o.profile,
                    o.sent,
                    o.triggers,
                    o.trigger_hash,
                    o.elapsed.as_millis(),
                    o.latency.quantile(0.50),
                    o.latency.quantile(0.99),
                    o.latency.quantile(0.999),
                    o.client.to_json(),
                    o.server_stats
                        .as_deref()
                        .and_then(|s| json_object_field(s, "stages"))
                        .unwrap_or("null"),
                    o.server_stats
                        .as_deref()
                        .and_then(|s| json_object_field(s, "slo"))
                        .unwrap_or("null"),
                    o.failed.as_ref().map_or("null".into(), |f| format!("\"{f}\"")),
                )
            })
            .collect();
        println!("[{}]", rows.join(","));
    }
    // A partial run is still a report: exit 1 only when every tenant
    // failed outright.
    if failures == outcomes.len() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
