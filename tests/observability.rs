//! Observability battery against an in-process [`Service`]: request
//! traces land in the per-tenant ring with full stage breakdowns, SLO
//! error budgets burn under injected errors, the flight recorder black-
//! boxes a worker failure into a parseable dump, the Prometheus
//! exposition never emits a duplicate series, a circuit-broken tenant's
//! label set freezes, and the disabled trace path is structurally free.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rv_monitor::core::service::TENANT_FLAG_ALLOW_FATAL;
use rv_monitor::core::{
    Backpressure, FlightDump, NoopObserver, RequestTrace, RequestTraceRing, Service, ServiceConfig,
    SloConfig, SupervisorConfig, TenantOptions, TenantState, STAGE_COUNT,
};

mod common;
use common::Feeder;

const SPEC: &str = r#"
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report "improper Concurrent Modification found!"; }
}
"#;

fn scratch(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("rv-obs-{tag}-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(root: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        root: root.to_path_buf(),
        backpressure: Backpressure::Block,
        reply_timeout: Duration::from_secs(10),
        slo: SloConfig::parse("latency_target_us=1000000,latency_goal=0.5,window=64").unwrap(),
        ..ServiceConfig::default()
    }
}

/// Session 7 of `tenant`, reporting a 1µs wire-read span per line as if
/// each arrived on a session-stamped frame.
fn traced(tenant: &str) -> Feeder {
    let mut feed = Feeder::new(tenant, 7);
    feed.wire_ns = 1_000;
    feed
}

/// Drives `n` UnsafeIter matches (`2n + 1` events) through the traced
/// ingest path, then a barrier.
fn drive_traced(svc: &Service, feed: &mut Feeder, prefix: &str, n: usize) {
    for i in 0..n {
        feed.send(svc, &format!("create c {prefix}{i}"));
    }
    feed.send(svc, "update c");
    for i in 0..n {
        feed.send(svc, &format!("next {prefix}{i}"));
    }
    feed.barrier(svc);
}

#[test]
fn trace_ring_captures_stage_breakdown_exemplars() {
    let root = scratch("ring");
    let svc = Service::new(config(&root)).unwrap();
    svc.admit("t", SPEC, TenantOptions::default()).unwrap();
    drive_traced(&svc, &mut traced("t"), "i", 8);

    let path = svc.dump_flight("exemplars").unwrap();
    let dump = FlightDump::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(dump.reason, "exemplars");
    assert!(!dump.traces.is_empty(), "ring must hold request traces");
    for (tenant, trace) in &dump.traces {
        assert_eq!(tenant, "t");
        assert_eq!(trace.session, 7);
        assert_eq!(trace.stages.len(), STAGE_COUNT);
        // wire_read is journaled as handed in; engine + journal_append
        // are timed by the worker on every line.
        assert_eq!(trace.stages[0], 1_000, "wire span survives the pipeline");
        assert!(trace.stages[3] > 0, "engine span timed: {trace:?}");
        assert!(trace.stages[4] > 0, "journal_append span timed: {trace:?}");
        assert!(trace.total_ns() >= 1_000);
    }
    // The dump is idempotent text: render → parse → same shape.
    let text = std::fs::read_to_string(&path).unwrap();
    let reparsed = FlightDump::parse(&text).unwrap();
    assert_eq!(reparsed.traces.len(), dump.traces.len());
    assert!(!reparsed.render_text().is_empty());

    let _ = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn stage_sums_stay_consistent_with_sync_rtt() {
    let root = scratch("sums");
    let svc = Service::new(config(&root)).unwrap();
    svc.admit("t", SPEC, TenantOptions::default()).unwrap();

    let t0 = Instant::now();
    drive_traced(&svc, &mut traced("t"), "i", 32);
    let wall_us = t0.elapsed().as_micros() as f64;

    let json = svc.tenant_stats_json("t").unwrap();
    let sum = |stage: &str| -> f64 {
        let pat = format!("\"{stage}_sum_us\":");
        let rest =
            &json[json.find(&pat).unwrap_or_else(|| panic!("no {pat} in {json}")) + pat.len()..];
        let end = rest.find([',', '}']).unwrap();
        rest[..end].parse().unwrap()
    };
    // The worker-serial stages (engine, journal append + fsync, trigger
    // delivery) execute one request at a time on one thread, so their
    // sums must fit inside the wall clock of the drive — a gross
    // inconsistency means a stage is measuring something it shouldn't.
    // (queue_wait sums deliberately exceed wall clock: queued requests
    // wait concurrently.)
    let attributed =
        sum("engine") + sum("journal_append") + sum("journal_fsync") + sum("trigger_delivery");
    assert!(attributed > 0.0, "stages must attribute nonzero time: {json}");
    assert!(
        attributed <= wall_us,
        "serial stage sums ({attributed:.0}us) exceed the drive wall clock ({wall_us:.0}us): \
         {json}"
    );
    assert!(sum("queue_wait") > 0.0, "queue wait must be attributed: {json}");

    let _ = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn slo_error_budget_burns_under_injected_errors() {
    let root = scratch("slo");
    let mut cfg = config(&root);
    cfg.slo = SloConfig::parse("availability=0.99,window=100").unwrap();
    let svc = Service::new(cfg).unwrap();
    svc.admit("t", SPEC, TenantOptions::default()).unwrap();
    drive_traced(&svc, &mut traced("t"), "i", 8);

    let before = svc.prometheus();
    assert!(
        before.contains(
            "rvmond_slo_error_budget_remaining{tenant=\"t\",objective=\"availability\"} 1"
        ),
        "budget starts intact: {before}"
    );
    // Ten malformed-frame rejects in a 100-wide window at a 1% error
    // budget: the availability budget must be fully burnt.
    for _ in 0..10 {
        svc.note_request_error("t", 400, "malformed frame");
    }
    let after = svc.prometheus();
    assert!(
        after.contains(
            "rvmond_slo_error_budget_remaining{tenant=\"t\",objective=\"availability\"} 0"
        ),
        "ten errors in a 100-window at 0.99 must exhaust the budget: {after}"
    );
    let burn_line = after
        .lines()
        .find(|l| l.starts_with("rvmond_slo_burn_rate{tenant=\"t\",objective=\"availability\"}"))
        .expect("burn rate series");
    let burn: f64 = burn_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(burn > 1.0, "burn rate must exceed 1x: {burn_line}");
    let health = svc.healthz();
    assert!(health.contains("slo t "), "{health}");
    assert!(health.contains("bad=10"), "healthz must surface the errors: {health}");

    let _ = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn flight_dump_written_on_worker_failure() {
    let root = scratch("dump");
    let svc = Service::new(config(&root)).unwrap();
    let opts = TenantOptions { flags: TENANT_FLAG_ALLOW_FATAL, ..TenantOptions::default() };
    svc.admit("t", SPEC, opts).unwrap();
    let mut feed = traced("t");
    drive_traced(&svc, &mut feed, "i", 4);
    feed.send(&svc, "!fatal");

    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let snap = svc.snapshots().into_iter().find(|s| s.name == "t").unwrap();
        if matches!(snap.state, TenantState::Failed(_)) {
            break;
        }
        assert!(Instant::now() < deadline, "worker never failed: {}", snap.to_json());
        std::thread::sleep(Duration::from_millis(10));
    }
    // The black box lands next to the tenant directory, named after the
    // tenant and the failure class, without any operator involvement.
    let dump_path = root.join("flight-t-worker-fatal-0.rvfr");
    let deadline = Instant::now() + Duration::from_secs(15);
    while !dump_path.exists() {
        assert!(Instant::now() < deadline, "no flight dump at {}", dump_path.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    let dump = FlightDump::parse(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
    assert_eq!(dump.reason, "worker-fatal");
    assert!(
        dump.meta.iter().any(|(k, v)| k == "tenant" && v == "t"),
        "dump must name the tenant: {:?}",
        dump.meta
    );
    assert!(!dump.traces.is_empty(), "dump carries the pre-failure request traces");
    let rendered = dump.render_text();
    assert!(rendered.contains("reason=worker-fatal"), "{rendered}");
    assert!(rendered.contains("wire_read="), "stage breakdown rendered: {rendered}");

    let _ = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn exposition_has_no_duplicate_series() {
    let root = scratch("lint");
    let svc = Service::new(config(&root)).unwrap();
    svc.admit("alpha", SPEC, TenantOptions::default()).unwrap();
    svc.admit("beta", SPEC, TenantOptions::default()).unwrap();
    drive_traced(&svc, &mut traced("alpha"), "i", 4);
    drive_traced(&svc, &mut traced("beta"), "j", 2);
    common::lint_exposition(&svc.prometheus());
    let _ = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn failed_tenant_label_set_freezes_after_circuit_break() {
    let root = scratch("freeze");
    let mut cfg = config(&root);
    cfg.supervisor = SupervisorConfig {
        max_restarts: 1,
        window: Duration::from_secs(60),
        backoff: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        poll: Duration::from_millis(5),
        ..SupervisorConfig::default()
    };
    let svc = Service::new(cfg).unwrap();
    let opts = TenantOptions { flags: TENANT_FLAG_ALLOW_FATAL, ..TenantOptions::default() };
    svc.admit("t", SPEC, opts).unwrap();
    svc.admit("live", SPEC, TenantOptions::default()).unwrap();
    let mut feed = traced("t");
    drive_traced(&svc, &mut feed, "i", 4);

    // Burn the restart budget: fatal → restart, fatal again → break.
    let wait_state = |pred: &dyn Fn(&rv_monitor::core::TenantSnapshot) -> bool, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let snap = svc.snapshots().into_iter().find(|s| s.name == "t").unwrap();
            if pred(&snap) {
                return;
            }
            assert!(Instant::now() < deadline, "timed out on {what}: {}", snap.to_json());
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    feed.send(&svc, "!fatal");
    wait_state(
        &|s| matches!(s.state, TenantState::Running) && s.restarts == 1,
        "supervised restart",
    );
    feed.send(&svc, "!fatal");
    wait_state(&|s| matches!(s.state, TenantState::FailedPermanent(_)), "circuit break");

    let tenant_series = |expo: &str| -> std::collections::BTreeSet<String> {
        expo.lines()
            .filter(|l| !l.starts_with('#') && l.contains("tenant=\"t\""))
            .map(|l| l.rsplit_once(' ').map_or(l, |(k, _)| k).to_owned())
            .collect()
    };
    let frozen = tenant_series(&svc.prometheus());
    assert!(!frozen.is_empty(), "broken tenant keeps its series");

    // More traffic elsewhere must not grow or shrink the broken
    // tenant's label set — dashboards keep their history, alerts their
    // identity.
    drive_traced(&svc, &mut traced("live"), "k", 6);
    let after = tenant_series(&svc.prometheus());
    assert_eq!(frozen, after, "label set must freeze at circuit-break");
    common::lint_exposition(&svc.prometheus());

    // And the circuit-break itself black-boxed a dump.
    let dumps: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("flight-t-") && n.ends_with(".rvfr"))
        .collect();
    assert!(!dumps.is_empty(), "circuit break must write a flight dump");

    let _ = svc.drain();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn disabled_trace_path_is_structurally_free() {
    // The engine's disabled observer is a ZST: monomorphized observer
    // calls compile to nothing, so the un-instrumented path cannot pay
    // for instrumentation it doesn't use.
    assert_eq!(std::mem::size_of::<NoopObserver>(), 0);

    // A zero-capacity trace ring retains nothing: pushes count but
    // neither allocate nor keep traces, so `--trace-ring 0` is a pure
    // counter increment per request.
    let mut ring = RequestTraceRing::new(0, 0);
    assert!(!ring.enabled());
    for i in 0..1_000 {
        ring.push(RequestTrace { session: 1, cseq: i, seq: i, at_ns: 0, stages: [1; STAGE_COUNT] });
    }
    assert_eq!(ring.recorded(), 1_000);
    assert_eq!(ring.recent().count(), 0);
    assert!(ring.slowest().is_empty());
}
