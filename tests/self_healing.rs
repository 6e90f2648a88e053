//! Supervision and hot-reload battery against an in-process [`Service`]:
//! a worker-fatal tenant is restarted unattended with its counters and
//! acked history intact, the restart budget circuit-breaks
//! deterministically to `failed-permanent`, and spec reloads are
//! idempotent, versioned, and journal-durable across a daemon restart.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rv_monitor::core::service::TENANT_FLAG_ALLOW_FATAL;
use rv_monitor::core::{
    Backpressure, Service, ServiceConfig, SupervisorConfig, TenantOptions, TenantState,
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

const SPEC_V2: &str = r#"
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next+ update+ next
    @match { report "v2: improper Concurrent Modification found!"; }
}
"#;

fn scratch(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("rv-selfheal-{tag}-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn supervised_config(root: &std::path::Path, max_restarts: u32) -> ServiceConfig {
    ServiceConfig {
        root: root.to_path_buf(),
        backpressure: Backpressure::Block,
        reply_timeout: Duration::from_secs(10),
        supervisor: SupervisorConfig {
            max_restarts,
            window: Duration::from_secs(60),
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            poll: Duration::from_millis(5),
            ..SupervisorConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn fatal_opts() -> TenantOptions {
    TenantOptions { flags: TENANT_FLAG_ALLOW_FATAL, ..TenantOptions::default() }
}

fn snapshot(svc: &Service, name: &str) -> rv_monitor::core::TenantSnapshot {
    svc.snapshots().into_iter().find(|s| s.name == name).expect("tenant snapshot")
}

/// Polls until `pred` holds on the tenant snapshot or the deadline
/// passes; panics with the last snapshot on timeout.
fn wait_for(
    svc: &Service,
    name: &str,
    what: &str,
    pred: impl Fn(&rv_monitor::core::TenantSnapshot) -> bool,
) -> rv_monitor::core::TenantSnapshot {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let snap = snapshot(svc, name);
        if pred(&snap) {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last snapshot: {}",
            snap.to_json()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Drives `n` UnsafeIter matches (`2n + 1` events) through one
/// session, then a barrier.
fn drive(svc: &Service, feed: &mut Feeder, prefix: &str, n: usize) {
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
fn supervisor_restarts_fatal_tenant_unattended() {
    let root = scratch("restart");
    let svc = Service::new(supervised_config(&root, 3)).unwrap();
    svc.admit("t", SPEC, fatal_opts()).unwrap();
    let mut feed = Feeder::new("t", 1);

    drive(&svc, &mut feed, "i", 6);
    let before = snapshot(&svc, "t");
    assert_eq!(before.triggers, 6, "{}", before.to_json());

    // The worker dies; nobody intervenes. The supervisor must bring the
    // tenant back to Running through the recovery path.
    feed.send(&svc, "!fatal");
    let healed = wait_for(&svc, "t", "supervised restart", |s| {
        s.state == TenantState::Running && s.restarts == 1
    });

    // Acked history survived the crash: every pre-fatal event was
    // replayed, every pre-fatal trigger suppressed (not re-delivered).
    // The `!fatal` directive itself is a journaled marker, not an event.
    assert_eq!(healed.events, before.events, "{}", healed.to_json());
    assert_eq!(healed.triggers, 6, "{}", healed.to_json());
    assert_eq!(healed.suppressed_triggers, 6, "replay re-delivered: {}", healed.to_json());
    assert!(healed.recovered_events > 0, "{}", healed.to_json());

    // And the healed tenant keeps working.
    drive(&svc, &mut feed, "j", 3);
    let after = snapshot(&svc, "t");
    assert_eq!(after.triggers, 9, "{}", after.to_json());

    assert_eq!(svc.stats.tenants_restarted.load(Ordering::Relaxed), 1);
    assert_eq!(svc.stats.tenants_circuit_broken.load(Ordering::Relaxed), 0);
    let health = svc.healthz();
    assert!(health.contains("restarts=1"), "{health}");
    let prom = svc.prometheus();
    assert!(prom.contains("rvmond_tenants_restarted_total 1"), "{prom}");

    drop(svc);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_budget_circuit_breaks_deterministically() {
    let root = scratch("circuit");
    let svc = Service::new(supervised_config(&root, 2)).unwrap();
    svc.admit("t", SPEC, fatal_opts()).unwrap();
    let mut feed = Feeder::new("t", 1);

    // Burn the budget: each fatal consumes one restart. The third crash
    // exceeds max_restarts=2 inside the window and must circuit-break.
    for round in 1..=2u64 {
        feed.send(&svc, "!fatal");
        wait_for(&svc, "t", "restart after fatal", |s| {
            s.state == TenantState::Running && s.restarts == round
        });
    }
    feed.send(&svc, "!fatal");
    let broken = wait_for(&svc, "t", "circuit break", |s| {
        matches!(s.state, TenantState::FailedPermanent(_))
    });
    assert_eq!(broken.restarts, 2, "budget overrun: {}", broken.to_json());

    // Deterministic terminal state: submissions answer 500, the state
    // never flaps back, and the break is visible on every surface.
    let (code, _) = feed.submit(&svc, "update c").unwrap_err();
    assert_eq!(code, 500);
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        matches!(snapshot(&svc, "t").state, TenantState::FailedPermanent(_)),
        "circuit break must hold"
    );
    assert_eq!(svc.stats.tenants_circuit_broken.load(Ordering::Relaxed), 1);
    let health = svc.healthz();
    assert!(health.contains("state=failed-permanent"), "{health}");
    let prom = svc.prometheus();
    assert!(prom.contains("rvmond_tenants_circuit_broken_total 1"), "{prom}");

    drop(svc);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unsupervised_fatal_stays_failed() {
    let root = scratch("unsup");
    let svc = Service::new(supervised_config(&root, 0)).unwrap();
    svc.admit("t", SPEC, fatal_opts()).unwrap();
    Feeder::new("t", 1).send(&svc, "!fatal");
    let failed = wait_for(&svc, "t", "worker death", |s| matches!(s.state, TenantState::Failed(_)));
    // No supervisor thread: the tenant must still be Failed well past
    // any plausible restart backoff.
    std::thread::sleep(Duration::from_millis(200));
    assert!(matches!(snapshot(&svc, "t").state, TenantState::Failed(_)), "{}", failed.to_json());
    assert_eq!(svc.stats.tenants_restarted.load(Ordering::Relaxed), 0);
    drop(svc);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reload_is_idempotent_versioned_and_durable() {
    let root = scratch("reload");
    let svc = Service::new(supervised_config(&root, 1)).unwrap();
    svc.admit("t", SPEC, TenantOptions::default()).unwrap();
    let mut feed = Feeder::new("t", 1);
    drive(&svc, &mut feed, "i", 2);

    // v1 → v2, exactly once for a given token.
    assert_eq!(svc.reload("t", 7, SPEC_V2).unwrap(), 2);
    assert_eq!(svc.reload("t", 7, SPEC_V2).unwrap(), 2, "same token must be a no-op");
    assert_eq!(snapshot(&svc, "t").spec_version, 2, "idempotent retry reapplied");
    assert_eq!(svc.reload("t", 8, SPEC).unwrap(), 3, "new token bumps the version");

    // A bad spec is a typed 422 and leaves the version alone.
    let (code, _) = svc.reload("t", 9, "NotASpec {").unwrap_err();
    assert_eq!(code, 422);
    let snap = snapshot(&svc, "t");
    assert_eq!(snap.spec_version, 3, "{}", snap.to_json());

    // The reload works after the cutover: pre-reload state was
    // checkpointed at the exact journal tail, so new events monitor
    // under the new spec with nothing lost.
    drive(&svc, &mut feed, "k", 2);
    let snap = snapshot(&svc, "t");
    assert_eq!(snap.triggers, 4, "{}", snap.to_json());

    // Durability: the AUX_RELOAD cutover records survive a full daemon
    // restart over the same root.
    assert!(svc.drain() >= 1);
    drop(svc);
    let svc = Service::new(supervised_config(&root, 1)).unwrap();
    let (recovered, failed) = svc.recover_all().unwrap();
    assert_eq!((recovered.len(), failed.len()), (1, 0), "{failed:?}");
    let snap = snapshot(&svc, "t");
    assert_eq!(snap.spec_version, 3, "reload version lost in recovery: {}", snap.to_json());
    assert_eq!(snap.triggers, 4, "{}", snap.to_json());
    drop(svc);
    let _ = std::fs::remove_dir_all(&root);
}

const HAS_NEXT: &str = r#"
HasNext(Iterator i) {
    event hasnexttrue(i);
    event hasnextfalse(i);
    event next(i);
    fsm:
        unknown [ hasnexttrue -> more  hasnextfalse -> none  next -> error ]
        more [ hasnexttrue -> more  next -> unknown ]
        none [ hasnextfalse -> none  next -> error ]
        error []
    @error { report "next without hasNext"; }
}
"#;

/// Runs `rvmon <args>` and returns (exit code, stdout, stderr).
fn rvmon(args: &[&std::ffi::OsStr]) -> (i32, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rvmon"))
        .args(args)
        .output()
        .expect("run rvmon");
    (
        out.status.code().expect("rvmon exited by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A tenant reloaded to a spec with different events stays auditable:
/// `rvmon replay` follows the journal's spec lineage across the cutover
/// and reports the daemon's trigger count, and `rvmon top` tables the
/// daemon root.
#[test]
fn rvmon_audits_a_tenant_reloaded_to_different_events() {
    let root = scratch("reload-audit");
    let svc = Service::new(supervised_config(&root, 1)).unwrap();
    svc.admit("t", SPEC, TenantOptions::default()).unwrap();
    let mut feed = Feeder::new("t", 1);
    drive(&svc, &mut feed, "i", 2);
    assert_eq!(svc.reload("t", 5, HAS_NEXT).unwrap(), 2);
    for k in 0..3 {
        feed.send(&svc, &format!("hasnexttrue h{k}"));
        feed.send(&svc, &format!("next h{k}"));
        feed.send(&svc, &format!("next h{k}"));
    }
    feed.barrier(&svc);
    let triggers = snapshot(&svc, "t").triggers;
    assert_eq!(triggers, 5, "2 UnsafeIter matches, then 3 HasNext errors");
    assert!(svc.drain() >= 1);
    drop(svc);

    let tenant = root.join("t");
    let (code, out, err) = rvmon(&["replay".as_ref(), tenant.as_os_str()]);
    assert_eq!(code, 0, "rvmon replay failed\nstdout: {out}\nstderr: {err}");
    assert!(out.contains(&format!(": {triggers} goal report(s)")), "{out}");

    let (code, out, err) = rvmon(&["top".as_ref(), root.as_os_str()]);
    assert_eq!(code, 0, "rvmon top failed\nstdout: {out}\nstderr: {err}");
    assert!(!err.contains("tenant `t`"), "tenant row failed: {err}");
    let _ = std::fs::remove_dir_all(&root);
}
