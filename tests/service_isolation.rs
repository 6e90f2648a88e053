//! Tenant-isolation fault battery for the `rvmond` service layer
//! (`rv_core::service`).
//!
//! The contract under test is the ISSUE-7 acceptance scenario: with
//! tenant A's trigger handler panicking on every report and tenant B
//! tripping its budget ladder, tenant C's observable behaviour — its
//! counters *and* its on-disk journal, byte for byte — must be
//! indistinguishable from a run where C is the only tenant. A crash
//! (drop without drain, torn journal tail) must recover every tenant
//! with exactly-once trigger delivery: zero duplicated and zero dropped
//! `(event_seq, ordinal)` keys.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use rv_monitor::core::journal::{AUX_SPEC, SEGMENT_HEADER_LEN};
use rv_monitor::core::service::{REJECT_BAD_SPEC, REJECT_TENANT_FAILED, TENANT_FLAG_PANIC_HANDLER};
use rv_monitor::core::snapshot::list_checkpoints;
use rv_monitor::core::{
    read_journal, recover, EngineConfig, JournalWriter, NoopObserver, Record, RecoverError,
    ReplayFrom, Service, ServiceConfig, TenantOptions, TenantState, MAX_PARAMS,
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

const ITERS: usize = 24;

/// A fresh scratch root under the target dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir()
        .join(format!("rvmond-isolation-{tag}-{nanos}-{:?}", std::thread::current().id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(root: &Path) -> ServiceConfig {
    ServiceConfig { root: root.to_path_buf(), ..ServiceConfig::default() }
}

/// The single-owner workload: every creation first (so the live-monitor
/// population actually climbs), one mutation, then every iterator is
/// advanced — each surviving monitor fires UnsafeIter's match.
fn workload(prefix: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..ITERS {
        lines.push(format!("create c {prefix}{i}"));
    }
    lines.push("update c".to_owned());
    for i in 0..ITERS {
        lines.push(format!("next {prefix}{i}"));
    }
    lines
}

fn drive(service: &Service, feed: &mut Feeder, lines: &[String]) {
    for line in lines {
        feed.send(service, line);
    }
    feed.barrier(service);
}

fn snapshot_of(service: &Service, tenant: &str) -> rv_monitor::core::TenantSnapshot {
    service
        .snapshots()
        .into_iter()
        .find(|s| s.name == tenant)
        .unwrap_or_else(|| panic!("no snapshot for `{tenant}`"))
}

/// All `(event_seq, ordinal)` trigger keys in a tenant's journal, in
/// append order.
fn trigger_keys(dir: &Path) -> Vec<(u64, u32)> {
    let scan = read_journal(dir).unwrap_or_else(|e| panic!("read_journal({dir:?}): {e}"));
    scan.records
        .iter()
        .filter_map(|sr| match &sr.record {
            Record::Trigger { event_seq, ordinal, .. } => Some((*event_seq, *ordinal)),
            _ => None,
        })
        .collect()
}

/// Raw bytes of every journal segment of a tenant, concatenated in
/// segment order.
fn journal_bytes(dir: &Path) -> Vec<u8> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("journal-"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no journal segments in {dir:?}");
    let mut bytes = Vec::new();
    for n in names {
        bytes.extend_from_slice(&std::fs::read(dir.join(n)).unwrap());
    }
    bytes
}

/// Tenant A panics in every trigger handler, tenant B runs its budget
/// ladder to the shed rung, tenant C is healthy — and C's counters and
/// journal are byte-identical to a solo run.
#[test]
fn faulty_tenants_do_not_perturb_a_healthy_neighbor() {
    let multi_root = scratch("multi");
    let solo_root = scratch("solo");
    let lines = workload("i");

    let multi = Service::new(config(&multi_root)).unwrap();
    multi
        .admit(
            "a",
            SPEC,
            TenantOptions { flags: TENANT_FLAG_PANIC_HANDLER, ..TenantOptions::default() },
        )
        .unwrap();
    multi
        .admit("b", SPEC, TenantOptions { max_live_monitors: Some(4), ..TenantOptions::default() })
        .unwrap();
    multi.admit("c", SPEC, TenantOptions::default()).unwrap();
    // Interleave the tenants line by line — isolation must hold under
    // concurrent progress, not just sequential per-tenant batches. Each
    // tenant's client is session 1: the session is journaled with every
    // line, so c's solo run must use the same one.
    let mut feeds = ["a", "b", "c"].map(|tenant| Feeder::new(tenant, 1));
    for line in &lines {
        for feed in &mut feeds {
            feed.send(&multi, line);
        }
    }
    for feed in &mut feeds {
        feed.barrier(&multi);
    }

    let solo = Service::new(config(&solo_root)).unwrap();
    solo.admit("c", SPEC, TenantOptions::default()).unwrap();
    drive(&solo, &mut Feeder::new("c", 1), &lines);

    let a = snapshot_of(&multi, "a");
    assert_eq!(a.state, TenantState::Running, "a handler panic must stay engine-contained");
    assert!(a.quarantined > 0, "a's panicking handler never quarantined a monitor");
    assert_eq!(a.triggers, ITERS as u64, "triggers are recorded before the handler runs");

    let b = snapshot_of(&multi, "b");
    assert_eq!(b.state, TenantState::Running);
    assert!(b.budget_trips > 0, "b's 4-monitor cap never tripped");
    assert!(b.shed_monitors > 0, "b's ladder never reached the shed rung");
    assert!(b.triggers < ITERS as u64, "shedding must have dropped some of b's monitors");

    let c = snapshot_of(&multi, "c");
    let c_solo = snapshot_of(&solo, "c");
    assert_eq!(c.state, TenantState::Running);
    assert_eq!(c.quarantined, 0);
    assert_eq!(c.budget_trips, 0);
    assert_eq!(
        (c.events, c.triggers, c.shed_monitors, c.monitors_live, c.journal_records),
        (
            c_solo.events,
            c_solo.triggers,
            c_solo.shed_monitors,
            c_solo.monitors_live,
            c_solo.journal_records
        ),
        "neighboring faults leaked into c's counters"
    );
    assert_eq!(c.triggers, ITERS as u64);

    assert_eq!(multi.drain(), 3);
    assert_eq!(solo.drain(), 1);
    assert_eq!(
        journal_bytes(&multi_root.join("c")),
        journal_bytes(&solo_root.join("c")),
        "c's journal must be byte-identical to a solo run"
    );

    let _ = std::fs::remove_dir_all(&multi_root);
    let _ = std::fs::remove_dir_all(&solo_root);
}

/// Drain checkpoints every tenant; a new service over the same root
/// recovers each one with its counters intact and keeps accepting work.
#[test]
fn drain_and_restart_preserve_every_tenant() {
    let root = scratch("drain");
    let lines = workload("i");
    let mut x = Feeder::new("x", 1);

    let before = {
        let service = Service::new(config(&root)).unwrap();
        service.admit("x", SPEC, TenantOptions::default()).unwrap();
        service
            .admit(
                "y",
                SPEC,
                TenantOptions { max_live_monitors: Some(4), ..TenantOptions::default() },
            )
            .unwrap();
        drive(&service, &mut x, &lines);
        drive(&service, &mut Feeder::new("y", 1), &lines);
        let snaps = service.snapshots();
        assert_eq!(service.drain(), 2);
        snaps
    };

    let service = Service::new(config(&root)).unwrap();
    let (ok, failed) = service.recover_all().unwrap();
    assert!(failed.is_empty(), "recovery failures: {failed:?}");
    assert_eq!(ok, vec!["x".to_owned(), "y".to_owned()]);
    for pre in &before {
        let post = snapshot_of(&service, &pre.name);
        assert_eq!(post.state, TenantState::Running);
        assert_eq!(post.events, pre.events, "tenant `{}` lost events across restart", pre.name);
        assert_eq!(post.triggers, pre.triggers, "tenant `{}` lost triggers", pre.name);
        // Drain checkpointed at the exact tail: replay touches nothing.
        assert_eq!(post.recovered_events, 0, "tenant `{}` replayed past its checkpoint", pre.name);
        assert_eq!(post.suppressed_triggers, 0);
    }

    // Recovered tenants accept new work with monotonically growing seqs,
    // and x's session resumes past its recovered high-water mark.
    drive(&service, &mut x, &workload("j"));
    let post = snapshot_of(&service, "x");
    assert_eq!(post.events, before[0].events + workload("j").len() as u64);
    assert_eq!(post.triggers, 2 * ITERS as u64);
    let _ = service.drain();

    let keys = trigger_keys(&root.join("x"));
    let mut dedup = keys.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), keys.len(), "duplicate trigger keys in x's journal");
    assert_eq!(keys.len(), 2 * ITERS);

    let _ = std::fs::remove_dir_all(&root);
}

/// A hard crash — no drain, no final checkpoint, a torn record at the
/// journal tail — recovers with exactly-once trigger delivery: the
/// replay re-fires and suppresses every already-journaled trigger, and
/// post-recovery work appends only fresh keys.
#[test]
fn crash_recovery_delivers_triggers_exactly_once() {
    let root = scratch("crash");
    let lines = workload("i");
    // No periodic checkpoints: recovery must replay the whole journal.
    let cfg = ServiceConfig { checkpoint_every: 1_000_000, ..config(&root) };
    let mut feed = Feeder::new("t", 1);

    {
        let service = Service::new(cfg.clone()).unwrap();
        service.admit("t", SPEC, TenantOptions::default()).unwrap();
        drive(&service, &mut feed, &lines);
        // Dropped without drain(): the crash path.
    }
    let dir = root.join("t");
    let pre_crash = trigger_keys(&dir);
    assert_eq!(pre_crash.len(), ITERS, "workload must have journaled its triggers");

    // Tear the tail: a truncated record that repair must chop off.
    {
        use std::io::Write as _;
        let mut f =
            std::fs::OpenOptions::new().append(true).open(dir.join("journal-00000000")).unwrap();
        f.write_all(&[0x1f, 0x00, 0x00, 0x00, 0x07]).unwrap();
    }

    let service = Service::new(cfg).unwrap();
    let (ok, failed) = service.recover_all().unwrap();
    assert_eq!(ok, vec!["t".to_owned()], "failures: {failed:?}");
    let snap = snapshot_of(&service, "t");
    assert_eq!(snap.state, TenantState::Running);
    assert_eq!(snap.events, lines.len() as u64);
    assert_eq!(snap.recovered_events, lines.len() as u64);
    assert_eq!(snap.triggers, ITERS as u64, "recovery dropped or duplicated triggers");
    assert_eq!(
        snap.suppressed_triggers, ITERS as u64,
        "full-journal replay must re-fire and suppress every delivered trigger"
    );

    drive(&service, &mut feed, &workload("j"));
    let _ = service.drain();

    let keys = trigger_keys(&dir);
    let mut dedup = keys.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), keys.len(), "replay re-journaled an already-delivered trigger");
    assert_eq!(keys.len(), 2 * ITERS, "exactly-once: {} pre-crash + {} fresh", ITERS, ITERS);
    assert!(
        keys[ITERS..].iter().all(|k| k > pre_crash.last().unwrap()),
        "post-recovery triggers must extend, not rewrite, the stream"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// A crash can leave a tenant's journal with no durable record — empty,
/// or only its segment header — beside checkpoints of the lost run.
/// Recovery cannot know the spec, so it refuses the tenant with a typed
/// reject; a HELLO that carries the spec starts the tenant over, wiping
/// the stale checkpoints, and the new run recovers like any other.
#[test]
fn a_journal_without_durable_records_starts_over_on_hello() {
    for keep in [0, SEGMENT_HEADER_LEN] {
        let root = scratch("start-over");
        let cfg = ServiceConfig { checkpoint_every: 8, ..config(&root) };
        let lines = workload("i");
        {
            let service = Service::new(cfg.clone()).unwrap();
            service.admit("t", SPEC, TenantOptions::default()).unwrap();
            drive(&service, &mut Feeder::new("t", 1), &lines);
            // Dropped without drain(): the crash path.
        }
        let dir = root.join("t");
        assert!(!list_checkpoints(&dir).is_empty(), "the lost run must leave checkpoints");
        let journal =
            std::fs::OpenOptions::new().write(true).open(dir.join("journal-00000000")).unwrap();
        journal.set_len(keep).unwrap();
        drop(journal);

        let service = Service::new(cfg.clone()).unwrap();
        let (ok, failed) = service.recover_all().unwrap();
        assert!(ok.is_empty(), "keep {keep}: recovered {ok:?}");
        let [(name, (code, msg))] = &failed[..] else { panic!("keep {keep}: {failed:?}") };
        assert_eq!((name.as_str(), *code), ("t", REJECT_TENANT_FAILED), "keep {keep}: {msg}");
        assert!(msg.contains("no durable records"), "keep {keep}: {msg}");

        service.admit("t", SPEC, TenantOptions::default()).unwrap();
        assert!(list_checkpoints(&dir).is_empty(), "keep {keep}: stale checkpoints survived");
        drive(&service, &mut Feeder::new("t", 1), &lines);
        let snap = snapshot_of(&service, "t");
        assert_eq!(snap.state, TenantState::Running);
        assert_eq!((snap.events, snap.triggers), (lines.len() as u64, ITERS as u64));
        assert_eq!((snap.recovered_events, snap.checkpoints), (0, lines.len() as u64 / 8));
        assert_eq!(service.drain(), 1);

        let service = Service::new(cfg).unwrap();
        let (ok, failed) = service.recover_all().unwrap();
        assert_eq!(ok, vec!["t".to_owned()], "keep {keep}: {failed:?}");
        assert_eq!(snapshot_of(&service, "t").triggers, ITERS as u64);
        assert_eq!(trigger_keys(&dir).len(), ITERS);
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Asserts that `service` shows tenant `t` as unrecovered with `code`:
/// `/healthz` leads with `degraded` and names it, and `/metrics` carries
/// it in `rvmond_tenant_unrecovered`.
fn assert_unrecovered(service: &Service, code: u16, reason: &str) {
    let health = service.healthz();
    assert!(health.starts_with("degraded\n"), "{health}");
    let line = health
        .lines()
        .find(|l| l.starts_with("tenant t state=unrecovered "))
        .unwrap_or_else(|| panic!("no unrecovered line: {health}"));
    assert!(line.starts_with(&format!("tenant t state=unrecovered reason={code} ")), "{line}");
    assert!(line.contains(reason), "{line}");
    let expo = service.prometheus();
    let sample = format!("rvmond_tenant_unrecovered{{tenant=\"t\",code=\"{code}\"}} 1\n");
    assert!(expo.contains(&sample), "{expo}");
    common::lint_exposition(&expo);
}

/// A tenant that fails recovery is not left out of sight: it is listed
/// as unrecovered until an attach that carries its spec starts it over,
/// and then it is an ordinary running tenant again.
#[test]
fn a_tenant_with_an_empty_journal_is_visible_until_started_over() {
    let root = scratch("unrecovered-empty");
    std::fs::create_dir_all(root.join("t")).unwrap();
    std::fs::write(root.join("t").join("journal-00000000"), b"").unwrap();
    let service = Service::new(config(&root)).unwrap();
    assert!(service.healthz().starts_with("ok\n"), "nothing recovered yet is not a fault");
    let (ok, failed) = service.recover_all().unwrap();
    assert!(ok.is_empty(), "{ok:?}");
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert_eq!(service.unrecovered(), failed);
    assert_unrecovered(&service, REJECT_TENANT_FAILED, "no durable records");

    // An attach without the spec cannot start it; it stays unrecovered.
    assert!(service.admit("t", "", TenantOptions::default()).is_err());
    assert_unrecovered(&service, REJECT_TENANT_FAILED, "no durable records");

    service.admit("t", SPEC, TenantOptions::default()).unwrap();
    let health = service.healthz();
    assert!(health.starts_with("ok\n"), "{health}");
    assert!(health.contains("tenant t state=running "), "{health}");
    assert!(!health.contains("state=unrecovered"), "{health}");
    let expo = service.prometheus();
    assert!(!expo.contains("rvmond_tenant_unrecovered{"), "{expo}");
    assert!(service.unrecovered().is_empty());
    assert_eq!(service.drain(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// A tenant journaled with a spec wider than a binding now holds (one the
/// compiler accepted when bindings had more slots) fails recovery as a
/// spec error, and the service shows it as unrecovered.
#[test]
fn a_journaled_spec_wider_than_a_binding_is_an_unrecovered_spec_error() {
    let root = scratch("unrecovered-wide");
    let dir = root.join("t");
    let params: Vec<String> = (0..=MAX_PARAMS).map(|p| format!("p{p}")).collect();
    let declared: Vec<String> = params.iter().map(|p| format!("Object {p}")).collect();
    let wide = format!(
        "Wide({}) {{ event all({}); event first(p0); ere: all first @match {{ report \"w\"; }} }}",
        declared.join(", "),
        params.join(", ")
    );
    let mut w = JournalWriter::create(&dir).unwrap();
    w.append(&Record::Aux { tag: AUX_SPEC, bytes: wide.into_bytes() }).unwrap();
    w.sync().unwrap();
    drop(w);

    let err = recover(&dir, ReplayFrom::Start, &EngineConfig::default(), |_| NoopObserver).err();
    let Some(RecoverError::Spec(msg)) = err else { panic!("expected RecoverError::Spec") };
    assert!(msg.contains("journaled spec no longer compiles"), "{msg}");
    assert!(msg.contains(&format!("at most {MAX_PARAMS}")), "{msg}");

    let service = Service::new(config(&root)).unwrap();
    let (ok, failed) = service.recover_all().unwrap();
    assert!(ok.is_empty(), "{ok:?}");
    let [(name, (code, reject))] = &failed[..] else { panic!("{failed:?}") };
    assert_eq!((name.as_str(), *code), ("t", REJECT_BAD_SPEC), "{reject}");
    assert_eq!(reject, &msg, "the reject carries the recovery error");
    assert_unrecovered(&service, REJECT_BAD_SPEC, "journaled spec no longer compiles");
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}
