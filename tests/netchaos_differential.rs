//! Differential chaos proof: the trigger stream a [`ResilientClient`]
//! observes through a fault-injecting [`ChaosProxy`] is byte-identical
//! to a clean solo run — exactly-once, no gaps, no reorders — across
//! seeds and fault profiles up to 5%, *including* a mid-stream
//! worker-fatal supervised restart and a hot spec reload.
//!
//! Both sides of every differential run the identical workload and
//! daemon configuration; only the wire between them differs.
//!
//! The last two tests pin what loss costs: a session line lost inside a
//! live connection is repaired at the barrier without a reconnect, and
//! a clean proxy adds no Nagle stall to a barrier.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rv_monitor::core::service::{FRAME_EVENT_SEQ, TENANT_FLAG_ALLOW_FATAL};
use rv_monitor::core::{
    encode_frame, read_frame, serve_connection, Backpressure, ChaosProfile, ChaosProxy,
    ClientStats, ReconnectPolicy, ResilientClient, Service, ServiceConfig, SupervisorConfig,
    TenantOptions,
};
use rv_monitor::heap::SplitMix64;

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
    ere: update* create next* update+ next
    @match { report "v2: still an improper Concurrent Modification!"; }
}
"#;

const EVENTS: usize = 600;
const SYNC_EVERY: usize = 48;
const FATAL_AT: usize = 220;
const RELOAD_AT: usize = 400;
const RELOAD_TOKEN: u64 = 0xD00B_1E51;
const SESSION: u64 = 0x5E55_1011;

fn scratch(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("rv-chaosdiff-{tag}-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic trace both sides replay: a seeded create/update/
/// next mix over a rolling window of iterators, with periodic `!free`s
/// so the GC machinery stays exercised under chaos too.
fn workload() -> Vec<String> {
    let mut rng = SplitMix64::new(0x10AD_0001);
    let mut iters: Vec<u64> = Vec::new();
    let mut next_iter = 0u64;
    let mut lines = Vec::with_capacity(EVENTS);
    while lines.len() < EVENTS {
        let roll = rng.next_u64() % 100;
        if iters.is_empty() || roll < 25 {
            next_iter += 1;
            iters.push(next_iter);
            lines.push(format!("create c{} i{next_iter}", next_iter % 7));
        } else if roll < 40 {
            lines.push(format!("update c{}", rng.next_u64() % 7));
        } else if roll < 90 {
            let pick = iters[(rng.next_u64() as usize) % iters.len()];
            lines.push(format!("next i{pick}"));
        } else {
            let victim = iters.remove((rng.next_u64() as usize) % iters.len());
            lines.push(format!("!free i{victim}"));
        }
    }
    lines
}

/// An in-process supervised service behind a real TCP listener.
struct Server {
    _svc: Arc<Service>,
    addr: String,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(root: &std::path::Path) -> Server {
        let config = ServiceConfig {
            root: root.to_path_buf(),
            backpressure: Backpressure::Block,
            reply_timeout: Duration::from_secs(10),
            supervisor: SupervisorConfig {
                max_restarts: 5,
                backoff: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(100),
                poll: Duration::from_millis(5),
                ..SupervisorConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = Arc::new(Service::new(config).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((mut s, _)) => {
                            let svc = Arc::clone(&svc);
                            std::thread::spawn(move || {
                                let _ = s.set_nodelay(true);
                                let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                                let _ = serve_connection(&svc, &mut s);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Server { _svc: svc, addr, stop, accept: Some(accept) }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Runs the full workload — mid-stream `!fatal`, quiescent hot reload,
/// final barrier, trigger drain — against a fresh supervised service,
/// optionally through a chaos proxy. Returns the rendered trigger
/// stream in delivery order plus the client's counters.
fn run_once(tag: &str, chaos: Option<ChaosProfile>) -> (Vec<String>, ClientStats) {
    let root = scratch(tag);
    let server = Server::start(&root);
    let mut proxy = chaos.map(|p| ChaosProxy::start(&server.addr, p).unwrap());
    let addr = proxy.as_ref().map_or_else(|| server.addr.clone(), |p| p.addr());

    let opts = TenantOptions { flags: TENANT_FLAG_ALLOW_FATAL, ..TenantOptions::default() };
    let policy = ReconnectPolicy {
        max_attempts: 64,
        backoff: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(200),
        read_timeout: Duration::from_millis(1500),
        ..ReconnectPolicy::default()
    };
    let mut client = ResilientClient::connect(&addr, "t", SPEC, opts, SESSION, policy).unwrap();

    for (i, line) in workload().iter().enumerate() {
        if i == FATAL_AT {
            client.send("!fatal").unwrap();
        }
        if i == RELOAD_AT {
            // Quiesce, then cut over: the barrier pins the reload to a
            // deterministic journal position on both sides.
            client.sync().unwrap();
            assert_eq!(client.reload(RELOAD_TOKEN, SPEC_V2).unwrap(), 2);
        }
        client.send(line).unwrap();
        if (i + 1) % SYNC_EVERY == 0 {
            client.sync().unwrap();
        }
    }
    client.sync().unwrap();

    let mut rendered = Vec::new();
    let mut empties = 0;
    while empties < 2 {
        let batch = client.poll_triggers(256).unwrap();
        if batch.is_empty() {
            empties += 1;
        } else {
            empties = 0;
            rendered.extend(batch.iter().map(|t| t.render()));
        }
    }
    let stats = client.bye();
    if let Some(p) = proxy.as_mut() {
        p.shutdown();
    }
    drop(proxy);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
    (rendered, stats)
}

/// Asserts the chaos-side stream is byte-identical to the clean one.
fn assert_identical(clean: &[String], chaos: &[String], label: &str, stats: &ClientStats) {
    assert!(!clean.is_empty(), "workload produced no triggers");
    assert_eq!(
        chaos.len(),
        clean.len(),
        "{label}: trigger count diverged ({} vs {}); client: {}",
        chaos.len(),
        clean.len(),
        stats.to_json()
    );
    for (i, (c, k)) in clean.iter().zip(chaos.iter()).enumerate() {
        assert_eq!(c, k, "{label}: trigger {i} diverged; client: {}", stats.to_json());
    }
}

#[test]
fn clean_runs_are_deterministic() {
    let (a, _) = run_once("clean-a", None);
    let (b, stats) = run_once("clean-b", None);
    assert_identical(&a, &b, "clean vs clean", &stats);
}

#[test]
fn one_percent_loss_is_exactly_once() {
    let (clean, _) = run_once("c1", None);
    for seed in [1u64, 2] {
        let profile = ChaosProfile::lossy(10, seed);
        let (chaos, stats) = run_once(&format!("l1-s{seed}"), Some(profile));
        assert_identical(&clean, &chaos, &format!("1% loss seed {seed}"), &stats);
    }
}

#[test]
fn five_percent_loss_is_exactly_once() {
    let (clean, _) = run_once("c5", None);
    for seed in [3u64, 4] {
        let profile = ChaosProfile::lossy(50, seed);
        let (chaos, stats) = run_once(&format!("l5-s{seed}"), Some(profile));
        assert_identical(&clean, &chaos, &format!("5% loss seed {seed}"), &stats);
        assert!(
            stats.reconnects > 0,
            "5% loss should force reconnects; client: {}",
            stats.to_json()
        );
    }
}

#[test]
fn mixed_fault_profile_is_exactly_once() {
    let (clean, _) = run_once("cm", None);
    // Every fault class at once — drops, dups, corruption, truncation,
    // resets, and delay — still under the 5% ceiling.
    let profile = ChaosProfile::parse(
        "drop=10,dup=10,corrupt=10,truncate=5,reset=5,delay=10,delay_ms=2,seed=9",
    )
    .unwrap();
    let (chaos, stats) = run_once("mixed", Some(profile));
    assert_identical(&clean, &chaos, "mixed faults", &stats);
}

/// Forwards whole frames from `src` to `dst` until either side closes;
/// with `drop_kth`, the k-th `FRAME_EVENT_SEQ` frame through the relay
/// (counted across connections) is silently discarded.
fn relay(mut src: TcpStream, mut dst: TcpStream, drop_kth: Option<(usize, Arc<AtomicUsize>)>) {
    while let Ok(Some((kind, payload))) = read_frame(&mut src) {
        if let Some((k, seen)) = &drop_kth {
            if kind == FRAME_EVENT_SEQ && seen.fetch_add(1, Ordering::Relaxed) + 1 == *k {
                continue;
            }
        }
        if dst.write_all(&encode_frame(kind, &payload)).is_err() {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// A test-local proxy that drops exactly the k-th session line
/// upstream and nothing else. Returns its listen address.
fn dropping_relay(upstream: String, k: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let seen = Arc::new(AtomicUsize::new(0));
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { break };
            let server = TcpStream::connect(&upstream).unwrap();
            for s in [&client, &server] {
                s.set_nodelay(true).unwrap();
            }
            let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || relay(client, server, Some((k, seen))));
            std::thread::spawn(move || relay(s2, c2, None));
        }
    });
    addr
}

fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| panic!("no {key} in {json}")) + needle.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// Sends `lines`, one barrier, then drains the trigger stream. Returns
/// the rendered triggers, the client counters and the server's tenant
/// stats JSON.
fn send_sync_poll(addr: &str, lines: &[String]) -> (Vec<String>, ClientStats, String) {
    let opts = TenantOptions::default();
    let policy = ReconnectPolicy::default();
    let mut client = ResilientClient::connect(addr, "t", SPEC, opts, SESSION, policy).unwrap();
    for line in lines {
        client.send(line).unwrap();
    }
    client.sync().unwrap();
    let mut rendered = Vec::new();
    loop {
        let batch = client.poll_triggers(256).unwrap();
        if batch.is_empty() {
            break;
        }
        rendered.extend(batch.iter().map(|t| t.render()));
    }
    let server = client.server_stats_json().unwrap();
    (rendered, client.bye(), server)
}

#[test]
fn lost_session_line_is_repaired_on_the_live_connection() {
    const LINES: usize = 64;
    let lines: Vec<String> = workload().into_iter().take(LINES).collect();
    let root = scratch("direct");
    let server = Server::start(&root);
    let (direct, _, _) = send_sync_poll(&server.addr, &lines);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
    assert!(!direct.is_empty(), "the first {LINES} lines fire no trigger");

    // k = 64 drops the last line before SYNC: nothing past it can be
    // gap-dropped, so only the barrier's HWM echo reveals the loss.
    for k in [1, 17, LINES] {
        let root = scratch(&format!("drop{k}"));
        let server = Server::start(&root);
        let addr = dropping_relay(server.addr.clone(), k);
        let (relayed, stats, tenant) = send_sync_poll(&addr, &lines);
        let ctx = format!("k={k}; client: {}; server: {tenant}", stats.to_json());
        assert_eq!(stats.reconnects, 0, "{ctx}");
        assert_eq!(stats.gap_repairs, 1, "{ctx}");
        assert_eq!(stats.resent_lines, (LINES - k + 1) as u64, "{ctx}");
        assert_eq!(json_u64(&tenant, "gap_dropped_events"), (LINES - k) as u64, "{ctx}");
        assert_eq!(relayed, direct, "{ctx}");
        drop(server);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn clean_proxy_adds_no_nagle_stall_to_barriers() {
    const BARRIERS: usize = 32;
    const BATCH: usize = 64;
    let root = scratch("nagle");
    let server = Server::start(&root);
    let proxy = ChaosProxy::start(&server.addr, ChaosProfile::default()).unwrap();
    let opts = TenantOptions::default();
    let policy = ReconnectPolicy::default();
    let mut client =
        ResilientClient::connect(&proxy.addr(), "t", SPEC, opts, SESSION, policy).unwrap();
    let mut rtts = Vec::with_capacity(BARRIERS);
    for b in 0..BARRIERS {
        for i in b * BATCH..(b + 1) * BATCH {
            let line = if i % 2 == 0 {
                format!("create c{} i{i}", i % 7)
            } else {
                format!("next i{}", i - 1)
            };
            client.send(&line).unwrap();
        }
        let t0 = Instant::now();
        client.sync().unwrap();
        rtts.push(t0.elapsed());
    }
    let stats = client.bye();
    rtts.sort();
    let median = rtts[BARRIERS / 2];
    // A Nagle stall behind the peer's delayed ACK costs >= 40 ms per
    // barrier; an undelayed one is a loopback round trip plus fsync.
    assert!(
        median < Duration::from_millis(20),
        "median sync round trip {median:?} through a clean proxy; client: {}",
        stats.to_json()
    );
    drop(proxy);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}
