//! `rvmond` — the long-running multi-tenant monitoring daemon.
//!
//! A thin TCP shell around [`rv_monitor::core::Service`]: one framed
//! ingest listener (clients speak the `FRAME_*` protocol, one tenant per
//! connection), one plain-text HTTP listener for `/healthz` and
//! `/metrics`, a `SIGTERM`/`SIGINT` handler that drains every tenant to
//! a checkpoint before exiting 0, and start-up recovery that rebuilds
//! every tenant directory found under the root — so a `kill -9` loses
//! nothing but the un-fsynced tail and a restart is a checkpoint restore
//! away from serving again.
//!
//! Self-healing: `--restart-budget` arms the in-service supervisor
//! (restart Failed tenants with backoff, circuit-break after the budget
//! is spent inside the window), and `SIGHUP` hot-reloads every tenant's
//! spec from `--spec-dir` (default: the service root) without dropping
//! an acknowledged event — the old engine drains to a checkpoint at its
//! exact journal tail and the new spec cuts over atomically.
//!
//! Observability: every ingested line is traced through the wire →
//! admission → queue → engine → journal → trigger pipeline (scraped as
//! `rvmond_stage_*` and `rvmond_slo_*` on `/metrics`), `--slo` sets the
//! per-tenant latency/availability objectives, and `SIGQUIT` dumps the
//! always-on flight recorder to `flight-sigquit-N.rvfr` under the root
//! without disturbing the daemon (render it with `rvmon flight`).
//!
//! ```text
//! rvmond --root DIR [--port N] [--http-port N] [--max-tenants N]
//!        [--max-conns N] [--queue N] [--shed] [--checkpoint-every N]
//!        [--idle-ms N] [--max-live-monitors N]
//!        [--restart-budget N] [--restart-window-ms N] [--restart-backoff-ms N]
//!        [--spec-dir DIR] [--slo SPEC]
//! ```

use std::io::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rv_monitor::core::expo::{respond, Endpoint};
use rv_monitor::core::{
    content_token, serve_connection, Backpressure, Service, ServiceConfig, SloConfig,
};

/// Set by the signal handler; the accept loops poll it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Set by SIGHUP; the ingest loop performs the spec reload.
static RELOAD: AtomicBool = AtomicBool::new(false);
/// Set by SIGQUIT; the ingest loop dumps the flight recorder.
static FLIGHT: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(sig: i32) {
    if sig == SIGHUP {
        RELOAD.store(true, Ordering::SeqCst);
    } else if sig == SIGQUIT {
        FLIGHT.store(true, Ordering::SeqCst);
    } else {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
}

// std links libc on every supported platform; `signal(2)` is enough for
// a drain flag and avoids growing a dependency for sigaction niceties.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGHUP: i32 = 1;
const SIGINT: i32 = 2;
const SIGQUIT: i32 = 3;
const SIGTERM: i32 = 15;

fn install_signal_handlers() {
    let handler = on_signal as extern "C" fn(i32);
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
        signal(SIGHUP, handler as usize);
        signal(SIGQUIT, handler as usize);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvmond --root DIR [--port N] [--http-port N] [--max-tenants N] \
         [--max-conns N] [--queue N] [--shed] [--checkpoint-every N] [--idle-ms N] \
         [--restart-budget N] [--restart-window-ms N] [--restart-backoff-ms N] \
         [--spec-dir DIR] [--slo SPEC]"
    );
    ExitCode::from(2)
}

/// SIGHUP handler body: every live tenant whose `<name>.spec` exists
/// under `spec_dir` is hot-reloaded to that file's contents, under its
/// [`content_token`], so re-sending the signal with an unchanged file
/// is a no-op cutover.
fn reload_from_dir(service: &Service, spec_dir: &std::path::Path) {
    for name in service.tenant_names() {
        let path = spec_dir.join(format!("{name}.spec"));
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(_) => {
                eprintln!(
                    "rvmond: reload: no spec at {} — tenant `{name}` unchanged",
                    path.display()
                );
                continue;
            }
        };
        match service.reload(&name, content_token(&name, &source), &source) {
            Ok(version) => eprintln!("rvmond: reloaded tenant `{name}` to spec v{version}"),
            Err((code, msg)) => {
                eprintln!("rvmond: reload of tenant `{name}` rejected ({code}): {msg}");
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServiceConfig::default();
    let mut port: u16 = 0;
    let mut http_port: u16 = 0;
    let mut idle_ms: u64 = 5_000;
    let mut spec_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => config.root = v.into(),
                None => return usage(),
            },
            "--port" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => port = n,
                None => return usage(),
            },
            "--http-port" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => http_port = n,
                None => return usage(),
            },
            "--max-tenants" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.max_tenants = n,
                _ => return usage(),
            },
            "--max-conns" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.max_conns_per_tenant = n,
                _ => return usage(),
            },
            "--queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.queue_depth = n,
                _ => return usage(),
            },
            "--shed" => config.backpressure = Backpressure::Shed,
            "--block" => config.backpressure = Backpressure::Block,
            "--checkpoint-every" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.checkpoint_every = n,
                _ => return usage(),
            },
            "--idle-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => idle_ms = n,
                _ => return usage(),
            },
            "--max-live-monitors" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.engine.max_live_monitors = Some(n),
                _ => return usage(),
            },
            "--restart-budget" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => config.supervisor.max_restarts = n,
                None => return usage(),
            },
            "--restart-window-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.supervisor.window = Duration::from_millis(n),
                _ => return usage(),
            },
            "--restart-backoff-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.supervisor.backoff = Duration::from_millis(n),
                _ => return usage(),
            },
            "--spec-dir" => match it.next() {
                Some(v) => spec_dir = Some(v.into()),
                None => return usage(),
            },
            "--slo" => match it.next().map(|s| SloConfig::parse(s)) {
                Some(Ok(slo)) => config.slo = slo,
                Some(Err(e)) => {
                    eprintln!("rvmond: bad --slo spec: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let spec_dir = spec_dir.unwrap_or_else(|| config.root.clone());

    // Fail fast on bound ports: claim both listeners *before* the
    // (possibly slow) service-root recovery, so a misconfigured port is
    // a crisp exit-2 naming the port, not a panic after seconds of
    // replay work.
    let ingest = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rvmond: error[port-bound]: cannot bind ingest port {port}: {e}");
            return ExitCode::from(2);
        }
    };
    let http = match TcpListener::bind(("127.0.0.1", http_port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rvmond: error[port-bound]: cannot bind http port {http_port}: {e}");
            return ExitCode::from(2);
        }
    };

    install_signal_handlers();
    // Build identity for `rvmond_build_info` and flight-dump headers.
    // The commit comes from the environment at compile time (CI sets
    // RVMOND_COMMIT); a plain `cargo build` reports "unknown".
    config.version = env!("CARGO_PKG_VERSION").to_owned();
    config.commit = option_env!("RVMOND_COMMIT").unwrap_or("unknown").to_owned();
    let service = match Service::new(config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("rvmond: cannot create service root: {e}");
            return ExitCode::from(2);
        }
    };

    // Start-up recovery: every tenant directory under the root comes
    // back before the listeners open, so the first client request sees
    // the post-crash state, never a half-recovered one.
    match service.recover_all() {
        Ok((recovered, failed)) => {
            for name in &recovered {
                eprintln!("rvmond: recovered tenant `{name}`");
            }
            for (name, (code, msg)) in &failed {
                eprintln!("rvmond: tenant `{name}` failed recovery ({code}): {msg}");
            }
        }
        Err(e) => {
            eprintln!("rvmond: cannot scan service root: {e}");
            return ExitCode::from(2);
        }
    }

    let (Ok(ingest_addr), Ok(http_addr)) = (ingest.local_addr(), http.local_addr()) else {
        eprintln!("rvmond: cannot resolve listener addresses");
        return ExitCode::from(2);
    };
    // The resolved addresses go to stdout (flushed) so harnesses that
    // asked for port 0 can scrape them before connecting.
    println!("rvmond ingest on {ingest_addr} http on http://{http_addr}/healthz");
    let _ = std::io::stdout().flush();

    // Nonblocking accept loops so both listeners poll the drain flag.
    if ingest.set_nonblocking(true).is_err() || http.set_nonblocking(true).is_err() {
        eprintln!("rvmond: cannot switch listeners to nonblocking accepts");
        return ExitCode::from(2);
    }

    let http_service = Arc::clone(&service);
    let http_thread = std::thread::spawn(move || loop {
        match http.accept() {
            Ok((mut stream, _)) => {
                respond(&mut stream, |endpoint| match endpoint {
                    Endpoint::Healthz => http_service.healthz(),
                    Endpoint::Metrics => http_service.prometheus(),
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    });

    let idle = Duration::from_millis(idle_ms);
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        match ingest.accept() {
            Ok((stream, _)) => {
                // Per-connection read/write timeouts: a stalled peer is
                // reaped by the connection loop, not left holding a slot.
                let _ = stream.set_read_timeout(Some(idle));
                let _ = stream.set_write_timeout(Some(idle));
                let _ = stream.set_nodelay(true);
                let svc = Arc::clone(&service);
                conns.push(std::thread::spawn(move || {
                    let mut stream = stream;
                    let _ = serve_connection(&svc, &mut stream);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }));
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    break;
                }
                if RELOAD.swap(false, Ordering::SeqCst) {
                    reload_from_dir(&service, &spec_dir);
                }
                if FLIGHT.swap(false, Ordering::SeqCst) {
                    match service.dump_flight("sigquit") {
                        Ok(path) => eprintln!("rvmond: flight dump at {}", path.display()),
                        Err(e) => eprintln!("rvmond: flight dump failed: {e}"),
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }

    // Graceful drain: stop admissions, checkpoint every tenant, join the
    // workers — the restart path is a checkpoint restore, not a replay.
    eprintln!("rvmond: draining");
    let drained = service.drain();
    for h in conns {
        let _ = h.join();
    }
    let _ = http_thread.join();
    eprintln!("rvmond: drained {drained} tenant(s), exiting");
    ExitCode::SUCCESS
}
