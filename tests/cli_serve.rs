//! Curl-less smoke test of `rvmon serve`: spawn the real binary on an
//! ephemeral port in `--once` mode, scrape the bound address from its
//! stdout, fetch `/metrics` over a raw [`std::net::TcpStream`], and
//! check the Prometheus text exposition — counters, phase histograms and
//! the well-formedness rules scrapers rely on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

mod common;

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `rvmon serve --once --port 0` on the shipped demo and returns
/// the full HTTP response to a GET of `path`.
fn fetch_once(path: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rvmon"))
        .args([
            "serve",
            &repo_path("specs/unsafe_iter.rv"),
            &repo_path("examples/unsafe_iter.events"),
            "--port",
            "0",
            "--once",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rvmon serve");

    // The first stdout line announces the bound ephemeral port:
    // `serving metrics on http://127.0.0.1:PORT/metrics (one request)`.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read serve banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|r| r.split("/metrics").next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"));

    let mut stream = TcpStream::connect(addr).expect("connect to rvmon serve");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");

    let status = child.wait().expect("rvmon serve exits after --once");
    assert!(status.success(), "serve exited nonzero");
    response
}

#[test]
fn serve_once_answers_a_prometheus_scrape() {
    let response = fetch_once("/metrics");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad status line: {head}");
    assert!(head.contains("Content-Type: text/plain; version=0.0.4"), "bad content type: {head}");
    let advertised: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(advertised, body.len(), "Content-Length must match the body");

    // The demo's Figure 10 row, as counters.
    assert!(body.contains("rvmon_events_total 7"), "E: {body}");
    assert!(body.contains("rvmon_monitors_created_total 3"), "M: {body}");
    assert!(body.contains("rvmon_monitors_flagged_total 1"), "FM: {body}");
    assert!(body.contains("rvmon_monitors_collected_total 2"), "CM: {body}");
    // No family for a count nothing produces.
    for family in ["rvmon_checkpoints_total", "rvmon_journal_truncated_bytes_total"] {
        assert!(!body.contains(family), "{family} has no producer: {body}");
    }

    // Per-property phase histograms with non-zero span counts, plus the
    // profiler's own measured overhead as a gauge.
    assert!(
        body.contains(
            "rvmon_phase_duration_ns_count{property=\"UnsafeIter/block1\",phase=\"index_lookup\"} 7"
        ),
        "one index-lookup span per event: {body}"
    );
    assert!(body.contains("phase=\"transition\""), "no transition spans: {body}");
    assert!(body.contains("phase=\"sweep\""), "no sweep spans: {body}");
    assert!(body.contains("rvmon_profiler_self_overhead_ns "), "no self-overhead gauge: {body}");

    // Exposition well-formedness, the same lint `Service::prometheus`
    // passes.
    common::lint_exposition(body);
    for family in ["rvmon_events_total", "rvmon_phase_duration_ns"] {
        assert!(body.contains(&format!("# HELP {family} ")), "no HELP for {family}");
        assert!(body.contains(&format!("# TYPE {family} ")), "no TYPE for {family}");
    }
}

#[test]
fn serve_answers_any_path_with_the_same_exposition() {
    let response = fetch_once("/anything-at-all");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("rvmon_events_total 7"), "{response}");
}

/// `/healthz` answers a plain-text liveness summary — 200, no Prometheus
/// version tag, a leading `ok`, and the engine's real activity counters —
/// instead of the exposition.
#[test]
fn serve_healthz_reports_engine_liveness() {
    let response = fetch_once("/healthz");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad status line: {head}");
    assert!(head.contains("Content-Type: text/plain"), "bad content type: {head}");
    assert!(!head.contains("version=0.0.4"), "healthz is not an exposition: {head}");
    let advertised: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(advertised, body.len(), "Content-Length must match the body");
    assert!(body.starts_with("ok\n"), "liveness body must lead with ok: {body}");
    // The demo's real counters, not a bare heartbeat.
    assert!(body.contains("blocks 1"), "{body}");
    assert!(body.contains("events 7"), "{body}");
    assert!(body.contains("triggers 1"), "{body}");
    assert!(body.contains("monitors_live 1"), "{body}");
    assert!(!body.contains("rvmon_events_total"), "healthz must not serve metrics: {body}");
}

/// Regression test for the accept-loop wedge: a client that connects
/// and then sends nothing used to block the (serial) accept loop
/// forever, since the stream had no read timeout. The server must reap
/// the stalled peer after its read timeout, close it without a response,
/// and — crucially for `--once` — still answer the next real client and
/// exit cleanly.
#[test]
fn serve_reaps_a_stalling_client_instead_of_wedging() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rvmon"))
        .args([
            "serve",
            &repo_path("specs/unsafe_iter.rv"),
            &repo_path("examples/unsafe_iter.events"),
            "--port",
            "0",
            "--once",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rvmon serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read serve banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|r| r.split("/metrics").next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_owned();

    // The wedge: connect and go silent. Accepted first, so the server's
    // serial loop is stuck on this peer until the read timeout fires.
    let mut staller = TcpStream::connect(&addr).expect("connect staller");
    staller.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // A real client queued behind the staller must still be served.
    let mut client = TcpStream::connect(&addr).expect("connect real client");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(client, "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    client.read_to_string(&mut response).expect("read response past the staller");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\r\n\r\nok\n"), "{response}");

    // The stalled peer was closed without a byte of response.
    let mut leftovers = Vec::new();
    let n = staller.read_to_end(&mut leftovers).expect("staller sees EOF, not a hang");
    assert_eq!(n, 0, "a reaped peer must get no response: {leftovers:?}");

    // And `--once` was spent on the real request, not the staller.
    let status = child.wait().expect("serve exits after the one real request");
    assert!(status.success(), "serve exited nonzero");
}

#[test]
fn serve_usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_rvmon"))
        .args([
            "serve",
            &repo_path("specs/unsafe_iter.rv"),
            &repo_path("examples/unsafe_iter.events"),
            "--port",
            "notaport",
        ])
        .output()
        .expect("run rvmon");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: rvmon serve"));
}
