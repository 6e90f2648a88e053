//! End-to-end battery for the real `rvmond` binary: spawn it on
//! ephemeral ports, speak the framed wire protocol over TCP, scrape
//! `/healthz`, kill it with SIGKILL mid-traffic, restart over the same
//! root and verify every tenant recovers, then SIGTERM-drain to a clean
//! exit 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use rv_monitor::core::service::{
    encode_hello, FRAME_BYE, FRAME_EVENT_SEQ, FRAME_HELLO, FRAME_OK, FRAME_STATS,
    FRAME_STATS_REPLY, FRAME_SYNC, FRAME_SYNCED,
};
use rv_monitor::core::{read_frame, write_frame, TenantOptions};

const SPEC: &str = r#"
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report "improper Concurrent Modification found!"; }
}
"#;

struct Daemon {
    child: Child,
    ingest: String,
    http: String,
}

impl Daemon {
    fn spawn(root: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rvmond"))
            .args(["--root", root.to_str().unwrap(), "--port", "0", "--http-port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rvmond");
        // Banner: `rvmond ingest on ADDR http on http://ADDR/healthz`.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read rvmond banner");
        let ingest = banner
            .split("ingest on ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_else(|| panic!("no ingest addr in banner: {banner}"))
            .to_owned();
        let http = banner
            .split("http://")
            .nth(1)
            .and_then(|r| r.split("/healthz").next())
            .unwrap_or_else(|| panic!("no http addr in banner: {banner}"))
            .to_owned();
        Daemon { child, ingest, http }
    }

    fn healthz(&self) -> String {
        let mut stream = TcpStream::connect(&self.http).expect("connect /healthz");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read /healthz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        response.split_once("\r\n\r\n").expect("header/body split").1.to_owned()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scratch() -> std::path::PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("rvmond-cli-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A framed-protocol client for one tenant connection: one session
/// whose lines carry a contiguous `cseq` from 1.
struct Client {
    stream: TcpStream,
    session: u64,
    last_cseq: u64,
}

/// Concatenates `u64 LE` fields and a trailing byte string — the
/// `EVENT_SEQ`, `SYNC` and `SYNCED` payload layouts.
fn fields(words: &[u64], tail: &[u8]) -> Vec<u8> {
    let mut p: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    p.extend_from_slice(tail);
    p
}

impl Client {
    fn hello(addr: &str, tenant: &str, spec: &str, session: u64) -> Client {
        let stream = TcpStream::connect(addr).expect("connect ingest");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut c = Client { stream, session, last_cseq: 0 };
        let hello = encode_hello(tenant, spec, &TenantOptions::default());
        write_frame(&mut c.stream, FRAME_HELLO, &hello).unwrap();
        let (kind, payload) = c.next_frame();
        assert_eq!(
            (kind, payload.as_slice()),
            (FRAME_OK, tenant.as_bytes()),
            "HELLO rejected: {}",
            String::from_utf8_lossy(&payload)
        );
        c
    }

    fn next_frame(&mut self) -> (u8, Vec<u8>) {
        read_frame(&mut self.stream).expect("read frame").expect("peer closed mid-conversation")
    }

    fn event(&mut self, line: &str) {
        self.last_cseq += 1;
        let payload = fields(&[self.session, self.last_cseq], line.as_bytes());
        write_frame(&mut self.stream, FRAME_EVENT_SEQ, &payload).unwrap();
    }

    /// A barrier: the echo carries the token and the session's HWM,
    /// which must cover every line sent.
    fn sync(&mut self, token: u64) {
        write_frame(&mut self.stream, FRAME_SYNC, &fields(&[token, self.session], b"")).unwrap();
        let (kind, payload) = self.next_frame();
        assert_eq!(kind, FRAME_SYNCED, "sync: {}", String::from_utf8_lossy(&payload));
        assert_eq!(payload, fields(&[token, self.last_cseq], b""));
    }

    fn stats(&mut self) -> String {
        write_frame(&mut self.stream, FRAME_STATS, &[]).unwrap();
        let (kind, payload) = self.next_frame();
        assert_eq!(kind, FRAME_STATS_REPLY);
        String::from_utf8(payload).expect("stats JSON is UTF-8")
    }

    fn bye(mut self) {
        write_frame(&mut self.stream, FRAME_BYE, &[]).unwrap();
    }
}

fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest =
        &json[json.find(&pat).unwrap_or_else(|| panic!("no `{key}` in {json}")) + pat.len()..];
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

/// Drives `n` UnsafeIter matches through a tenant connection.
fn drive(client: &mut Client, prefix: &str, n: usize) {
    for i in 0..n {
        client.event(&format!("create c {prefix}{i}"));
    }
    client.event("update c");
    for i in 0..n {
        client.event(&format!("next {prefix}{i}"));
    }
    client.sync(0xB0B);
}

/// A daemon asked to bind a port that is already taken must fail fast
/// — before recovery, with exit code 2 and a typed error naming the
/// port — not limp along half-listening.
#[test]
fn rvmond_fails_fast_on_bound_port() {
    let root = scratch();
    let daemon = Daemon::spawn(&root);
    let taken = daemon.ingest.rsplit(':').next().expect("port in ingest addr").to_owned();

    let other_root = scratch();
    let output = Command::new(env!("CARGO_BIN_EXE_rvmond"))
        .args(["--root", other_root.to_str().unwrap(), "--port", &taken, "--http-port", "0"])
        .output()
        .expect("run rvmond against a taken port");
    assert_eq!(output.status.code(), Some(2), "typed exit for a bound port");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error[port-bound]"), "{stderr}");
    assert!(stderr.contains(&taken), "diagnostic must name the port: {stderr}");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&other_root);
}

#[test]
fn rvmond_survives_sigkill_and_drains_on_sigterm() {
    let root = scratch();

    // Phase 1: two tenants over the wire, then SIGKILL mid-flight.
    let daemon = Daemon::spawn(&root);
    let mut alpha = Client::hello(&daemon.ingest, "alpha", SPEC, 1);
    let mut beta = Client::hello(&daemon.ingest, "beta", SPEC, 1);
    drive(&mut alpha, "i", 8);
    drive(&mut beta, "i", 5);
    let alpha_stats = alpha.stats();
    assert_eq!(json_u64(&alpha_stats, "events"), 17);
    assert_eq!(json_u64(&alpha_stats, "triggers"), 8);
    assert_eq!(json_u64(&beta.stats(), "triggers"), 5);

    let body = daemon.healthz();
    assert!(body.starts_with("ok\n"), "{body}");
    assert!(body.contains("tenants 2"), "{body}");
    assert!(body.contains("tenant alpha state=running"), "{body}");
    assert!(body.contains("tenant beta state=running"), "{body}");

    let pid = daemon.child.id();
    drop(daemon); // SIGKILL: no drain, no final checkpoint.
    let _ = pid;

    // Phase 2: restart over the same root — both tenants recover with
    // their journaled history, exactly once, and accept new work.
    let daemon = Daemon::spawn(&root);
    let body = daemon.healthz();
    assert!(body.contains("tenants 2"), "recovery missed a tenant: {body}");
    // A new logical client: a fresh session starts its own cseq at 1.
    let mut alpha = Client::hello(&daemon.ingest, "alpha", "", 2);
    let stats = alpha.stats();
    assert_eq!(json_u64(&stats, "events"), 17, "alpha lost events: {stats}");
    assert_eq!(json_u64(&stats, "triggers"), 8, "alpha lost triggers: {stats}");
    assert_eq!(
        json_u64(&stats, "suppressed_triggers"),
        8,
        "replay must re-fire and suppress, not re-deliver: {stats}"
    );
    drive(&mut alpha, "j", 4);
    let stats = alpha.stats();
    assert_eq!(json_u64(&stats, "events"), 26);
    assert_eq!(json_u64(&stats, "triggers"), 12, "fresh triggers after recovery: {stats}");
    alpha.bye();

    // Phase 3: SIGTERM → checkpoint every tenant, exit 0.
    let mut daemon = daemon;
    let status = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let code = daemon.child.wait().expect("rvmond exits on SIGTERM");
    assert!(code.success(), "SIGTERM drain must exit 0, got {code:?}");

    // Phase 4: a drained root restarts with zero replay.
    let daemon = Daemon::spawn(&root);
    let mut alpha = Client::hello(&daemon.ingest, "alpha", "", 3);
    let stats = alpha.stats();
    assert_eq!(json_u64(&stats, "events"), 26);
    assert_eq!(json_u64(&stats, "triggers"), 12);
    assert_eq!(json_u64(&stats, "recovered_events"), 0, "drain checkpointed the tail: {stats}");
    alpha.bye();
    drop(daemon);

    let _ = std::fs::remove_dir_all(&root);
}
