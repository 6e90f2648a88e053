//! One wire-level test per typed REJECT code, over a real TCP socket
//! against an in-process [`Service`], plus a seeded malformed-frame
//! fuzz loop: whatever bytes arrive, the framer never panics and
//! always answers a typed `400` (or closes cleanly on EOF) — and the
//! service keeps serving well-formed clients afterwards.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rv_monitor::core::service::{
    encode_frame, encode_hello, TENANT_FLAG_ALLOW_FATAL, TENANT_FLAG_SLOW_WORKER,
};
use rv_monitor::core::{
    read_frame, serve_connection, write_frame, Backpressure, Service, ServiceConfig,
    SupervisorConfig, TenantOptions, TenantState,
};
use rv_monitor::heap::SplitMix64;

const FRAME_HELLO: u8 = 0x01;
const FRAME_SYNC: u8 = 0x03;
const FRAME_RELOAD: u8 = 0x06;
const FRAME_POLL: u8 = 0x07;
const FRAME_EVENT_SEQ: u8 = 0x08;
const FRAME_OK: u8 = 0x80;
const FRAME_SYNCED: u8 = 0x81;
const FRAME_REJECT: u8 = 0x83;

/// The one client session every connection in this battery speaks for.
const SESSION: u64 = 1;

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
    let dir = std::env::temp_dir().join(format!("rv-reject-{tag}-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An in-process service behind a real TCP listener, one
/// `serve_connection` thread per accepted socket.
struct Server {
    svc: Arc<Service>,
    addr: String,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(config: ServiceConfig) -> Server {
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
                                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
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
        Server { svc, addr, stop, accept: Some(accept) }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_nodelay(true).unwrap();
        s
    }

    /// Opens a connection and completes a HELLO handshake.
    fn hello(&self, tenant: &str, spec: &str, opts: &TenantOptions) -> TcpStream {
        let mut s = self.connect();
        write_frame(&mut s, FRAME_HELLO, &encode_hello(tenant, spec, opts)).unwrap();
        let (kind, payload) = read_frame(&mut s).unwrap().expect("HELLO reply");
        assert_eq!((kind, payload.as_slice()), (FRAME_OK, tenant.as_bytes()));
        s
    }

    /// Opens a connection, sends one HELLO, and returns the REJECT.
    fn hello_rejected(&self, tenant: &str, spec: &str) -> (u16, String) {
        let mut s = self.connect();
        write_frame(&mut s, FRAME_HELLO, &encode_hello(tenant, spec, &TenantOptions::default()))
            .unwrap();
        expect_reject(&mut s)
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

/// Concatenates `u64 LE` fields and a trailing byte string — the
/// `EVENT_SEQ`, `SYNC` and `SYNCED` payload layouts.
fn fields(words: &[u64], tail: &[u8]) -> Vec<u8> {
    let mut p: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    p.extend_from_slice(tail);
    p
}

/// Writes line `cseq` of [`SESSION`] as an `EVENT_SEQ` frame.
fn send_line(s: &mut TcpStream, cseq: u64, line: &str) {
    write_frame(s, FRAME_EVENT_SEQ, &fields(&[SESSION, cseq], line.as_bytes())).unwrap();
}

/// Writes a barrier for [`SESSION`].
fn send_sync(s: &mut TcpStream, token: u64) {
    write_frame(s, FRAME_SYNC, &fields(&[token, SESSION], b"")).unwrap();
}

/// Reads the next frame and asserts it is the `SYNCED` `[token][hwm]`.
fn expect_synced(s: &mut TcpStream, token: u64, hwm: u64) {
    let (kind, payload) = read_frame(s).unwrap().expect("SYNCED");
    assert_eq!((kind, payload), (FRAME_SYNCED, fields(&[token, hwm], b"")));
}

/// Reads frames until a REJECT arrives; returns `(code, message)`.
fn expect_reject(s: &mut TcpStream) -> (u16, String) {
    loop {
        match read_frame(s).expect("read frame").expect("closed before REJECT") {
            (FRAME_REJECT, p) => {
                let code = u16::from_le_bytes(p[..2].try_into().unwrap());
                return (code, String::from_utf8_lossy(&p[2..]).into_owned());
            }
            _ => {}
        }
    }
}

#[test]
fn reject_400_bad_frame() {
    let root = scratch("400");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });

    // A frame whose CRC trailer does not match its body.
    let mut s = server.connect();
    let mut bytes = encode_frame(FRAME_HELLO, &encode_hello("t", SPEC, &TenantOptions::default()));
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    s.write_all(&bytes).unwrap();
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 400, "{msg}");
    assert!(msg.contains("malformed frame"), "{msg}");

    // A protocol-order violation: a line before HELLO.
    let mut s = server.connect();
    send_line(&mut s, 1, "update c");
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 400, "{msg}");
    assert!(msg.contains("before HELLO"), "{msg}");

    // Kind 0x02 is no frame kind: a client's unsequenced line gets a 400.
    let mut s = server.hello("t", SPEC, &TenantOptions::default());
    write_frame(&mut s, 0x02, b"update c").unwrap();
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 400, "{msg}");
    assert!(msg.contains("unknown frame kind 0x2"), "{msg}");

    // A SYNC must name its session: a bare 8-byte token and a 17-byte
    // payload are malformed, and the connection stays open for the
    // well-formed barrier after them.
    let mut s = server.hello("t", "", &TenantOptions::default());
    send_line(&mut s, 1, "update c");
    for bad in [fields(&[1], b""), fields(&[1, SESSION], b"x")] {
        write_frame(&mut s, FRAME_SYNC, &bad).unwrap();
        let (code, msg) = expect_reject(&mut s);
        assert_eq!(code, 400, "{msg}");
        assert!(msg.contains("malformed SYNC payload"), "{msg}");
    }
    send_sync(&mut s, 1);
    expect_synced(&mut s, 1, 1);

    assert_eq!(server.svc.stats.bad_frames.load(Ordering::Relaxed), 5);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_409_spec_mismatch() {
    let root = scratch("409");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });
    let _alive = server.hello("t", SPEC, &TenantOptions::default());
    let different = SPEC.replace("update+ next", "update+ next next");
    let (code, msg) = server.hello_rejected("t", &different);
    assert_eq!(code, 409, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_410_resume_gone() {
    let root = scratch("410");
    let server = Server::start(ServiceConfig {
        root: root.clone(),
        trigger_log_cap: 2,
        ..ServiceConfig::default()
    });
    let mut s = server.hello("t", SPEC, &TenantOptions::default());
    // Four matches overflow the 2-entry trigger log, evicting the
    // oldest two; resuming from the beginning is then impossible.
    for i in 0..4 {
        send_line(&mut s, i + 1, &format!("create c i{i}"));
    }
    send_line(&mut s, 5, "update c");
    for i in 0..4 {
        send_line(&mut s, i + 6, &format!("next i{i}"));
    }
    send_sync(&mut s, 1);
    expect_synced(&mut s, 1, 9);

    let mut poll = Vec::new();
    poll.extend_from_slice(&0u64.to_le_bytes());
    poll.extend_from_slice(&0u32.to_le_bytes());
    poll.extend_from_slice(&16u32.to_le_bytes());
    write_frame(&mut s, FRAME_POLL, &poll).unwrap();
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 410, "{msg}");
    assert!(msg.contains("evicted"), "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_422_bad_spec() {
    let root = scratch("422");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });
    let (code, msg) = server.hello_rejected("t", "NotASpec {");
    assert_eq!(code, 422, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_429_too_many_tenants() {
    let root = scratch("429");
    let server = Server::start(ServiceConfig {
        root: root.clone(),
        max_tenants: 1,
        ..ServiceConfig::default()
    });
    let _alive = server.hello("a", SPEC, &TenantOptions::default());
    let (code, msg) = server.hello_rejected("b", SPEC);
    assert_eq!(code, 429, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_430_too_many_conns() {
    let root = scratch("430");
    let server = Server::start(ServiceConfig {
        root: root.clone(),
        max_conns_per_tenant: 1,
        ..ServiceConfig::default()
    });
    let _alive = server.hello("t", SPEC, &TenantOptions::default());
    let (code, msg) = server.hello_rejected("t", "");
    assert_eq!(code, 430, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_431_queue_full_under_shed() {
    let root = scratch("431");
    let server = Server::start(ServiceConfig {
        root: root.clone(),
        queue_depth: 1,
        backpressure: Backpressure::Shed,
        ..ServiceConfig::default()
    });
    let opts = TenantOptions { flags: TENANT_FLAG_SLOW_WORKER, ..TenantOptions::default() };
    let mut s = server.hello("t", SPEC, &opts);
    // A burst into a depth-1 queue with a 2ms/line worker must shed.
    for cseq in 1..=64 {
        send_line(&mut s, cseq, "update c");
    }
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 431, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_500_tenant_failed() {
    let root = scratch("500");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });
    let opts = TenantOptions { flags: TENANT_FLAG_ALLOW_FATAL, ..TenantOptions::default() };
    let mut s = server.hello("t", SPEC, &opts);
    send_line(&mut s, 1, "!fatal");
    // Unsupervised: the worker dies and stays dead. Wait for the state
    // to settle so the next frames deterministically answer 500.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server
        .svc
        .snapshots()
        .iter()
        .any(|t| t.name == "t" && matches!(t.state, TenantState::Failed(_)))
    {
        assert!(Instant::now() < deadline, "worker never failed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A reload meets the same gate as a line: 500, not a retryable 503.
    // A reload reject keeps the connection open for the line after it.
    write_frame(&mut s, FRAME_RELOAD, &fields(&[1], SPEC.as_bytes())).unwrap();
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 500, "{msg}");
    send_line(&mut s, 2, "update c");
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 500, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_503_draining() {
    let root = scratch("503");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });
    let s = server.hello("t", SPEC, &TenantOptions::default());
    drop(s);
    let _ = server.svc.drain();
    let (code, msg) = server.hello_rejected("t", "");
    assert_eq!(code, 503, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reject_504_timeout() {
    let root = scratch("504");
    let server = Server::start(ServiceConfig {
        root: root.clone(),
        reply_timeout: Duration::from_millis(40),
        queue_depth: 256,
        ..ServiceConfig::default()
    });
    let opts = TenantOptions { flags: TENANT_FLAG_SLOW_WORKER, ..TenantOptions::default() };
    let mut s = server.hello("t", SPEC, &opts);
    // ~120ms of queued slow-worker work vs a 40ms barrier deadline.
    for cseq in 1..=60 {
        send_line(&mut s, cseq, "update c");
    }
    send_sync(&mut s, 7);
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 504, "{msg}");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

/// A second `!free` of an object that is still live is a bad line, not a
/// worker failure: the supervised tenant keeps running without a restart
/// and serves the next events and barrier.
#[test]
fn double_free_is_a_bad_line_not_a_tenant_failure() {
    let root = scratch("double-free");
    let server = Server::start(ServiceConfig {
        root: root.clone(),
        supervisor: SupervisorConfig { max_restarts: 3, ..SupervisorConfig::default() },
        ..ServiceConfig::default()
    });
    let mut s = server.hello("t", SPEC, &TenantOptions::default());
    let mut cseq = 0u64;
    let mut barrier = |s: &mut TcpStream, lines: &[&str], token: u64| {
        for line in lines {
            cseq += 1;
            send_line(s, cseq, line);
        }
        send_sync(s, token);
        // A bad line still advances the session's mark.
        expect_synced(s, token, cseq);
        server.svc.snapshots().into_iter().find(|t| t.name == "t").unwrap()
    };
    let snap = barrier(&mut s, &["create c i", "next i", "!free i", "!free i"], 1);
    assert_eq!(snap.bad_lines, 1, "{}", snap.to_json());
    let snap = barrier(&mut s, &["create c j", "update c", "next j"], 2);
    assert_eq!(snap.state, TenantState::Running, "{}", snap.to_json());
    assert_eq!(snap.restarts, 0, "{}", snap.to_json());
    assert_eq!((snap.bad_lines, snap.events, snap.triggers), (1, 5, 1), "{}", snap.to_json());
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

/// A barrier sent first on a fresh connection — a client that
/// reconnects with an empty resend window — names its session, so the
/// echo carries that session's durable high-water mark from the earlier
/// connection; a session that never sent a line reads 0.
#[test]
fn sync_first_on_a_fresh_connection_echoes_the_durable_hwm() {
    let root = scratch("sync-first");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });
    let mut s = server.hello("t", SPEC, &TenantOptions::default());
    for (cseq, line) in (1..).zip(["create c i1", "update c", "next i1"]) {
        send_line(&mut s, cseq, line);
    }
    send_sync(&mut s, 3);
    expect_synced(&mut s, 3, 3);
    drop(s);

    let mut s = server.hello("t", "", &TenantOptions::default());
    send_sync(&mut s, 3);
    expect_synced(&mut s, 3, 3);
    write_frame(&mut s, FRAME_SYNC, &fields(&[4, SESSION + 1], b"")).unwrap();
    expect_synced(&mut s, 4, 0);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

/// Seeded garbage against the framer: raw byte soup, CRC-corrupted
/// real frames, and CRC-valid frames with unknown kinds. Every
/// connection must end in a typed 400 or a clean close — never a
/// panic, never a hang — and the service must keep serving real
/// clients afterwards.
#[test]
fn malformed_frame_fuzz_never_panics_always_400() {
    let root = scratch("fuzz");
    let server = Server::start(ServiceConfig { root: root.clone(), ..ServiceConfig::default() });
    let mut rng = SplitMix64::new(0xF022_5EED);
    let hello = encode_frame(FRAME_HELLO, &encode_hello("t", SPEC, &TenantOptions::default()));

    for case in 0..120u32 {
        let mut s = server.connect();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let bytes: Vec<u8> = match case % 3 {
            // Raw byte soup of random length.
            0 => {
                let len = (rng.next_u64() % 96 + 1) as usize;
                (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
            }
            // A real frame with one random bit flipped past the length
            // prefix (so the framer reads it fully and fails the CRC).
            1 => {
                let mut b = hello.clone();
                let pos = 4 + (rng.next_u64() as usize) % (b.len() - 4);
                b[pos] ^= 1 << (rng.next_u64() % 8);
                b
            }
            // A CRC-valid frame with an unknown kind byte.
            _ => {
                let kind = 0x20 | (rng.next_u64() & 0x1F) as u8;
                let payload: Vec<u8> =
                    (0..(rng.next_u64() % 32) as usize).map(|i| i as u8).collect();
                encode_frame(kind, &payload)
            }
        };
        s.write_all(&bytes).unwrap();
        // EOF the write half so a truncated length prefix cannot park
        // the server waiting for more bytes.
        s.shutdown(Shutdown::Write).unwrap();
        // The server either answers a typed 400 and closes, or (when
        // the soup happens to be a clean EOF boundary) just closes.
        loop {
            match read_frame(&mut s) {
                Ok(Some((FRAME_REJECT, p))) => {
                    let code = u16::from_le_bytes(p[..2].try_into().unwrap());
                    assert_eq!(code, 400, "case {case}: wrong reject code");
                }
                Ok(Some((kind, _))) => panic!("case {case}: unexpected frame kind {kind:#x}"),
                Ok(None) => break,
                // The server closing with unread soup still buffered
                // surfaces as RST on this side — still a clean outcome.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("case {case}: client-side read error: {e}"),
            }
        }
    }

    // The service survived 120 hostile connections: a well-formed
    // client still gets a full handshake and a working tenant.
    let mut s = server.hello("t", SPEC, &TenantOptions::default());
    for (cseq, line) in (1..).zip(["create c i1", "update c", "next i1"]) {
        send_line(&mut s, cseq, line);
    }
    send_sync(&mut s, 1);
    expect_synced(&mut s, 1, 3);
    let snap = server.svc.snapshots().into_iter().find(|t| t.name == "t").unwrap();
    assert_eq!(snap.triggers, 1, "{}", snap.to_json());
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}
