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

const FRAME_HELLO: u8 = 0x01;
const FRAME_EVENT: u8 = 0x02;
const FRAME_SYNC: u8 = 0x03;
const FRAME_POLL: u8 = 0x07;
const FRAME_OK: u8 = 0x80;
const FRAME_REJECT: u8 = 0x83;

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

    // A protocol-order violation: EVENT before HELLO.
    let mut s = server.connect();
    write_frame(&mut s, FRAME_EVENT, b"update c").unwrap();
    let (code, msg) = expect_reject(&mut s);
    assert_eq!(code, 400, "{msg}");
    assert!(msg.contains("before HELLO"), "{msg}");

    assert_eq!(server.svc.stats.bad_frames.load(Ordering::Relaxed), 2);
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
        write_frame(&mut s, FRAME_EVENT, format!("create c i{i}").as_bytes()).unwrap();
    }
    write_frame(&mut s, FRAME_EVENT, b"update c").unwrap();
    for i in 0..4 {
        write_frame(&mut s, FRAME_EVENT, format!("next i{i}").as_bytes()).unwrap();
    }
    write_frame(&mut s, FRAME_SYNC, &1u64.to_le_bytes()).unwrap();
    let (kind, _) = read_frame(&mut s).unwrap().unwrap();
    assert_eq!(kind, 0x81, "SYNCED");

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
    for _ in 0..64 {
        write_frame(&mut s, FRAME_EVENT, b"update c").unwrap();
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
    write_frame(&mut s, FRAME_EVENT, b"!fatal").unwrap();
    // Unsupervised: the worker dies and stays dead. Wait for the state
    // to settle so the next EVENT deterministically answers 500.
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
    write_frame(&mut s, FRAME_EVENT, b"update c").unwrap();
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
    for _ in 0..60 {
        write_frame(&mut s, FRAME_EVENT, b"update c").unwrap();
    }
    write_frame(&mut s, FRAME_SYNC, &7u64.to_le_bytes()).unwrap();
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
    let barrier = |s: &mut TcpStream, lines: &[&str], token: u64| {
        for line in lines {
            write_frame(s, FRAME_EVENT, line.as_bytes()).unwrap();
        }
        write_frame(s, FRAME_SYNC, &token.to_le_bytes()).unwrap();
        let (kind, payload) = read_frame(s).unwrap().expect("SYNCED");
        assert_eq!((kind, payload.as_slice()), (0x81, &token.to_le_bytes()[..]));
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    let mut rng: u64 = 0xF022_5EED;
    let hello = encode_frame(FRAME_HELLO, &encode_hello("t", SPEC, &TenantOptions::default()));

    for case in 0..120u32 {
        let mut s = server.connect();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let bytes: Vec<u8> = match case % 3 {
            // Raw byte soup of random length.
            0 => {
                let len = (splitmix64(&mut rng) % 96 + 1) as usize;
                (0..len).map(|_| (splitmix64(&mut rng) & 0xFF) as u8).collect()
            }
            // A real frame with one random bit flipped past the length
            // prefix (so the framer reads it fully and fails the CRC).
            1 => {
                let mut b = hello.clone();
                let pos = 4 + (splitmix64(&mut rng) as usize) % (b.len() - 4);
                b[pos] ^= 1 << (splitmix64(&mut rng) % 8);
                b
            }
            // A CRC-valid frame with an unknown kind byte.
            _ => {
                let kind = 0x20 | (splitmix64(&mut rng) & 0x1F) as u8;
                let payload: Vec<u8> =
                    (0..(splitmix64(&mut rng) % 32) as usize).map(|i| i as u8).collect();
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
    write_frame(&mut s, FRAME_EVENT, b"create c i1").unwrap();
    write_frame(&mut s, FRAME_EVENT, b"update c").unwrap();
    write_frame(&mut s, FRAME_EVENT, b"next i1").unwrap();
    write_frame(&mut s, FRAME_SYNC, &1u64.to_le_bytes()).unwrap();
    let (kind, _) = read_frame(&mut s).unwrap().unwrap();
    assert_eq!(kind, 0x81, "SYNCED after the fuzz barrage");
    let snap = server.svc.snapshots().into_iter().find(|t| t.name == "t").unwrap();
    assert_eq!(snap.triggers, 1, "{}", snap.to_json());
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}
