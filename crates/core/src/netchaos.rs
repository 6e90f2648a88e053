//! `netchaos` — a deterministic, frame-aware TCP fault-injection proxy.
//!
//! The proxy sits between a wire client (loadgen, `rvmonctl`) and an
//! rvmond ingest listener and injects faults at *frame* granularity:
//! whole frames are dropped, duplicated, delayed, bit-flipped, or
//! truncated, and connections are reset or half-open partitioned. Frame
//! granularity matters — the point is to exercise the protocol's
//! recovery machinery (CRC trailers, reconnect + window resend, HWM
//! dedup), not the kernel's TCP reassembly.
//!
//! Fault choice is driven by a splitmix64 stream seeded from
//! `profile.seed` and the connection's accept ordinal, so a given
//! (seed, profile, workload) triple replays the same fault schedule.
//! Note the exactly-once guarantee the differential harness asserts
//! does **not** depend on that determinism — any fault schedule must
//! yield the identical trigger stream; the seed only makes failures
//! reproducible.
//!
//! Corruption flips one bit in the *encoded* frame (after the CRC
//! trailer is computed), so the receiver's `read_frame` sees a CRC
//! mismatch: servers answer a typed 400 and close, clients reconnect
//! and resend. This is deliberately the only fault that forges bytes —
//! everything else reorders, elides, or delays intact frames.
//!
//! Both legs of every proxied connection run with `TCP_NODELAY`, so the
//! proxy adds no latency of its own: the only faults on the wire are the
//! ones the profile names.

use std::io::{self, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rv_heap::SplitMix64;

use crate::service::{encode_frame, read_frame};

/// Per-frame fault rates in permille (0–1000), plus the seed that makes
/// the schedule deterministic. Rates are sampled cumulatively per
/// frame, so at most one fault applies to any frame; the sum of all
/// rates must stay ≤ 1000.
#[derive(Clone, Copy, Debug)]
pub struct ChaosProfile {
    /// Seed for the per-connection fault schedule.
    pub seed: u64,
    /// Frame silently dropped.
    pub drop_permille: u16,
    /// Frame delivered twice back to back.
    pub dup_permille: u16,
    /// One bit of the encoded frame flipped (CRC catches it).
    pub corrupt_permille: u16,
    /// Frame cut mid-byte and the connection torn down.
    pub truncate_permille: u16,
    /// Connection reset without warning.
    pub reset_permille: u16,
    /// Half-open partition: the direction goes silent but the socket
    /// stays up, so only a read timeout can surface it.
    pub partition_permille: u16,
    /// Frame delayed by `delay_ms` before forwarding.
    pub delay_permille: u16,
    /// Delay applied when the delay fault fires.
    pub delay_ms: u64,
}

impl Default for ChaosProfile {
    /// A clean profile: pure pass-through, useful as a baseline.
    fn default() -> Self {
        ChaosProfile {
            seed: 0xC4A0_5,
            drop_permille: 0,
            dup_permille: 0,
            corrupt_permille: 0,
            truncate_permille: 0,
            reset_permille: 0,
            partition_permille: 0,
            delay_permille: 0,
            delay_ms: 5,
        }
    }
}

impl ChaosProfile {
    /// A mixed-fault profile at roughly `permille`/1000 total fault
    /// rate, split across drop / dup / corrupt / delay with a thin
    /// tail of resets. `lossy(10)` ≈ the "1% loss" CI profile.
    #[must_use]
    pub fn lossy(permille: u16, seed: u64) -> ChaosProfile {
        let p = permille.min(900);
        ChaosProfile {
            seed,
            drop_permille: p / 4,
            dup_permille: p / 4,
            corrupt_permille: p / 4,
            truncate_permille: 0,
            reset_permille: p / 8,
            partition_permille: 0,
            delay_permille: p - p / 4 * 3 - p / 8,
            delay_ms: 5,
        }
    }

    fn total(&self) -> u32 {
        u32::from(self.drop_permille)
            + u32::from(self.dup_permille)
            + u32::from(self.corrupt_permille)
            + u32::from(self.truncate_permille)
            + u32::from(self.reset_permille)
            + u32::from(self.partition_permille)
            + u32::from(self.delay_permille)
    }

    /// Parses `key=value` pairs separated by commas, e.g.
    /// `"drop=10,dup=5,corrupt=2,seed=42"`. Keys: `drop`, `dup`,
    /// `corrupt`, `truncate`, `reset`, `partition`, `delay` (permille),
    /// `delay_ms`, `seed`.
    ///
    /// # Errors
    ///
    /// Unknown key, unparsable value, or total fault rate > 1000‰.
    pub fn parse(s: &str) -> Result<ChaosProfile, String> {
        let mut p = ChaosProfile::default();
        for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                pair.split_once('=').ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            let parse_rate =
                |v: &str| v.parse::<u16>().map_err(|_| format!("bad permille for {key}: {v:?}"));
            match key.trim() {
                "drop" => p.drop_permille = parse_rate(value)?,
                "dup" => p.dup_permille = parse_rate(value)?,
                "corrupt" => p.corrupt_permille = parse_rate(value)?,
                "truncate" => p.truncate_permille = parse_rate(value)?,
                "reset" => p.reset_permille = parse_rate(value)?,
                "partition" => p.partition_permille = parse_rate(value)?,
                "delay" => p.delay_permille = parse_rate(value)?,
                "delay_ms" => {
                    p.delay_ms = value.parse().map_err(|_| format!("bad delay_ms: {value:?}"))?;
                }
                "seed" => {
                    p.seed = value.parse().map_err(|_| format!("bad seed: {value:?}"))?;
                }
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        if p.total() > 1000 {
            return Err(format!("fault rates sum to {}‰ > 1000‰", p.total()));
        }
        Ok(p)
    }
}

/// Counters for every fault the proxy actually injected.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted.
    pub conns: AtomicU64,
    /// Frames forwarded unharmed.
    pub forwarded: AtomicU64,
    /// Frames dropped.
    pub dropped: AtomicU64,
    /// Frames duplicated.
    pub duplicated: AtomicU64,
    /// Frames bit-flipped.
    pub corrupted: AtomicU64,
    /// Frames truncated (connection then torn down).
    pub truncated: AtomicU64,
    /// Connections reset.
    pub resets: AtomicU64,
    /// Half-open partitions entered.
    pub partitions: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
}

impl ChaosStats {
    /// Total frames the proxy interfered with.
    pub fn faults(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.corrupted.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.resets.load(Ordering::Relaxed)
            + self.partitions.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
    }

    /// Renders the counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"conns\":{},\"forwarded\":{},\"dropped\":{},\"duplicated\":{},\"corrupted\":{},\
             \"truncated\":{},\"resets\":{},\"partitions\":{},\"delayed\":{}}}",
            self.conns.load(Ordering::Relaxed),
            self.forwarded.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.corrupted.load(Ordering::Relaxed),
            self.truncated.load(Ordering::Relaxed),
            self.resets.load(Ordering::Relaxed),
            self.partitions.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
        )
    }
}

enum Fault {
    None,
    Drop,
    Dup,
    Corrupt,
    Truncate,
    Reset,
    Partition,
    Delay,
}

fn pick_fault(profile: &ChaosProfile, rng: &mut SplitMix64) -> Fault {
    let roll = (rng.next_u64() % 1000) as u32;
    let mut edge = u32::from(profile.drop_permille);
    if roll < edge {
        return Fault::Drop;
    }
    edge += u32::from(profile.dup_permille);
    if roll < edge {
        return Fault::Dup;
    }
    edge += u32::from(profile.corrupt_permille);
    if roll < edge {
        return Fault::Corrupt;
    }
    edge += u32::from(profile.truncate_permille);
    if roll < edge {
        return Fault::Truncate;
    }
    edge += u32::from(profile.reset_permille);
    if roll < edge {
        return Fault::Reset;
    }
    edge += u32::from(profile.partition_permille);
    if roll < edge {
        return Fault::Partition;
    }
    edge += u32::from(profile.delay_permille);
    if roll < edge {
        return Fault::Delay;
    }
    Fault::None
}

/// One direction of a proxied connection: read whole frames from `src`,
/// roll a fault, forward (or not) to `dst`. Returns when either side
/// closes, a terminal fault fires, or `stop` is raised.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    profile: ChaosProfile,
    mut rng: SplitMix64,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(100)));
    let teardown = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    while !stop.load(Ordering::Relaxed) {
        let frame = match read_frame(&mut src) {
            Ok(Some((kind, payload))) => encode_frame(kind, &payload),
            Ok(None) => {
                // Clean EOF: propagate the half-close downstream.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => {
                teardown(&src, &dst);
                return;
            }
        };
        match pick_fault(&profile, &mut rng) {
            Fault::None => {
                stats.forwarded.fetch_add(1, Ordering::Relaxed);
                if dst.write_all(&frame).is_err() {
                    teardown(&src, &dst);
                    return;
                }
            }
            Fault::Drop => {
                stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Fault::Dup => {
                stats.duplicated.fetch_add(1, Ordering::Relaxed);
                if dst.write_all(&frame).is_err() || dst.write_all(&frame).is_err() {
                    teardown(&src, &dst);
                    return;
                }
            }
            Fault::Corrupt => {
                stats.corrupted.fetch_add(1, Ordering::Relaxed);
                let mut mangled = frame;
                // Flip one bit past the length prefix so the receiver
                // still frames correctly but the CRC trailer fails.
                let pos = 4 + (rng.next_u64() as usize) % (mangled.len() - 4);
                mangled[pos] ^= 1 << (rng.next_u64() % 8) as u8;
                if dst.write_all(&mangled).is_err() {
                    teardown(&src, &dst);
                    return;
                }
            }
            Fault::Truncate => {
                stats.truncated.fetch_add(1, Ordering::Relaxed);
                let keep = 1 + (rng.next_u64() as usize) % (frame.len().max(2) - 1);
                let _ = dst.write_all(&frame[..keep]);
                teardown(&src, &dst);
                return;
            }
            Fault::Reset => {
                stats.resets.fetch_add(1, Ordering::Relaxed);
                teardown(&src, &dst);
                return;
            }
            Fault::Partition => {
                // Go silent without closing: the socket stays up, the
                // frame (and everything after it) is black-holed. Only
                // the peer's read timeout can detect this.
                stats.partitions.fetch_add(1, Ordering::Relaxed);
                while !stop.load(Ordering::Relaxed) {
                    match read_frame(&mut src) {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut => {}
                        Err(_) => break,
                    }
                }
                teardown(&src, &dst);
                return;
            }
            Fault::Delay => {
                stats.delayed.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(profile.delay_ms));
                if dst.write_all(&frame).is_err() {
                    teardown(&src, &dst);
                    return;
                }
            }
        }
    }
    teardown(&src, &dst);
}

/// A running chaos proxy: accepts on a local port and forwards each
/// connection to `upstream` through two frame-aware fault-injecting
/// pumps (one per direction). Dropped on shutdown.
pub struct ChaosProxy {
    addr: SocketAddr,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates bind/local-addr failures.
    pub fn start(upstream: &str, profile: ChaosProfile) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ChaosStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let upstream = upstream.to_owned();
        let accept = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            thread::Builder::new().name("netchaos-accept".into()).spawn(move || {
                let mut conn_ix = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (client, _) = match listener.accept() {
                        Ok(pair) => pair,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(10));
                            continue;
                        }
                        Err(_) => break,
                    };
                    stats.conns.fetch_add(1, Ordering::Relaxed);
                    let server = match TcpStream::connect(&upstream) {
                        Ok(s) => s,
                        Err(_) => {
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        }
                    };
                    // The pumps write frame by frame; with Nagle on,
                    // every small frame behind an unacked one waits out
                    // the peer's delayed ACK — a stall no profile asked
                    // for.
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    // One deterministic rng stream per direction,
                    // derived from the profile seed and accept ordinal.
                    let mut seed_rng = SplitMix64::new(profile.seed ^ conn_ix.wrapping_mul(0x9E37));
                    conn_ix += 1;
                    let up_rng = SplitMix64::new(seed_rng.next_u64());
                    let down_rng = SplitMix64::new(seed_rng.next_u64());
                    let (c2, s2) = match (client.try_clone(), server.try_clone()) {
                        (Ok(c), Ok(s)) => (c, s),
                        _ => {
                            let _ = client.shutdown(Shutdown::Both);
                            let _ = server.shutdown(Shutdown::Both);
                            continue;
                        }
                    };
                    let (st1, st2) = (Arc::clone(&stats), Arc::clone(&stats));
                    let (sp1, sp2) = (Arc::clone(&stop), Arc::clone(&stop));
                    let _ = thread::Builder::new()
                        .name("netchaos-up".into())
                        .spawn(move || pump(client, server, profile, up_rng, st1, sp1));
                    let _ = thread::Builder::new()
                        .name("netchaos-down".into())
                        .spawn(move || pump(s2, c2, profile, down_rng, st2, sp2));
                }
            })?
        };
        Ok(ChaosProxy { addr, stats, stop, accept: Some(accept) })
    }

    /// The proxy's listen address — point clients here.
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Live fault counters.
    #[must_use]
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Stops accepting and tears down the pumps.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}
