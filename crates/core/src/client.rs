//! [`ResilientClient`] — the exactly-once client half of the
//! self-healing rvmond story.
//!
//! The server deduplicates session-stamped lines ([`FRAME_EVENT_SEQ`])
//! by a per-session `cseq` high-water mark *before* journaling, so this
//! client can blindly resend its entire unacknowledged window after any
//! disturbance — TCP faults, supervisor restarts of the tenant worker,
//! hot spec reloads, wire-level chaos — and the tenant's journal (hence
//! its trigger stream) stays byte-identical to an undisturbed run.
//!
//! A frame lost *inside* a live connection needs no reconnect. The
//! server accepts a session's lines only contiguously, and every
//! `SYNCED` echoes the session's durable HWM; an echo short of the
//! barrier token tells the client exactly where the hole is, so it
//! resends the window suffix past the HWM on the same stream and asks
//! again. Reconnect plus whole-window resend is kept for real transport
//! failures: EOF, read timeout, a CRC 400, retryable rejects. On
//! the read side, goal reports are pulled with [`FRAME_POLL`] and
//! filtered through a client-side `(event_seq, ordinal)` high-water
//! mark, so duplicated or delayed reply frames can never deliver a
//! report twice. Together the two HWMs give an exactly-once *observed*
//! trigger stream across arbitrary disconnects.
//!
//! The write-side guarantee leans on [`Backpressure::Block`]
//! (the default): under `Shed` a dropped line answers a retryable 431
//! and the resend machinery recovers it, but a client that gives up
//! mid-retry downgrades to at-most-once.
//!
//! [`Backpressure::Block`]: crate::service::Backpressure::Block

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::time::Duration;

use rv_heap::SplitMix64;

use crate::service::{
    decode_triggers, encode_hello, frame_name, read_frame, write_frame, TenantOptions,
    TriggerRecord, FRAME_BYE, FRAME_EVENT_SEQ, FRAME_HELLO, FRAME_OK, FRAME_POLL, FRAME_REJECT,
    FRAME_RELOAD, FRAME_RELOADED, FRAME_STATS, FRAME_STATS_REPLY, FRAME_SYNC, FRAME_SYNCED,
    FRAME_TRIGGERS, REJECT_BAD_SPEC, REJECT_RESUME_GONE, REJECT_SPEC_MISMATCH,
};

/// Reconnect/retry policy for a [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Attempts per operation (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Ceiling on the doubled backoff.
    pub backoff_cap: Duration,
    /// Socket read timeout — a partitioned connection surfaces as a
    /// timed-out read and triggers a reconnect.
    pub read_timeout: Duration,
    /// Seed for the deterministic (splitmix64) backoff jitter.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 16,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            seed: 0x00C1_1E47,
        }
    }
}

/// Counters the client keeps about its own resilience machinery.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// TCP connections established (1 for an undisturbed run).
    pub connects: u64,
    /// Reconnections after a fault (`connects - 1`).
    pub reconnects: u64,
    /// Window lines resent: the whole window after a reconnect, or the
    /// suffix past a barrier's HWM echo (the server dedups both by
    /// `(session, cseq)`).
    pub resent_lines: u64,
    /// Barrier shortfalls repaired on the live connection: each one
    /// resent the window suffix past the echoed HWM and re-sent the
    /// `SYNC`, with no reconnect.
    pub gap_repairs: u64,
    /// Retryable rejects and transport faults absorbed by retry loops.
    pub rejects_retried: u64,
    /// Goal reports accepted past the client-side HWM.
    pub triggers_observed: u64,
    /// Reports discarded as duplicates by the client-side HWM.
    pub deduped_triggers: u64,
}

impl ClientStats {
    /// Renders the counters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"connects\":{},\"reconnects\":{},\"resent_lines\":{},\"gap_repairs\":{},\
             \"rejects_retried\":{},\"triggers_observed\":{},\"deduped_triggers\":{}}}",
            self.connects,
            self.reconnects,
            self.resent_lines,
            self.gap_repairs,
            self.rejects_retried,
            self.triggers_observed,
            self.deduped_triggers,
        )
    }
}

/// Rejects that retrying can never fix: wrong spec (409), failed
/// compile (422), or a resume point evicted from the trigger log (410).
/// Everything else — including a 400, which chaos can manufacture by
/// corrupting one of *our* frames in flight — is worth a
/// reconnect-and-resend.
fn is_fatal_code(code: u16) -> bool {
    matches!(code, REJECT_SPEC_MISMATCH | REJECT_BAD_SPEC | REJECT_RESUME_GONE)
}

fn fatal(code: u16, msg: &str) -> io::Error {
    io::Error::new(ErrorKind::Unsupported, format!("fatal reject {code}: {msg}"))
}

fn is_fatal(e: &io::Error) -> bool {
    e.kind() == ErrorKind::Unsupported
}

fn decode_reject(p: &[u8]) -> (u16, String) {
    let code = p.get(..2).and_then(|b| b.try_into().ok()).map_or(0, u16::from_le_bytes);
    (code, String::from_utf8_lossy(p.get(2..).unwrap_or(&[])).into_owned())
}

fn write_line(s: &mut TcpStream, session: u64, cseq: u64, line: &str) -> io::Result<()> {
    let mut payload = Vec::with_capacity(16 + line.len());
    payload.extend_from_slice(&session.to_le_bytes());
    payload.extend_from_slice(&cseq.to_le_bytes());
    payload.extend_from_slice(line.as_bytes());
    write_frame(s, FRAME_EVENT_SEQ, &payload)
}

/// A reconnecting, exactly-once client for one tenant of an rvmond
/// endpoint. See the module docs for the protocol argument.
pub struct ResilientClient {
    addr: String,
    tenant: String,
    spec: String,
    opts: TenantOptions,
    policy: ReconnectPolicy,
    session: u64,
    next_cseq: u64,
    /// Lines sent but not yet known durable, in cseq order — the resend
    /// window. A barrier's HWM echo pops the covered prefix.
    window: VecDeque<(u64, String)>,
    /// Client-side trigger high-water mark.
    hwm: (u64, u32),
    stream: Option<TcpStream>,
    rng: SplitMix64,
    stats: ClientStats,
    spec_sent: bool,
}

impl ResilientClient {
    /// Connects and attaches to (or creates) `tenant` at `addr`.
    /// `session` identifies this logical client to the server's dedup
    /// machinery; reuse of a session id across client *restarts* is the
    /// caller's contract — this struct resumes its own session across
    /// reconnects.
    ///
    /// # Errors
    ///
    /// Connection/HELLO failures after `policy.max_attempts` tries
    /// (`TimedOut`), or a fatal reject (bad spec, spec mismatch).
    pub fn connect(
        addr: &str,
        tenant: &str,
        spec: &str,
        opts: TenantOptions,
        session: u64,
        policy: ReconnectPolicy,
    ) -> io::Result<ResilientClient> {
        let mut c = ResilientClient {
            addr: addr.to_owned(),
            tenant: tenant.to_owned(),
            spec: spec.to_owned(),
            opts,
            policy,
            session,
            next_cseq: 1,
            window: VecDeque::new(),
            hwm: (0, 0),
            stream: None,
            rng: SplitMix64::new(policy.seed | 1),
            stats: ClientStats::default(),
            spec_sent: false,
        };
        c.reconnect()?;
        Ok(c)
    }

    /// A copy of the resilience counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The client-side `(event_seq, ordinal)` trigger high-water mark.
    #[must_use]
    pub fn trigger_hwm(&self) -> (u64, u32) {
        self.hwm
    }

    /// This client's session id.
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    fn backoff_sleep(&mut self, attempt: u32) {
        let base = self.policy.backoff.saturating_mul(1u32 << attempt.min(10));
        let capped = base.min(self.policy.backoff_cap);
        let jitter = capped.mul_f64((self.rng.next_u64() % 256) as f64 / 1024.0);
        std::thread::sleep(capped + jitter);
    }

    /// The one retry loop every operation runs `op` under: a fatal
    /// reject returns at once; any other failure drops the stream, backs
    /// off and tries again (the next request reconnects and resends the
    /// window), up to `policy.max_attempts` tries in all. Exhaustion is
    /// `TimedOut` ("`what` retries exhausted: …").
    fn retry<T>(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if is_fatal(&e) => return Err(e),
                Err(e) => {
                    self.stream = None;
                    attempt += 1;
                    if attempt >= self.policy.max_attempts {
                        return Err(io::Error::new(
                            ErrorKind::TimedOut,
                            format!("{what} retries exhausted: {e}"),
                        ));
                    }
                    self.stats.rejects_retried += 1;
                    self.backoff_sleep(attempt - 1);
                }
            }
        }
    }

    /// (Re)establishes the connection with retries: HELLO (the full
    /// spec only on the first ever connect, an empty attach afterwards
    /// so a hot-reloaded spec doesn't 409) and a blind resend of the
    /// unacknowledged window.
    fn reconnect(&mut self) -> io::Result<()> {
        self.retry("connect", Self::try_connect)
    }

    fn try_connect(&mut self) -> io::Result<()> {
        self.stream = None;
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.policy.read_timeout))?;
        stream.set_nodelay(true)?;
        self.stream = Some(stream);
        let spec = if self.spec_sent { "" } else { &self.spec };
        let hello = encode_hello(&self.tenant, spec, &self.opts);
        self.request(FRAME_HELLO, &hello, FRAME_OK)?;
        self.spec_sent = true;
        self.stats.connects += 1;
        if self.stats.connects > 1 {
            self.stats.reconnects += 1;
        }
        self.resend_window()
    }

    /// The one request path: writes a `kind` frame, reconnecting first
    /// if the stream is gone, and returns the payload of the reply.
    fn request(&mut self, kind: u8, payload: &[u8], want: u8) -> io::Result<Vec<u8>> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        write_frame(self.stream.as_mut().expect("reconnected"), kind, payload)?;
        self.reply(want)
    }

    /// The one reply reader: reads until a `want` frame arrives and
    /// returns its payload, skipping every other kind. A `REJECT` is an
    /// error (fatal or retryable by its code), and so is EOF
    /// (`ConnectionAborted`).
    fn reply(&mut self, want: u8) -> io::Result<Vec<u8>> {
        let s = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(ErrorKind::NotConnected, "not connected"))?;
        let what = frame_name(want).unwrap_or("reply");
        loop {
            match read_frame(s)? {
                None => {
                    let msg = format!("server closed awaiting {what}");
                    return Err(io::Error::new(ErrorKind::ConnectionAborted, msg));
                }
                Some((kind, p)) if kind == want => return Ok(p),
                Some((FRAME_REJECT, p)) => {
                    let (code, msg) = decode_reject(&p);
                    if is_fatal_code(code) {
                        return Err(fatal(code, &msg));
                    }
                    // Some submitted line may have been dropped
                    // server-side (restart, reload, shed): the retry
                    // loop reconnects and resends the whole window.
                    return Err(io::Error::other(format!("reject {code} awaiting {what}: {msg}")));
                }
                Some(_) => {}
            }
        }
    }

    /// Rewrites every line still in the window on the current stream.
    fn resend_window(&mut self) -> io::Result<()> {
        let s = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(ErrorKind::NotConnected, "not connected"))?;
        for (cseq, line) in &self.window {
            write_line(s, self.session, *cseq, line)?;
            self.stats.resent_lines += 1;
        }
        Ok(())
    }

    /// Queues and sends one trace-grammar line. A transport error here
    /// only drops the connection — the line stays in the window and the
    /// next [`ResilientClient::sync`] reconnects and resends it.
    /// Delivery is guaranteed only once a barrier returns.
    ///
    /// # Errors
    ///
    /// Only fatal rejects; transport faults are absorbed.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let cseq = self.next_cseq;
        self.next_cseq += 1;
        self.window.push_back((cseq, line.to_owned()));
        if let Some(s) = self.stream.as_mut() {
            if let Err(e) = write_line(s, self.session, cseq, line) {
                if is_fatal(&e) {
                    return Err(e);
                }
                self.stream = None;
            }
        }
        Ok(())
    }

    /// Durability barrier: returns once every line sent so far is
    /// processed and fsynced server-side, then clears the resend
    /// window. A frame lost inside the live connection shows up as a
    /// short HWM echo and costs one more round trip: the suffix past
    /// the HWM is resent on the same stream and the barrier re-sent
    /// (at most `policy.max_attempts` times per connection). Any other
    /// disturbance — EOF, read timeout, retryable reject — reconnects
    /// and resends the whole window first; the server's dedup keeps the
    /// journal identical regardless.
    ///
    /// # Errors
    ///
    /// Fatal rejects, or retry exhaustion.
    pub fn sync(&mut self) -> io::Result<u64> {
        let token = self.next_cseq - 1;
        let t = self.retry("sync", |c| c.try_sync(token))?;
        self.window.clear();
        Ok(t)
    }

    fn try_sync(&mut self, token: u64) -> io::Result<u64> {
        let mut barrier = [0u8; 16];
        barrier[..8].copy_from_slice(&token.to_le_bytes());
        barrier[8..].copy_from_slice(&self.session.to_le_bytes());
        let mut p = self.request(FRAME_SYNC, &barrier, FRAME_SYNCED)?;
        let mut repairs = 0u32;
        loop {
            let u = |i: usize| u64::from_le_bytes(p[i..i + 8].try_into().expect("8"));
            match (p.len() == 16).then(|| (u(0), u(8))) {
                Some((got, hwm)) if got == token => {
                    if hwm >= token {
                        return Ok(got);
                    }
                    // The barrier echoes the server's contiguous cseq
                    // HWM for our session, durable by the time it is
                    // sent. A shortfall means a frame was lost *inside*
                    // the connection (the server gap-discards everything
                    // past the hole): repair it right here by resending
                    // the suffix past the HWM and asking again.
                    if repairs >= self.policy.max_attempts {
                        return Err(io::Error::other(format!(
                            "barrier shortfall: server at cseq {hwm} of {token}"
                        )));
                    }
                    repairs += 1;
                    self.stats.gap_repairs += 1;
                    while self.window.front().is_some_and(|(cseq, _)| *cseq <= hwm) {
                        self.window.pop_front();
                    }
                    self.resend_window()?;
                    p = self.request(FRAME_SYNC, &barrier, FRAME_SYNCED)?;
                }
                // A short echo, or a stale one (a duplicated or delayed
                // frame from before a disturbance): keep reading.
                _ => p = self.reply(FRAME_SYNCED)?,
            }
        }
    }

    /// Pulls the next batch of goal reports strictly past the client's
    /// high-water mark and advances it. Duplicates (server overlap or
    /// chaos-duplicated reply frames) are filtered and counted.
    ///
    /// # Errors
    ///
    /// Fatal rejects (including [`REJECT_RESUME_GONE`]) or retry
    /// exhaustion.
    pub fn poll_triggers(&mut self, max: u32) -> io::Result<Vec<TriggerRecord>> {
        let batch = self.retry("poll", |c| {
            let (seq, ord) = c.hwm;
            let mut payload = Vec::with_capacity(16);
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.extend_from_slice(&ord.to_le_bytes());
            payload.extend_from_slice(&max.to_le_bytes());
            let p = c.request(FRAME_POLL, &payload, FRAME_TRIGGERS)?;
            decode_triggers(&p)
                .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "malformed TRIGGERS payload"))
        })?;
        let mut fresh = Vec::with_capacity(batch.len());
        for t in batch {
            if t.key() > self.hwm {
                self.hwm = t.key();
                self.stats.triggers_observed += 1;
                fresh.push(t);
            } else {
                self.stats.deduped_triggers += 1;
            }
        }
        Ok(fresh)
    }

    /// Hot-reloads the tenant's spec, retrying with the same idempotency
    /// `token` until the cutover is acknowledged — a lost
    /// acknowledgement can therefore never double-apply. Returns the new
    /// spec version.
    ///
    /// # Errors
    ///
    /// [`REJECT_BAD_SPEC`] (fatal) or retry exhaustion.
    pub fn reload(&mut self, token: u64, spec: &str) -> io::Result<u64> {
        let mut payload = Vec::with_capacity(8 + spec.len());
        payload.extend_from_slice(&token.to_le_bytes());
        payload.extend_from_slice(spec.as_bytes());
        let p = self.retry("reload", |c| c.request(FRAME_RELOAD, &payload, FRAME_RELOADED))?;
        Ok(p.get(..8).and_then(|b| b.try_into().ok()).map_or(0, u64::from_le_bytes))
    }

    /// Fetches the server-side tenant stats JSON (engine, journal,
    /// per-stage latency histograms and SLO budget for this tenant) via
    /// [`FRAME_STATS`], with the usual reconnect-and-retry machinery.
    ///
    /// # Errors
    ///
    /// Fatal rejects or retry exhaustion.
    pub fn server_stats_json(&mut self) -> io::Result<String> {
        self.retry("stats", |c| {
            let p = c.request(FRAME_STATS, &[], FRAME_STATS_REPLY)?;
            String::from_utf8(p)
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF8 stats"))
        })
    }

    /// Graceful goodbye; returns the final counters.
    pub fn bye(mut self) -> ClientStats {
        if let Some(s) = self.stream.as_mut() {
            let _ = write_frame(s, FRAME_BYE, &[]);
        }
        self.stats
    }
}
