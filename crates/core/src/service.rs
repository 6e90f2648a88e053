//! Multi-tenant monitoring service core — the engine room of `rvmond`.
//!
//! The slicing engine is per-trace-slice independent, which makes hard
//! per-tenant isolation tractable: each tenant owns a private
//! [`PropertyMonitor`] (every property block its own engine), its own
//! [`EngineConfig`] budgets and degradation ladder, its own write-ahead
//! journal directory under the service root, and a panic boundary (a
//! dedicated worker thread whose message loop runs under
//! `catch_unwind`). A tenant whose trigger handler panics or who trips
//! `shed_new_monitors` is quarantined or degraded *alone* — neighbor
//! tenants' trigger streams are byte-identical to a solo run, because a
//! tenant's journal is a pure function of its own event stream.
//!
//! ## Isolation domains
//!
//! ```text
//!  connection threads          tenant workers (one thread each)
//!  ┌──────────────┐  frames   ┌───────────────────────────────┐
//!  │ serve_       │──────────▶│ tenant "a": monitor + heap +  │──▶ root/a/journal-…
//!  │ connection   │  bounded  │   journal + budgets + ladder  │
//!  │ (admission,  │  ingest   ├───────────────────────────────┤
//!  │  timeouts,   │  queues   │ tenant "b": …                 │──▶ root/b/journal-…
//!  │  backpressure│──────────▶│   (panics stay inside)        │
//!  └──────────────┘           └───────────────────────────────┘
//! ```
//!
//! ## Wire protocol
//!
//! Length-prefixed frames over any ordered byte stream (TCP in
//! `rvmond`): `[len: u32 LE][kind: u8][payload: len-1 bytes]`. Clients
//! send [`FRAME_HELLO`] (attach to a tenant, creating it with a spec on
//! first contact), [`FRAME_EVENT_SEQ`] (one line of the `rvmon trace`
//! grammar, stamped with the client's `(session, cseq)`), [`FRAME_SYNC`]
//! (durability barrier for one session: the reply arrives after
//! everything enqueued before it is processed *and* fsynced, and carries
//! that session's contiguous `cseq` high-water mark), [`FRAME_RELOAD`],
//! [`FRAME_POLL`], [`FRAME_STATS`] and [`FRAME_BYE`]. The server answers with
//! [`FRAME_OK`], [`FRAME_SYNCED`], [`FRAME_STATS_REPLY`] or a typed
//! [`FRAME_REJECT`] carrying a `429`-style code ([`REJECT_QUEUE_FULL`],
//! [`REJECT_TOO_MANY_TENANTS`], …).
//!
//! ## Backpressure
//!
//! Each tenant has a bounded ingest queue. Under [`Backpressure::Block`]
//! a full queue blocks the connection thread (TCP backpressure reaches
//! the client); under [`Backpressure::Shed`] the event is dropped and
//! the client gets a [`REJECT_QUEUE_FULL`] frame, counted in
//! [`ServiceStats::events_shed`] and the tenant's snapshot.
//!
//! ## Drain protocol and recovery
//!
//! [`Service::drain`] stops admissions, sends every worker a drain
//! message, and joins them; each worker fsyncs its journal and writes a
//! final checkpoint (PR-3 RVCK), so a restarted service resumes from a
//! near-instant restore. After a hard kill, [`Service::recover_all`]
//! rebuilds every tenant from its journal directory with [`recover::recover`]
//! (checkpoint restore plus suffix replay with `(event_seq, ordinal)`
//! high-water-mark duplicate suppression), so triggers are delivered
//! exactly once across the crash.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rv_heap::SplitMix64;
use rv_logic::Verdict;
use rv_spec::CompiledSpec;

use crate::binding::Binding;
use crate::engine::EngineConfig;
use crate::expo::{Exposition, Kind};
use crate::flight::{
    render_dump, FlightEvent, FlightKind, FlightRecorder, RequestTrace, RequestTraceRing, Stage,
    StageStats, FLIGHT_CAP, TRACE_EXEMPLARS, TRACE_RING,
};
use crate::ingest::{Ingest, JournaledMonitor, WriteError, DEFAULT_CHECKPOINT_EVERY};
use crate::journal::{crc32, Record, RetryPolicy, DEFAULT_SEGMENT_BYTES};
use crate::obs::GcKind;
use crate::recover::{self, RecoverError, ReplayFrom};
use crate::slo::{ObjectiveSnapshot, SloConfig, SloTracker};
use crate::snapshot::list_checkpoints;

// --- Wire protocol -------------------------------------------------------

/// Upper bound on a frame payload; larger length prefixes are rejected
/// without allocating.
pub const FRAME_MAX: u32 = 1 << 20;

/// Client → server: attach to (or create) a tenant. Payload:
/// `[flags: u8][max_live_monitors: u32 LE, 0 = unbounded][name]\n[spec]`
/// — the spec may be empty when attaching to an existing tenant.
pub const FRAME_HELLO: u8 = 0x01;
/// Client → server: durability barrier for one session. Payload:
/// `[token: u64 LE][session: u64 LE]`; the matching [`FRAME_SYNCED`] is
/// sent only after every line enqueued before it has been processed and
/// the journal fsynced. Any other payload length is a [`REJECT_BAD_FRAME`].
pub const FRAME_SYNC: u8 = 0x03;
/// Client → server: request the tenant's stats JSON.
pub const FRAME_STATS: u8 = 0x04;
/// Client → server: graceful goodbye; the server closes the connection.
pub const FRAME_BYE: u8 = 0x05;
/// Client → server: hot spec reload for the connection's tenant.
/// Payload: `[token: u64 LE][new spec source UTF-8]`. The token makes
/// the reload idempotent — a retry after a lost acknowledgement cannot
/// cut over twice. Token `0` always applies.
pub const FRAME_RELOAD: u8 = 0x06;
/// Client → server: pull the tenant's goal reports strictly after a
/// `(event_seq, ordinal)` high-water mark. Payload:
/// `[event_seq: u64 LE][ordinal: u32 LE][max: u32 LE]`.
pub const FRAME_POLL: u8 = 0x07;
/// Client → server: one line of the `rvmon trace` grammar (`event obj…`,
/// `!free obj…`, `!gc`, `!sweep`) for the connection's tenant, stamped
/// with its session. Payload: `[session: u64 LE][cseq: u64 LE][line
/// UTF-8]`. The server applies a given `(session, cseq)` at most once,
/// so a reconnecting client can blindly resend its unacknowledged window.
pub const FRAME_EVENT_SEQ: u8 = 0x08;

/// Server → client: HELLO accepted. Payload: the tenant name.
pub const FRAME_OK: u8 = 0x80;
/// Server → client: barrier reached. Payload: `[token: u64 LE][hwm: u64
/// LE]` — the echoed token and the session's durable contiguous `cseq`
/// high-water mark.
pub const FRAME_SYNCED: u8 = 0x81;
/// Server → client: stats JSON payload.
pub const FRAME_STATS_REPLY: u8 = 0x82;
/// Server → client: typed rejection. Payload:
/// `[code: u16 LE][message UTF-8]`.
pub const FRAME_REJECT: u8 = 0x83;
/// Server → client: a batch of goal reports answering [`FRAME_POLL`].
/// Payload: `[count: u32 LE]` then `count` entries, each
/// `[len: u16 LE][journal Trigger record payload]`.
pub const FRAME_TRIGGERS: u8 = 0x84;
/// Server → client: reload applied. Payload: the new spec version as
/// `u64 LE`.
pub const FRAME_RELOADED: u8 = 0x85;

/// Reject code: malformed frame or a frame sent before a HELLO.
pub const REJECT_BAD_FRAME: u16 = 400;
/// Reject code: a [`FRAME_POLL`] high-water mark points below the
/// tenant's retained trigger log — the client's resume point was
/// evicted and exactly-once delivery can no longer be promised.
pub const REJECT_RESUME_GONE: u16 = 410;
/// Reject code: a HELLO for an existing tenant carried a different spec.
pub const REJECT_SPEC_MISMATCH: u16 = 409;
/// Reject code: the HELLO spec failed to compile.
pub const REJECT_BAD_SPEC: u16 = 422;
/// Reject code: the tenant table is full ([`ServiceConfig::max_tenants`]).
pub const REJECT_TOO_MANY_TENANTS: u16 = 429;
/// Reject code: the tenant's connection cap is reached
/// ([`ServiceConfig::max_conns_per_tenant`]).
pub const REJECT_TOO_MANY_CONNS: u16 = 430;
/// Reject code: the tenant's ingest queue is full and the backpressure
/// policy is [`Backpressure::Shed`] — the event was dropped.
pub const REJECT_QUEUE_FULL: u16 = 431;
/// Reject code: the tenant's worker failed (panic or persistent journal
/// failure) and is quarantined; its neighbors are unaffected.
pub const REJECT_TENANT_FAILED: u16 = 500;
/// Reject code: the service is draining and admits no new work.
pub const REJECT_DRAINING: u16 = 503;
/// Reject code: a barrier or stats request timed out inside the service.
pub const REJECT_TIMEOUT: u16 = 504;

/// A typed rejection: the `429`-style code plus a human-readable reason.
pub type Reject = (u16, String);

/// Encodes one `[len][kind][payload][crc32]` frame into a byte vector.
/// The trailing CRC-32 covers `[kind][payload]`, so a frame corrupted
/// anywhere on the wire — length prefix included — is detected at the
/// receiver instead of being absorbed as garbage input.
#[must_use]
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() + 1) as u32;
    let mut out = Vec::with_capacity(9 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out[4..]).to_le_bytes());
    out
}

/// Writes one `[len][kind][payload][crc32]` frame.
///
/// # Errors
///
/// Any IO error from the underlying stream.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len() + 1).map_err(|_| ErrorKind::InvalidInput)?;
    if len > FRAME_MAX {
        return Err(std::io::Error::new(ErrorKind::InvalidInput, "frame exceeds FRAME_MAX"));
    }
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// IO errors from the stream (including read timeouts, surfaced as
/// `WouldBlock`/`TimedOut`), an EOF mid-frame, an implausible length
/// prefix, or a CRC mismatch (both `InvalidData`).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    let mut n = 0;
    while n < 4 {
        match r.read(&mut len_buf[n..])? {
            0 if n == 0 => return Ok(None),
            0 => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "EOF mid-frame")),
            read => n += read,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > FRAME_MAX {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)?;
    if u32::from_le_bytes(crc_buf) != crc32(&body) {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "frame CRC mismatch"));
    }
    let kind = body[0];
    body.remove(0);
    Ok(Some((kind, body)))
}

/// [`read_frame`] plus a wire-read span: the returned `u64` is the
/// nanoseconds spent reading and decoding the frame *after its first
/// byte arrived* — inter-frame idle (a client thinking) is not wire
/// time and would otherwise dominate every trace.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_timed(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>, u64)>> {
    let mut len_buf = [0u8; 4];
    let mut n = 0;
    let mut started: Option<Instant> = None;
    while n < 4 {
        match r.read(&mut len_buf[n..])? {
            0 if n == 0 => return Ok(None),
            0 => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "EOF mid-frame")),
            read => {
                started.get_or_insert_with(Instant::now);
                n += read;
            }
        }
    }
    let t0 = started.unwrap_or_else(Instant::now);
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > FRAME_MAX {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)?;
    if u32::from_le_bytes(crc_buf) != crc32(&body) {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "frame CRC mismatch"));
    }
    let kind = body[0];
    body.remove(0);
    let wire_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(Some((kind, body, wire_ns)))
}

/// The protocol name of a frame kind, as reject and client error
/// messages spell it; `None` for a kind the protocol does not define.
#[must_use]
pub fn frame_name(kind: u8) -> Option<&'static str> {
    Some(match kind {
        FRAME_HELLO => "HELLO",
        FRAME_SYNC => "SYNC",
        FRAME_STATS => "STATS",
        FRAME_BYE => "BYE",
        FRAME_RELOAD => "RELOAD",
        FRAME_POLL => "POLL",
        FRAME_EVENT_SEQ => "EVENT_SEQ",
        FRAME_OK => "OK",
        FRAME_SYNCED => "SYNCED",
        FRAME_STATS_REPLY => "STATS_REPLY",
        FRAME_REJECT => "REJECT",
        FRAME_TRIGGERS => "TRIGGERS",
        FRAME_RELOADED => "RELOADED",
        _ => return None,
    })
}

/// The HELLO layout version, the payload's first byte. Earlier layouts
/// had no version byte and began with the flags byte, whose defined bits
/// are `0x07`; numbering versioned layouts from 8 makes every older HELLO
/// a version mismatch rather than a misparse.
pub const HELLO_VERSION: u8 = 8;

/// Encodes a HELLO payload (client-side helper shared with `loadgen`).
/// Layout: `[HELLO_VERSION: u8][flags: u8][max_live_monitors: u32
/// LE][name]\n[spec]` — a zero limit means "use the service default".
#[must_use]
pub fn encode_hello(name: &str, spec: &str, opts: &TenantOptions) -> Vec<u8> {
    let mut p = Vec::with_capacity(7 + name.len() + spec.len());
    p.push(HELLO_VERSION);
    p.push(opts.flags);
    p.extend_from_slice(&opts.max_live_monitors.map_or(0, |n| n.max(1)).to_le_bytes());
    p.extend_from_slice(name.as_bytes());
    p.push(b'\n');
    p.extend_from_slice(spec.as_bytes());
    p
}

/// Decodes a HELLO payload into `(name, spec, options)`; `None` if it is
/// malformed or not of layout [`HELLO_VERSION`].
#[must_use]
pub fn decode_hello(payload: &[u8]) -> Option<(String, String, TenantOptions)> {
    let (&version, payload) = payload.split_first()?;
    if version != HELLO_VERSION {
        return None;
    }
    let flags = *payload.first()?;
    let max_live = u32::from_le_bytes(payload.get(1..5)?.try_into().ok()?);
    let rest = payload.get(5..)?;
    let split = rest.iter().position(|&b| b == b'\n')?;
    let name = String::from_utf8(rest[..split].to_vec()).ok()?;
    let spec = String::from_utf8(rest[split + 1..].to_vec()).ok()?;
    let opts = TenantOptions { flags, max_live_monitors: (max_live > 0).then_some(max_live) };
    Some((name, spec, opts))
}

// --- Configuration -------------------------------------------------------

/// What a full per-tenant ingest queue does to the next event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backpressure {
    /// Block the submitting connection thread until the queue drains —
    /// TCP backpressure propagates to the client.
    #[default]
    Block,
    /// Drop the event and answer a [`REJECT_QUEUE_FULL`] frame; the drop
    /// is counted in [`ServiceStats::events_shed`].
    Shed,
}

/// Tenant option flag: install a trigger handler that panics on every
/// goal report — the chaos hook CI uses to prove the panic boundary.
pub const TENANT_FLAG_PANIC_HANDLER: u8 = 0x01;
/// Tenant option flag: honor the `!fatal` trace directive, which kills
/// the tenant's worker with a worker-fatal error *after* journaling an
/// `AUX_FATAL` marker — the chaos hook supervision tests use to prove
/// unattended restart. Without the flag `!fatal` is a bad line.
pub const TENANT_FLAG_ALLOW_FATAL: u8 = 0x02;
/// Tenant option flag: sleep ~2ms per processed line — a deterministic
/// way for tests to fill ingest queues (431) and outlive reply
/// timeouts (504) without racing the scheduler.
pub const TENANT_FLAG_SLOW_WORKER: u8 = 0x04;

/// Per-tenant options carried in the HELLO frame and persisted beside
/// the tenant's journal for recovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TenantOptions {
    /// Flag bits ([`TENANT_FLAG_PANIC_HANDLER`],
    /// [`TENANT_FLAG_ALLOW_FATAL`], [`TENANT_FLAG_SLOW_WORKER`]).
    pub flags: u8,
    /// Overrides [`EngineConfig::max_live_monitors`] for this tenant —
    /// the knob that arms the degradation ladder per tenant.
    pub max_live_monitors: Option<u32>,
}

/// Tenant supervision policy: how the service restarts Failed tenants
/// without operator action, and when it stops trying.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Restart budget inside [`SupervisorConfig::window`]; once a
    /// tenant has burned this many restarts within the window it
    /// circuit-breaks to [`TenantState::FailedPermanent`]. `0` disables
    /// supervision entirely (no supervisor thread is spawned).
    pub max_restarts: u32,
    /// Sliding window the restart budget is counted over.
    pub window: Duration,
    /// Base backoff before the first restart attempt; doubles per
    /// restart still inside the window.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic (splitmix64) backoff jitter — up to
    /// 25% of the computed backoff is added.
    pub seed: u64,
    /// Supervisor scan interval.
    pub poll: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 0,
            window: Duration::from_secs(60),
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            seed: 0x5EED_C11E,
            poll: Duration::from_millis(20),
        }
    }
}

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory; tenant `t` journals into `root/t/`.
    pub root: PathBuf,
    /// Admission cap on concurrently registered tenants.
    pub max_tenants: usize,
    /// Admission cap on concurrent connections per tenant.
    pub max_conns_per_tenant: usize,
    /// Bounded ingest queue depth per tenant (events in flight).
    pub queue_depth: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// Events between tenant checkpoints.
    pub checkpoint_every: u64,
    /// Template engine configuration for tenants (`record_triggers` is
    /// forced on — the journal needs the reports).
    pub engine: EngineConfig,
    /// Retry policy for journal appends.
    pub retry: RetryPolicy,
    /// How long a barrier or stats round trip may take before the
    /// service answers [`REJECT_TIMEOUT`].
    pub reply_timeout: Duration,
    /// Tenant supervision policy (`max_restarts: 0` = off).
    pub supervisor: SupervisorConfig,
    /// Entries retained in each tenant's in-memory trigger log (the
    /// [`FRAME_POLL`] resume window). A client resuming below the
    /// eviction horizon gets [`REJECT_RESUME_GONE`].
    pub trigger_log_cap: usize,
    /// Per-tenant SLO objectives (latency target + goals + window).
    pub slo: SloConfig,
    /// Daemon version string for `rvmond_build_info` and `/healthz`.
    pub version: String,
    /// Build commit identifier for `rvmond_build_info` and `/healthz`.
    pub commit: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            root: PathBuf::from("rvmond-data"),
            max_tenants: 8,
            max_conns_per_tenant: 4,
            queue_depth: 256,
            backpressure: Backpressure::Block,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            engine: EngineConfig::default(),
            retry: RetryPolicy::default(),
            reply_timeout: Duration::from_secs(10),
            supervisor: SupervisorConfig::default(),
            trigger_log_cap: 1 << 20,
            slo: SloConfig::default(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            commit: "unknown".to_owned(),
        }
    }
}

// --- Service-wide stats --------------------------------------------------

/// Service-level counters (tenant-level ones live in the snapshots).
/// All atomics: connection threads and workers bump them lock-free.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Tenants admitted (fresh creations plus recoveries).
    pub tenants_admitted: AtomicU64,
    /// Tenant admissions rejected (table full, bad spec, draining…).
    pub tenants_rejected: AtomicU64,
    /// Connection permits granted.
    pub conns_opened: AtomicU64,
    /// Connection permits refused (per-tenant cap).
    pub conns_rejected: AtomicU64,
    /// Events accepted into ingest queues.
    pub events_submitted: AtomicU64,
    /// Events dropped by [`Backpressure::Shed`].
    pub events_shed: AtomicU64,
    /// Malformed frames answered with [`REJECT_BAD_FRAME`].
    pub bad_frames: AtomicU64,
    /// Connections closed because a read idled past the timeout.
    pub idle_reaped: AtomicU64,
    /// Supervised tenant restarts completed.
    pub tenants_restarted: AtomicU64,
    /// Tenants circuit-broken to Failed-permanent after exhausting the
    /// restart budget.
    pub tenants_circuit_broken: AtomicU64,
    /// Hot spec reloads applied.
    pub spec_reloads: AtomicU64,
}

impl ServiceStats {
    /// Renders the counters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tenants_admitted\":{},\"tenants_rejected\":{},\"conns_opened\":{},\
             \"conns_rejected\":{},\"events_submitted\":{},\"events_shed\":{},\
             \"bad_frames\":{},\"idle_reaped\":{},\"tenants_restarted\":{},\
             \"tenants_circuit_broken\":{},\"spec_reloads\":{}}}",
            self.tenants_admitted.load(Ordering::Relaxed),
            self.tenants_rejected.load(Ordering::Relaxed),
            self.conns_opened.load(Ordering::Relaxed),
            self.conns_rejected.load(Ordering::Relaxed),
            self.events_submitted.load(Ordering::Relaxed),
            self.events_shed.load(Ordering::Relaxed),
            self.bad_frames.load(Ordering::Relaxed),
            self.idle_reaped.load(Ordering::Relaxed),
            self.tenants_restarted.load(Ordering::Relaxed),
            self.tenants_circuit_broken.load(Ordering::Relaxed),
            self.spec_reloads.load(Ordering::Relaxed),
        )
    }
}

// --- Tenant state --------------------------------------------------------

/// Lifecycle state of a tenant's isolation domain.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum TenantState {
    /// Worker alive and consuming.
    #[default]
    Running,
    /// Worker stopped after a drain checkpoint — restart-ready.
    Drained,
    /// Worker quarantined after a panic or persistent journal failure;
    /// the string is the failure rendering. Neighbors are unaffected.
    /// Under supervision this is a transient state: the supervisor
    /// restarts the tenant after a backoff, budget permitting.
    Failed(String),
    /// The supervisor is restarting the worker through the recovery
    /// path; submissions get a retryable [`REJECT_DRAINING`].
    Restarting,
    /// The restart budget is exhausted: the supervisor circuit-broke
    /// this tenant and only operator action (daemon restart) revives
    /// it. The string is the last failure rendering.
    FailedPermanent(String),
}

impl TenantState {
    /// Short label for health output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TenantState::Running => "running",
            TenantState::Drained => "drained",
            TenantState::Failed(_) => "failed",
            TenantState::Restarting => "restarting",
            TenantState::FailedPermanent(_) => "failed-permanent",
        }
    }
}

/// A point-in-time public view of one tenant, maintained by its worker
/// and read by `/healthz`, `/metrics` and the stats frames.
#[derive(Clone, Debug, Default)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// Lifecycle state.
    pub state: TenantState,
    /// Event lines processed (journaled and dispatched).
    pub events: u64,
    /// Goal reports delivered (journaled).
    pub triggers: u64,
    /// Events dropped at the ingest queue by [`Backpressure::Shed`].
    pub shed_events: u64,
    /// Client lines rejected as malformed (unknown event, bad arity…).
    pub bad_lines: u64,
    /// Monitors quarantined after trigger-handler panics.
    pub quarantined: u64,
    /// Budget trips counted by the engines.
    pub budget_trips: u64,
    /// Degradation-ladder transitions entered.
    pub degradations: u64,
    /// Monitor creations shed by the `shed_new_monitors` rung.
    pub shed_monitors: u64,
    /// Live monitor instances.
    pub monitors_live: u64,
    /// Checkpoints written (drain and periodic).
    pub checkpoints: u64,
    /// Journal records appended.
    pub journal_records: u64,
    /// Transient journal-append retries spent.
    pub journal_retries: u64,
    /// Events replayed during recovery (0 for a fresh tenant).
    pub recovered_events: u64,
    /// Goal reports suppressed as already-delivered during recovery.
    pub suppressed_triggers: u64,
    /// Supervised restarts completed for this tenant.
    pub restarts: u64,
    /// Spec version: 1 at creation, +1 per hot reload (recovered from
    /// the journal's `AUX_RELOAD` records after a restart).
    pub spec_version: u64,
    /// Session lines dropped as duplicates by the per-session
    /// `(session, cseq)` high-water mark — the server half of
    /// exactly-once ingestion.
    pub deduped_events: u64,
    /// Session lines discarded because they arrived past a `cseq` gap —
    /// a frame lost inside a live connection. The client resends them
    /// once a barrier's HWM echo reveals the hole.
    pub gap_dropped_events: u64,
    /// FNV-1a hash of the tenant's current spec source; HELLO attaches
    /// carrying a non-empty spec are checked against it (409).
    pub spec_hash: u64,
}

impl TenantSnapshot {
    /// Renders the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let state = match &self.state {
            TenantState::Failed(e) => format!("\"failed: {}\"", e.replace('"', "'")),
            TenantState::FailedPermanent(e) => {
                format!("\"failed-permanent: {}\"", e.replace('"', "'"))
            }
            s => format!("\"{}\"", s.label()),
        };
        format!(
            "{{\"name\":\"{}\",\"state\":{state},\"events\":{},\"triggers\":{},\
             \"shed_events\":{},\"bad_lines\":{},\"quarantined\":{},\"budget_trips\":{},\
             \"degradations\":{},\"shed_monitors\":{},\"monitors_live\":{},\
             \"checkpoints\":{},\"journal_records\":{},\"journal_retries\":{},\
             \"recovered_events\":{},\"suppressed_triggers\":{},\"restarts\":{},\
             \"spec_version\":{},\"deduped_events\":{},\"gap_dropped_events\":{}}}",
            self.name,
            self.events,
            self.triggers,
            self.shed_events,
            self.bad_lines,
            self.quarantined,
            self.budget_trips,
            self.degradations,
            self.shed_monitors,
            self.monitors_live,
            self.checkpoints,
            self.journal_records,
            self.journal_retries,
            self.recovered_events,
            self.suppressed_triggers,
            self.restarts,
            self.spec_version,
            self.deduped_events,
            self.gap_dropped_events,
        )
    }
}

// --- Trigger log ----------------------------------------------------------

/// One delivered goal report, keyed for exactly-once resume by
/// `(event_seq, ordinal)` — the journal sequence of the line that fired
/// it plus the report's index within that line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TriggerRecord {
    /// Journal sequence of the firing line.
    pub event_seq: u64,
    /// Index of this report within that line's reports.
    pub ordinal: u32,
    /// Property block that fired.
    pub block: u16,
    /// The engine's event counter at fire time.
    pub step: u64,
    /// The reported verdict.
    pub verdict: Verdict,
    /// The reported binding.
    pub binding: Binding,
}

impl TriggerRecord {
    /// The exactly-once key.
    #[must_use]
    pub fn key(&self) -> (u64, u32) {
        (self.event_seq, self.ordinal)
    }

    /// A canonical single-line rendering — what the differential chaos
    /// harness compares byte-for-byte between a clean run and a run
    /// through `netchaos`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "t {}.{} b{} s{} v{} {:?}",
            self.event_seq,
            self.ordinal,
            self.block,
            self.step,
            self.verdict.to_byte(),
            self.binding,
        )
    }

    /// The journal record of this report.
    #[must_use]
    pub fn to_record(self) -> Record {
        Record::Trigger {
            event_seq: self.event_seq,
            ordinal: self.ordinal,
            block: self.block,
            step: self.step,
            verdict: self.verdict,
            binding: self.binding,
        }
    }

    pub(crate) fn from_record(r: &Record) -> Option<TriggerRecord> {
        match r {
            Record::Trigger { event_seq, ordinal, block, step, verdict, binding } => {
                Some(TriggerRecord {
                    event_seq: *event_seq,
                    ordinal: *ordinal,
                    block: *block,
                    step: *step,
                    verdict: *verdict,
                    binding: *binding,
                })
            }
            _ => None,
        }
    }
}

/// Encodes a [`FRAME_TRIGGERS`] payload from a batch of reports.
#[must_use]
pub fn encode_triggers(batch: &[TriggerRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + batch.len() * 48);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    let mut body = Vec::new();
    for t in batch {
        body.clear();
        t.to_record().encode_payload(&mut body);
        out.extend_from_slice(&(body.len() as u16).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Decodes a [`FRAME_TRIGGERS`] payload; `None` on malformed bytes.
#[must_use]
pub fn decode_triggers(payload: &[u8]) -> Option<Vec<TriggerRecord>> {
    let count = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let mut pos = 4usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u16::from_le_bytes(payload.get(pos..pos + 2)?.try_into().ok()?) as usize;
        pos += 2;
        let body = payload.get(pos..pos + len)?;
        pos += len;
        out.push(TriggerRecord::from_record(&Record::decode(2, body)?)?);
    }
    (pos == payload.len()).then_some(out)
}

/// A tenant's in-memory, journal-backed log of delivered goal reports:
/// the resume window [`FRAME_POLL`] serves. Entries are strictly
/// ordered by key; the worker appends as it fires, recovery rebuilds
/// the whole log from the journal's Trigger records.
#[derive(Debug, Default)]
pub struct TriggerLog {
    entries: std::collections::VecDeque<TriggerRecord>,
    /// Key of the newest evicted entry — polls at or below it can no
    /// longer be served exactly-once.
    evicted_through: Option<(u64, u32)>,
    cap: usize,
}

impl TriggerLog {
    fn with_cap(cap: usize) -> TriggerLog {
        TriggerLog { cap: cap.max(1), ..TriggerLog::default() }
    }

    fn reset(&mut self, cap: usize) {
        self.entries.clear();
        self.evicted_through = None;
        self.cap = cap.max(1);
    }

    fn push(&mut self, t: TriggerRecord) {
        self.entries.push_back(t);
        while self.entries.len() > self.cap {
            let gone = self.entries.pop_front().expect("len > cap >= 1");
            self.evicted_through = Some(gone.key());
        }
    }

    /// Entries with key strictly after `after`, up to `max`; `Err(())`
    /// when `after` lies below the eviction horizon.
    fn poll(&self, after: (u64, u32), max: usize) -> Result<Vec<TriggerRecord>, ()> {
        if self.evicted_through.is_some_and(|ev| after < ev) {
            return Err(());
        }
        let start = self.entries.partition_point(|t| t.key() <= after);
        Ok(self.entries.iter().skip(start).take(max).copied().collect())
    }
}

// --- Tenant plumbing ------------------------------------------------------

/// One tenant's books, behind one lock: the public snapshot, the
/// trigger log [`FRAME_POLL`] serves, the stage-latency histograms, the
/// request-trace ring with its slowest exemplars, and the SLO tracker.
/// The worker writes them (once per line), connection threads charge
/// rejects to the SLO, and the exposition surfaces read them.
#[derive(Debug)]
struct Book {
    snap: TenantSnapshot,
    triggers: TriggerLog,
    stages: StageStats,
    ring: RequestTraceRing,
    slo: SloTracker,
}

/// The state a tenant keeps across supervised restarts, so counters
/// stay monotonic, the label set frozen, live permits valid and pollers
/// served: one `Arc` shared by the registry, the worker, its fsync hook
/// and the connection permits. Lock order is registry → book; nobody
/// holds the book across journal IO, an fsync or a channel send.
#[derive(Debug)]
struct Shared {
    book: Mutex<Book>,
    conns: AtomicUsize,
    /// Set by [`Service::reload`] around the cutover round trip;
    /// submissions answer a retryable 503 while it holds.
    reloading: AtomicBool,
    /// Time origin shared with the service's flight recorder, so trace
    /// `at_ns` stamps and black-box events sit on one timeline.
    epoch: Instant,
}

impl Shared {
    fn new(name: &str, config: &ServiceConfig, epoch: Instant) -> Shared {
        let book = Book {
            snap: TenantSnapshot { name: name.to_owned(), ..TenantSnapshot::default() },
            triggers: TriggerLog::with_cap(config.trigger_log_cap),
            stages: StageStats::default(),
            ring: RequestTraceRing::new(TRACE_RING, TRACE_EXEMPLARS),
            slo: SloTracker::new(config.slo),
        };
        Shared {
            book: Mutex::new(book),
            conns: AtomicUsize::new(0),
            reloading: AtomicBool::new(false),
            epoch,
        }
    }

    fn book(&self) -> std::sync::MutexGuard<'_, Book> {
        self.book.lock().expect("tenant book poisoned")
    }
}

enum TenantMsg {
    Line {
        session: u64,
        cseq: u64,
        line: String,
        /// When the line was accepted into the ingest queue — the
        /// worker derives queue wait from it at dequeue.
        enqueued: Instant,
        /// Time spent reading + decoding the frame off the wire
        /// (excludes inter-frame idle).
        wire_ns: u64,
        /// Time spent in admission (registry lookup + state checks)
        /// before the enqueue; queue-block stalls under
        /// [`Backpressure::Block`] land in queue wait instead.
        admission_ns: u64,
    },
    /// Durability barrier that also echoes the session's contiguous
    /// cseq HWM, so a resilient client can detect gap-dropped lines and
    /// resend.
    Barrier {
        token: u64,
        session: u64,
        reply: SyncSender<(u64, u64)>,
    },
    Stats {
        reply: SyncSender<String>,
    },
    Reload {
        token: u64,
        source: String,
        reply: SyncSender<Result<u64, Reject>>,
    },
    Drain,
}

struct Tenant {
    ingest: SyncSender<TenantMsg>,
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
    dir: PathBuf,
    opts: TenantOptions,
    /// Completion times of supervised restarts still inside the budget
    /// window.
    restart_times: Vec<std::time::Instant>,
    /// When the next restart attempt is due (backoff already applied).
    next_restart: Option<std::time::Instant>,
}

/// A granted connection slot; dropping it releases the slot.
#[derive(Debug)]
pub struct ConnPermit {
    shared: Arc<Shared>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.shared.conns.fetch_sub(1, Ordering::AcqRel);
    }
}

// --- The service ---------------------------------------------------------

/// The multi-tenant service core: tenant registry, admission control,
/// ingest routing, drain, and recovery. `rvmond` wraps it in TCP;
/// tests drive it directly.
pub struct Service {
    config: ServiceConfig,
    tenants: Arc<Mutex<HashMap<String, Tenant>>>,
    /// Service-level counters.
    pub stats: Arc<ServiceStats>,
    draining: Arc<AtomicBool>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
    supervisor_stop: Arc<AtomicBool>,
    /// Service start — the shared epoch for uptime, trace stamps, and
    /// the flight recorder's timeline.
    started: Instant,
    /// The always-on black box: GC cycles, rejects, restarts, reload
    /// cutovers, state changes — dumped post-mortem.
    flight: Arc<Mutex<FlightRecorder>>,
    /// Sequence for on-disk flight dump filenames.
    flight_dumps: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service").field("root", &self.config.root).finish()
    }
}

fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

const OPTIONS_FILE: &str = "tenant.opts";

fn write_options(dir: &Path, opts: &TenantOptions) -> std::io::Result<()> {
    std::fs::write(
        dir.join(OPTIONS_FILE),
        format!(
            "flags={}\nmax_live_monitors={}\n",
            opts.flags,
            opts.max_live_monitors.unwrap_or(0)
        ),
    )
}

fn read_options(dir: &Path) -> TenantOptions {
    let mut opts = TenantOptions::default();
    let Ok(text) = std::fs::read_to_string(dir.join(OPTIONS_FILE)) else {
        return opts;
    };
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("flags=") {
            opts.flags = v.trim().parse().unwrap_or(0);
        } else if let Some(v) = line.strip_prefix("max_live_monitors=") {
            let n: u32 = v.trim().parse().unwrap_or(0);
            opts.max_live_monitors = (n > 0).then_some(n);
        }
    }
    opts
}

/// Filesystem-safe rendering of a flight-dump reason.
fn sanitize_reason(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// Renders a post-mortem flight dump: the daemon black box plus each
/// listed tenant's retained traces (recent ring, then slowest exemplars).
fn gather_flight_dump<'a>(
    reason: &str,
    meta: &[(String, String)],
    flight: &Mutex<FlightRecorder>,
    tenants: impl IntoIterator<Item = (&'a str, &'a Shared)>,
) -> String {
    let events: Vec<FlightEvent> =
        flight.lock().expect("flight recorder poisoned").events().cloned().collect();
    let mut traces: Vec<(String, RequestTrace)> = Vec::new();
    for (name, shared) in tenants {
        let book = shared.book();
        traces.extend(book.ring.recent().chain(book.ring.slowest()).map(|t| (name.to_owned(), *t)));
    }
    render_dump(reason, meta, &events, &traces)
}

/// Writes a tenant-scoped post-mortem flight dump beside the service
/// root: the daemon black box plus this tenant's retained traces.
/// Dump failures are swallowed — the black box must never turn a
/// failing tenant into a failing daemon.
fn write_tenant_flight_dump(
    dir: &Path,
    reason: &str,
    tenant: &str,
    err: &str,
    flight: &Mutex<FlightRecorder>,
    shared: &Shared,
) -> Option<PathBuf> {
    let meta = [("tenant".to_owned(), tenant.to_owned()), ("error".to_owned(), err.to_owned())];
    let body = gather_flight_dump(reason, &meta, flight, [(tenant, shared)]);
    let root = dir.parent().unwrap_or(dir);
    for k in 0..10_000u32 {
        let path = root.join(format!(
            "flight-{}-{}-{k}.rvfr",
            sanitize_reason(tenant),
            sanitize_reason(reason)
        ));
        if !path.exists() {
            return std::fs::write(&path, &body).ok().map(|()| path);
        }
    }
    None
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// FNV-1a over a spec source — the cheap fingerprint HELLO attaches are
/// checked against.
fn spec_hash(source: &str) -> u64 {
    fnv1a(source.trim().bytes())
}

/// The default reload idempotency token for `tenant` and a spec
/// `source`: FNV-1a over the name, a NUL and the trimmed source, odd so
/// it is never the always-apply token 0. rvmond's SIGHUP reload and
/// `rvmonctl reload` both use it, so the same file reloads once.
#[must_use]
pub fn content_token(tenant: &str, source: &str) -> u64 {
    fnv1a(tenant.bytes().chain([0]).chain(source.trim().bytes())) | 1
}

impl Service {
    /// Creates the service, making the root directory.
    ///
    /// # Errors
    ///
    /// Any IO error creating the root directory.
    pub fn new(config: ServiceConfig) -> std::io::Result<Service> {
        std::fs::create_dir_all(&config.root)?;
        let tenants = Arc::new(Mutex::new(HashMap::new()));
        let stats = Arc::new(ServiceStats::default());
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let flight = Arc::new(Mutex::new(FlightRecorder::with_epoch(FLIGHT_CAP, started)));
        let supervisor = if config.supervisor.max_restarts > 0 {
            let tenants = Arc::clone(&tenants);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&supervisor_stop);
            let config = config.clone();
            let flight = Arc::clone(&flight);
            Some(
                std::thread::Builder::new()
                    .name("rvmond-supervisor".into())
                    .spawn(move || supervisor_loop(&tenants, &stats, &stop, &config, &flight))
                    .map_err(std::io::Error::other)?,
            )
        } else {
            None
        };
        Ok(Service {
            config,
            tenants,
            stats,
            draining: Arc::new(AtomicBool::new(false)),
            supervisor: Mutex::new(supervisor),
            supervisor_stop,
            started,
            flight,
            flight_dumps: AtomicU64::new(0),
        })
    }

    /// Stops the supervisor thread (idempotent); drain and drop call
    /// this before joining workers so a restart cannot race them.
    fn stop_supervisor(&self) {
        self.supervisor_stop.store(true, Ordering::Release);
        if let Some(h) = self.supervisor.lock().expect("supervisor handle poisoned").take() {
            let _ = h.join();
        }
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Whether the service is draining (no new admissions or events).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Seconds since the service started.
    #[must_use]
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Appends one event to the flight recorder's black box.
    fn flight_note(&self, tenant: &str, kind: FlightKind, dur_ns: u64, detail: &str) {
        self.flight.lock().expect("flight recorder poisoned").note(tenant, kind, dur_ns, detail);
    }

    fn shared_of(&self, name: &str) -> Option<Arc<Shared>> {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        tenants.get(name).map(|t| Arc::clone(&t.shared))
    }

    /// `f` applied to every tenant's book, in name order.
    fn each_book<T>(&self, f: impl Fn(&Book) -> T) -> Vec<T> {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        let mut named: Vec<(&String, &Tenant)> = tenants.iter().collect();
        named.sort_by_key(|&(name, _)| name);
        named.into_iter().map(|(_, t)| f(&t.shared.book())).collect()
    }

    /// Charges one failed request against `name`'s availability
    /// objective and black-boxes the reject. Connection loops call this
    /// on malformed frames and non-retryable submit rejects, so error
    /// budget burns when the wire misbehaves — not only when the worker
    /// does.
    pub fn note_request_error(&self, name: &str, code: u16, msg: &str) {
        if let Some(shared) = self.shared_of(name) {
            shared.book().slo.record_error();
        }
        self.flight_note(name, FlightKind::Reject, 0, &format!("{code} {msg}"));
    }

    /// Writes a post-mortem flight dump — the black box plus every
    /// tenant's retained traces (recent ring + slowest exemplars) — to
    /// `<root>/flight-<reason>-<n>.rvfr` and returns its path.
    ///
    /// # Errors
    ///
    /// Any IO error writing the dump file.
    pub fn dump_flight(&self, reason: &str) -> std::io::Result<PathBuf> {
        let meta = [
            ("version".to_owned(), self.config.version.clone()),
            ("commit".to_owned(), self.config.commit.clone()),
            ("uptime_s".to_owned(), self.uptime_seconds().to_string()),
        ];
        let body = {
            let tenants = self.tenants.lock().expect("tenant registry poisoned");
            let mut named: Vec<(&str, &Shared)> =
                tenants.iter().map(|(name, t)| (name.as_str(), &*t.shared)).collect();
            named.sort_by_key(|&(name, _)| name);
            gather_flight_dump(reason, &meta, &self.flight, named)
        };
        let n = self.flight_dumps.fetch_add(1, Ordering::Relaxed);
        let path = self.config.root.join(format!("flight-{}-{n}.rvfr", sanitize_reason(reason)));
        std::fs::write(&path, body)?;
        Ok(path)
    }

    /// Admits (or attaches to) tenant `name`. A fresh tenant needs a
    /// non-empty `spec` source; attaching to a live tenant accepts an
    /// empty spec or the identical source. A tenant directory left by a
    /// previous run is recovered: checkpoint restore + journal suffix
    /// replay with duplicate-trigger suppression.
    ///
    /// # Errors
    ///
    /// A typed [`Reject`]: [`REJECT_DRAINING`], [`REJECT_BAD_FRAME`]
    /// (bad name / missing spec), [`REJECT_TOO_MANY_TENANTS`],
    /// [`REJECT_BAD_SPEC`], [`REJECT_SPEC_MISMATCH`] or
    /// [`REJECT_TENANT_FAILED`] (recovery failed).
    pub fn admit(&self, name: &str, spec: &str, opts: TenantOptions) -> Result<(), Reject> {
        if self.is_draining() {
            self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
            return Err((REJECT_DRAINING, "service is draining".into()));
        }
        if !valid_tenant_name(name) {
            self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
            return Err((REJECT_BAD_FRAME, "tenant names are 1-64 chars of [A-Za-z0-9_-]".into()));
        }
        let mut tenants = self.tenants.lock().expect("tenant registry poisoned");
        if let Some(t) = tenants.get(name) {
            let (state, hash) = {
                let book = t.shared.book();
                (book.snap.state.clone(), book.snap.spec_hash)
            };
            match state {
                TenantState::Failed(e) if self.config.supervisor.max_restarts == 0 => {
                    self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err((REJECT_TENANT_FAILED, format!("tenant quarantined: {e}")));
                }
                TenantState::FailedPermanent(e) => {
                    self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err((
                        REJECT_TENANT_FAILED,
                        format!("tenant circuit-broken after restart budget: {e}"),
                    ));
                }
                // Failed-under-supervision and Restarting both accept
                // the attach: the client's next submission gets a
                // retryable reject until the worker is back.
                _ => {}
            }
            if !spec.trim().is_empty() && spec_hash(spec) != hash {
                self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
                return Err((
                    REJECT_SPEC_MISMATCH,
                    format!("tenant `{name}` already exists with a different spec"),
                ));
            }
            return Ok(());
        }
        if tenants.len() >= self.config.max_tenants {
            self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                REJECT_TOO_MANY_TENANTS,
                format!("tenant table full ({} tenants)", tenants.len()),
            ));
        }
        let dir = self.config.root.join(name);
        let has_journal = dir.join("journal-00000000").exists();
        if !has_journal && spec.trim().is_empty() {
            self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
            return Err((REJECT_BAD_FRAME, format!("unknown tenant `{name}` and no spec given")));
        }
        let tenant = spawn_worker(
            name,
            &dir,
            if spec.trim().is_empty() { None } else { Some(spec.to_owned()) },
            opts,
            &self.config,
            Arc::new(Shared::new(name, &self.config, self.started)),
            &self.flight,
        )
        .map_err(|r| {
            self.stats.tenants_rejected.fetch_add(1, Ordering::Relaxed);
            r
        })?;
        tenants.insert(name.to_owned(), tenant);
        self.stats.tenants_admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Recovers every tenant directory under the root (kill -9 or
    /// post-drain restart), returning the recovered names sorted.
    ///
    /// # Errors
    ///
    /// Per-tenant failures are returned alongside the successes; the IO
    /// error is for an unreadable root directory.
    pub fn recover_all(&self) -> std::io::Result<(Vec<String>, Vec<(String, Reject)>)> {
        let mut ok = Vec::new();
        let mut failed = Vec::new();
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.config.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() && path.join("journal-00000000").exists() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        for name in names {
            let opts = read_options(&self.config.root.join(&name));
            match self.admit(&name, "", opts) {
                Ok(()) => ok.push(name),
                Err(r) => failed.push((name, r)),
            }
        }
        Ok((ok, failed))
    }

    /// Grants a connection slot for `name`, enforcing the per-tenant cap.
    ///
    /// # Errors
    ///
    /// [`REJECT_TOO_MANY_CONNS`] at the cap, or a bad-name reject for an
    /// unknown tenant.
    pub fn connect(&self, name: &str) -> Result<ConnPermit, Reject> {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        let Some(t) = tenants.get(name) else {
            return Err((REJECT_BAD_FRAME, format!("unknown tenant `{name}`")));
        };
        let cap = self.config.max_conns_per_tenant;
        let granted = t
            .shared
            .conns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < cap).then_some(n + 1))
            .is_ok();
        if !granted {
            self.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                REJECT_TOO_MANY_CONNS,
                format!("tenant `{name}` is at its connection cap ({cap})"),
            ));
        }
        self.stats.conns_opened.fetch_add(1, Ordering::Relaxed);
        Ok(ConnPermit { shared: Arc::clone(&t.shared) })
    }

    /// The one state gate for work sent to a live tenant: lines,
    /// barriers, stats requests and reloads. A failure is a retryable
    /// `503` while a supervisor will restart the tenant and a `500` once
    /// nothing will.
    fn gate(&self, name: &str, t: &Tenant) -> Result<(), Reject> {
        let state = t.shared.book().snap.state.clone();
        match state {
            TenantState::Failed(e) if self.config.supervisor.max_restarts == 0 => {
                Err((REJECT_TENANT_FAILED, format!("tenant quarantined: {e}")))
            }
            // Under supervision a failure is transient: answer the
            // retryable 503 until the restart lands.
            TenantState::Failed(_) | TenantState::Restarting => {
                Err((REJECT_DRAINING, format!("tenant `{name}` is restarting")))
            }
            TenantState::FailedPermanent(e) => {
                Err((REJECT_TENANT_FAILED, format!("tenant circuit-broken: {e}")))
            }
            TenantState::Drained => Err((REJECT_DRAINING, "tenant is drained".into())),
            TenantState::Running => Ok(()),
        }
    }

    /// The one lookup for work sent to tenant `name`: its ingest queue
    /// and books, past the state [`gate`](Self::gate). Work other than a
    /// `reload` also waits out a reload in flight (a retryable 503).
    fn live(
        &self,
        name: &str,
        reload: bool,
    ) -> Result<(SyncSender<TenantMsg>, Arc<Shared>), Reject> {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        let Some(t) = tenants.get(name) else {
            return Err((REJECT_BAD_FRAME, format!("unknown tenant `{name}`")));
        };
        if !reload && t.shared.reloading.load(Ordering::Acquire) {
            return Err((REJECT_DRAINING, format!("tenant `{name}` is reloading its spec")));
        }
        self.gate(name, t)?;
        Ok((t.ingest.clone(), Arc::clone(&t.shared)))
    }

    /// One worker round trip: sends the message `msg` builds around a
    /// fresh reply channel and waits up to
    /// [`ServiceConfig::reply_timeout`] for the answer. The send blocks
    /// at a full queue regardless of the backpressure policy — control
    /// messages are never shed.
    fn round_trip<T>(
        &self,
        name: &str,
        ingest: &SyncSender<TenantMsg>,
        what: &str,
        msg: impl FnOnce(SyncSender<T>) -> TenantMsg,
    ) -> Result<T, Reject> {
        let (reply_tx, reply_rx) = sync_channel(1);
        ingest
            .send(msg(reply_tx))
            .map_err(|_| (REJECT_TENANT_FAILED, format!("tenant `{name}` worker is gone")))?;
        reply_rx
            .recv_timeout(self.config.reply_timeout)
            .map_err(|_| (REJECT_TIMEOUT, format!("{what} timed out for tenant `{name}`")))
    }

    /// Submits one session-stamped trace-grammar line to tenant `name`,
    /// applying the configured backpressure policy at a full queue. The
    /// tenant applies a given `(session, cseq)` at most once and only
    /// contiguously, so resends after a reconnect are deduplicated
    /// *before* journaling. `wire_ns` is the time the connection loop
    /// spent reading the frame off the wire; the admission span
    /// (registry lookup + state checks) is measured here. Both ride the
    /// ingest message so the worker can assemble the full
    /// wire-to-trigger breakdown.
    ///
    /// # Errors
    ///
    /// [`REJECT_QUEUE_FULL`] under [`Backpressure::Shed`],
    /// [`REJECT_TENANT_FAILED`] / [`REJECT_DRAINING`] for dead tenants,
    /// [`REJECT_DRAINING`] while the service drains. Sheds and
    /// dead-tenant rejects are also charged against the tenant's
    /// availability objective.
    pub fn submit(
        &self,
        name: &str,
        session: u64,
        cseq: u64,
        line: &str,
        wire_ns: u64,
    ) -> Result<(), Reject> {
        let admit_start = Instant::now();
        if self.is_draining() {
            return Err((REJECT_DRAINING, "service is draining".into()));
        }
        let (ingest, shared) = self.live(name, false).inspect_err(|r| {
            // Dead-tenant submissions are failed requests: burn budget
            // (the book survives the worker, so Failed tenants keep
            // accounting) — but not for retryable restart/reload 503s,
            // which the resilient client absorbs.
            if r.0 != REJECT_DRAINING {
                if let Some(shared) = self.shared_of(name) {
                    shared.book().slo.record_error();
                }
            }
        })?;
        let msg = TenantMsg::Line {
            session,
            cseq,
            line: line.to_owned(),
            enqueued: Instant::now(),
            wire_ns,
            admission_ns: u64::try_from(admit_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        match self.config.backpressure {
            Backpressure::Block => ingest
                .send(msg)
                .map_err(|_| (REJECT_TENANT_FAILED, format!("tenant `{name}` worker is gone")))?,
            Backpressure::Shed => match ingest.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.stats.events_shed.fetch_add(1, Ordering::Relaxed);
                    let mut book = shared.book();
                    book.snap.shed_events += 1;
                    book.slo.record_error();
                    drop(book);
                    self.flight_note(name, FlightKind::Reject, 0, "431 ingest queue full");
                    return Err((
                        REJECT_QUEUE_FULL,
                        format!("tenant `{name}` ingest queue is full — event shed"),
                    ));
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.book().slo.record_error();
                    return Err((REJECT_TENANT_FAILED, format!("tenant `{name}` worker is gone")));
                }
            },
        }
        self.stats.events_submitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Durability barrier for `session`: returns once everything
    /// submitted to `name` before this call is processed and fsynced,
    /// echoing `token` with the session's contiguous cseq high-water
    /// mark. A resilient client compares the mark against the highest
    /// cseq it sent to detect lines lost to an in-connection frame drop
    /// (which the worker gap-discards rather than letting them poison
    /// the mark).
    ///
    /// # Errors
    ///
    /// [`REJECT_TIMEOUT`] past [`ServiceConfig::reply_timeout`], or the
    /// dead-tenant rejects.
    pub fn sync(&self, name: &str, token: u64, session: u64) -> Result<(u64, u64), Reject> {
        let (ingest, _) = self.live(name, false)?;
        self.round_trip(name, &ingest, "barrier", |reply| TenantMsg::Barrier {
            token,
            session,
            reply,
        })
    }

    /// The tenant's stats JSON (engine + journal + snapshot counters),
    /// produced by the worker itself at a message boundary.
    ///
    /// # Errors
    ///
    /// [`REJECT_TIMEOUT`] or the dead-tenant rejects.
    pub fn tenant_stats_json(&self, name: &str) -> Result<String, Reject> {
        let (ingest, _) = self.live(name, false)?;
        self.round_trip(name, &ingest, "stats", |reply| TenantMsg::Stats { reply })
    }

    /// Hot spec reload: compiles `source`, drains the tenant's old
    /// engine to a checkpoint at its exact journal tail, journals the
    /// `AUX_RELOAD` cutover, and swaps in a fresh engine — all at a
    /// message boundary inside the worker, so no event ever straddles
    /// two spec versions. While the round trip is in flight submissions
    /// get a retryable [`REJECT_DRAINING`]. A non-zero `token` equal to
    /// the last applied one makes the call an idempotent no-op (the
    /// retry path for clients whose acknowledgement was lost).
    ///
    /// Returns the tenant's spec version after the call.
    ///
    /// # Errors
    ///
    /// [`REJECT_BAD_SPEC`] when `source` does not compile,
    /// [`REJECT_TIMEOUT`], or the dead-tenant rejects.
    pub fn reload(&self, name: &str, token: u64, source: &str) -> Result<u64, Reject> {
        if self.is_draining() {
            return Err((REJECT_DRAINING, "service is draining".into()));
        }
        if source.trim().is_empty() {
            return Err((REJECT_BAD_SPEC, "reload needs a non-empty spec".into()));
        }
        // Fast typed 422 without disturbing the worker; the worker
        // revalidates before cutting over.
        CompiledSpec::from_source(source).map_err(|d| {
            (REJECT_BAD_SPEC, format!("reload spec does not compile: {}", d.message))
        })?;
        let (ingest, shared) = self.live(name, true)?;
        shared.reloading.store(true, Ordering::Release);
        let outcome = self
            .round_trip(name, &ingest, "reload", |reply| TenantMsg::Reload {
                token,
                source: source.to_owned(),
                reply,
            })
            .and_then(|r| r);
        shared.reloading.store(false, Ordering::Release);
        if outcome.is_ok() {
            self.stats.spec_reloads.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Pulls tenant `name`'s goal reports strictly after the
    /// `(event_seq, ordinal)` high-water mark `after`, up to `max`.
    /// Served straight from the tenant's journal-backed trigger log —
    /// no worker round trip, so it works while the tenant is Failed or
    /// mid-restart.
    ///
    /// # Errors
    ///
    /// [`REJECT_RESUME_GONE`] when `after` lies below the log's
    /// eviction horizon, or an unknown-tenant reject.
    pub fn poll_triggers(
        &self,
        name: &str,
        after: (u64, u32),
        max: usize,
    ) -> Result<Vec<TriggerRecord>, Reject> {
        let Some(shared) = self.shared_of(name) else {
            return Err((REJECT_BAD_FRAME, format!("unknown tenant `{name}`")));
        };
        let book = shared.book();
        book.triggers.poll(after, max.clamp(1, 4096)).map_err(|()| {
            (REJECT_RESUME_GONE, format!("resume point {after:?} was evicted from the trigger log"))
        })
    }

    /// Names of every registered tenant, sorted.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        let mut names: Vec<String> = tenants.keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshots of every tenant, sorted by name.
    #[must_use]
    pub fn snapshots(&self) -> Vec<TenantSnapshot> {
        self.each_book(|b| b.snap.clone())
    }

    /// Plain-text liveness body for `/healthz`: a leading `ok` (or
    /// `draining`), the daemon's version and uptime, one `tenant` line
    /// per tenant, then one `slo` line per tenant (error budgets and
    /// burn rates). The `tenant` lines carry only restart-stable
    /// counters — SLO state deliberately rides separate lines.
    #[must_use]
    pub fn healthz(&self) -> String {
        let snaps = self.snapshots();
        let mut out = String::new();
        out.push_str(if self.is_draining() { "draining\n" } else { "ok\n" });
        out.push_str(&format!(
            "version {} commit {}\nuptime_s {}\n",
            self.config.version,
            self.config.commit,
            self.uptime_seconds()
        ));
        out.push_str(&format!("tenants {}\n", snaps.len()));
        for s in &snaps {
            out.push_str(&format!(
                "tenant {} state={} events={} triggers={} shed_events={} bad_lines={} \
                 quarantined={} budget_trips={} shed_monitors={} monitors_live={} checkpoints={} \
                 restarts={} spec_version={} deduped_events={} gap_dropped_events={}\n",
                s.name,
                s.state.label(),
                s.events,
                s.triggers,
                s.shed_events,
                s.bad_lines,
                s.quarantined,
                s.budget_trips,
                s.shed_monitors,
                s.monitors_live,
                s.checkpoints,
                s.restarts,
                s.spec_version,
                s.deduped_events,
                s.gap_dropped_events,
            ));
        }
        for (name, slo, recorded) in
            self.each_book(|b| (b.snap.name.clone(), b.slo.snapshot(), b.ring.recorded()))
        {
            out.push_str(&format!(
                "slo {name} latency_budget={:.4} latency_burn={:.2} \
                 availability_budget={:.4} availability_burn={:.2} good={} bad={} traces={}\n",
                slo.latency.budget_remaining,
                slo.latency.burn_rate,
                slo.availability.budget_remaining,
                slo.availability.burn_rate,
                slo.availability.good_total,
                slo.availability.bad_total,
                recorded,
            ));
        }
        out
    }

    /// Prometheus text exposition of the service and per-tenant counters
    /// (`rvmond_*` namespace, tenant-labeled).
    #[must_use]
    pub fn prometheus(&self) -> String {
        let snaps = self.snapshots();
        let mut expo = Exposition::default();
        let st = &self.stats;
        let service: [(&str, &str, &AtomicU64); 11] = [
            ("rvmond_tenants_admitted_total", "Tenants admitted", &st.tenants_admitted),
            ("rvmond_tenants_rejected_total", "Tenant admissions rejected", &st.tenants_rejected),
            ("rvmond_conns_opened_total", "Connection permits granted", &st.conns_opened),
            ("rvmond_conns_rejected_total", "Connection permits refused", &st.conns_rejected),
            (
                "rvmond_events_submitted_total",
                "Events accepted into ingest queues",
                &st.events_submitted,
            ),
            ("rvmond_events_shed_total", "Events dropped by shed backpressure", &st.events_shed),
            ("rvmond_bad_frames_total", "Malformed frames rejected", &st.bad_frames),
            ("rvmond_idle_reaped_total", "Connections reaped for idling", &st.idle_reaped),
            (
                "rvmond_tenants_restarted_total",
                "Supervised tenant restarts completed",
                &st.tenants_restarted,
            ),
            (
                "rvmond_tenants_circuit_broken_total",
                "Tenants circuit-broken after exhausting the restart budget",
                &st.tenants_circuit_broken,
            ),
            ("rvmond_spec_reloads_total", "Hot spec reloads applied", &st.spec_reloads),
        ];
        for (name, help, value) in service {
            expo.family(name, help, Kind::Counter).sample(&[], value.load(Ordering::Relaxed));
        }
        // Per-tenant series; the `_total` suffix marks the counters.
        let per_tenant: &[(&str, &str, fn(&TenantSnapshot) -> u64)] = &[
            ("rvmond_tenant_events_total", "Events processed", |s| s.events),
            ("rvmond_tenant_triggers_total", "Goal reports delivered", |s| s.triggers),
            ("rvmond_tenant_shed_events_total", "Events shed at the queue", |s| s.shed_events),
            ("rvmond_tenant_bad_lines_total", "Malformed client lines", |s| s.bad_lines),
            ("rvmond_tenant_quarantined_total", "Monitors quarantined", |s| s.quarantined),
            ("rvmond_tenant_budget_trips_total", "Budget trips", |s| s.budget_trips),
            ("rvmond_tenant_shed_monitors_total", "Monitor creations shed", |s| s.shed_monitors),
            ("rvmond_tenant_checkpoints_total", "Checkpoints written", |s| s.checkpoints),
            ("rvmond_tenant_journal_retries_total", "Journal append retries", |s| {
                s.journal_retries
            }),
            ("rvmond_tenant_restarts_total", "Supervised restarts of this tenant", |s| s.restarts),
            ("rvmond_tenant_deduped_events_total", "Duplicate session lines suppressed", |s| {
                s.deduped_events
            }),
            (
                "rvmond_tenant_gap_dropped_events_total",
                "Session lines discarded past a cseq gap",
                |s| s.gap_dropped_events,
            ),
            ("rvmond_tenant_monitors_live", "Live monitor instances", |s| s.monitors_live),
            ("rvmond_tenant_spec_version", "Spec version (1 + reloads)", |s| s.spec_version),
        ];
        for &(name, help, get) in per_tenant {
            let kind = if name.ends_with("_total") { Kind::Counter } else { Kind::Gauge };
            let mut f = expo.family(name, help, kind);
            for s in &snaps {
                f.sample(&[("tenant", &s.name)], get(s));
            }
        }
        expo.family("rvmond_build_info", "Daemon build information", Kind::Gauge)
            .sample(&[("version", &self.config.version), ("commit", &self.config.commit)], 1);
        expo.family("rvmond_uptime_seconds", "Seconds since the daemon started", Kind::Gauge)
            .sample(&[], self.uptime_seconds());
        let obs = self.each_book(|b| (b.snap.name.clone(), b.stages.clone(), b.slo.snapshot()));
        let mut f =
            expo.family("rvmond_stage_events_total", "Stage samples recorded", Kind::Counter);
        for (name, stages, _) in &obs {
            for stage in Stage::ALL {
                f.sample(
                    &[("tenant", name), ("stage", stage.label())],
                    stages.stage(stage).count(),
                );
            }
        }
        let mut f =
            expo.family("rvmond_stage_latency_us", "Per-stage latency quantiles", Kind::Gauge);
        for (name, stages, _) in &obs {
            for stage in Stage::ALL {
                let h = stages.stage(stage);
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                    f.sample(
                        &[("tenant", name), ("stage", stage.label()), ("quantile", label)],
                        format_args!("{:.1}", h.quantile(q) / 1000.0),
                    );
                }
            }
        }
        let slo_gauges: [(&str, &str, usize, fn(&ObjectiveSnapshot) -> f64); 2] = [
            ("rvmond_slo_error_budget_remaining", "Fraction of the error budget left", 4, |o| {
                o.budget_remaining
            }),
            ("rvmond_slo_burn_rate", "Error budget burn rate (1 = exactly at goal)", 2, |o| {
                o.burn_rate
            }),
        ];
        for (family, help, precision, get) in slo_gauges {
            let mut f = expo.family(family, help, Kind::Gauge);
            for (name, _, slo) in &obs {
                for (objective, o) in [("latency", slo.latency), ("availability", slo.availability)]
                {
                    f.sample(
                        &[("tenant", name), ("objective", objective)],
                        format_args!("{:.*}", precision, get(&o)),
                    );
                }
            }
        }
        let mut f =
            expo.family("rvmond_slo_requests_total", "Requests by SLO outcome", Kind::Counter);
        for (name, _, slo) in &obs {
            let a = &slo.availability;
            for (outcome, n) in [("good", a.good_total), ("bad", a.bad_total)] {
                f.sample(&[("tenant", name), ("outcome", outcome)], n);
            }
        }
        expo.finish()
    }

    /// Graceful drain: stop admitting, checkpoint every running tenant,
    /// and join the workers. Idempotent; returns the number of tenants
    /// that drained to a checkpoint this call.
    #[must_use]
    pub fn drain(&self) -> usize {
        self.draining.store(true, Ordering::Release);
        // Stop the supervisor before joining workers: a restart landing
        // mid-drain would leave an unjoined worker behind.
        self.stop_supervisor();
        let mut handles = Vec::new();
        {
            let mut tenants = self.tenants.lock().expect("tenant registry poisoned");
            for t in tenants.values_mut() {
                let _ = t.ingest.send(TenantMsg::Drain);
                if let Some(h) = t.worker.take() {
                    handles.push(h);
                }
            }
        }
        let joined = handles.len();
        for h in handles {
            let _ = h.join();
        }
        let tenants = self.tenants.lock().expect("tenant registry poisoned");
        let drained =
            tenants.values().filter(|t| t.shared.book().snap.state == TenantState::Drained).count();
        drained.min(joined.max(drained))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Dropping without drain() is the crash path tests use: the
        // workers see a channel disconnect and exit without a
        // checkpoint. Join them so their journals finish flushing before
        // the test inspects the files.
        self.stop_supervisor();
        let mut tenants = self.tenants.lock().expect("tenant registry poisoned");
        let handles: Vec<_> = tenants.values_mut().filter_map(|t| t.worker.take()).collect();
        tenants.clear();
        drop(tenants);
        for h in handles {
            let _ = h.join();
        }
    }
}

// --- Connection loop ------------------------------------------------------

fn write_reject(w: &mut impl Write, code: u16, msg: &str) -> std::io::Result<()> {
    let mut payload = Vec::with_capacity(2 + msg.len());
    payload.extend_from_slice(&code.to_le_bytes());
    payload.extend_from_slice(msg.as_bytes());
    write_frame(w, FRAME_REJECT, &payload)
}

/// Counts a bad frame and answers it with a 400 carrying `msg`.
fn bad_frame(service: &Service, w: &mut impl Write, msg: &str) -> std::io::Result<()> {
    service.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
    write_reject(w, REJECT_BAD_FRAME, msg)
}

/// The 400 for a `kind` frame whose payload does not parse.
fn malformed(service: &Service, w: &mut impl Write, kind: u8) -> std::io::Result<()> {
    let what = frame_name(kind).unwrap_or("?");
    bad_frame(service, w, &format!("malformed {what} payload"))
}

fn u64_at(p: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(p.get(at..at + 8)?.try_into().ok()?))
}

fn u32_at(p: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(p.get(at..at + 4)?.try_into().ok()?))
}

/// Serves one framed client connection against the service: HELLO →
/// admission + connection permit, EVENT_SEQ → submit with backpressure,
/// SYNC → durability barrier, RELOAD → hot spec reload, POLL → goal
/// reports, STATS → tenant JSON, BYE/EOF → close. Every kind but HELLO
/// and BYE needs an attached session; a malformed payload is a 400 that
/// keeps the connection (HELLO's closes it).
/// Read timeouts (surfaced as `WouldBlock`/`TimedOut` from the stream)
/// reap the connection and are counted in
/// [`ServiceStats::idle_reaped`].
///
/// # Errors
///
/// The IO error that ended the connection, if it was not a clean close.
pub fn serve_connection<S: Read + Write>(service: &Service, stream: &mut S) -> std::io::Result<()> {
    let mut session: Option<(String, ConnPermit)> = None;
    loop {
        let (kind, payload, wire_ns) = match read_frame_timed(stream) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()),
            Err(e) if crate::journal::is_transient(e.kind()) => {
                service.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                let _ = write_reject(stream, REJECT_BAD_FRAME, "idle timeout — closing");
                return Ok(());
            }
            // A torn or corrupt frame (bad length, CRC mismatch, EOF
            // mid-frame) is a client/wire fault, never a server one: the
            // framer answers a typed 400 and closes instead of erroring.
            // With an attached session it is also a failed request — the
            // tenant's availability budget burns when its wire degrades.
            Err(e) if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof) => {
                if let Some((name, _)) = &session {
                    service.note_request_error(name, REJECT_BAD_FRAME, "malformed frame");
                }
                let _ = bad_frame(service, stream, &format!("malformed frame: {e}"));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        // Each request yields its reply frame or a reject, and whether
        // that reject ends the connection.
        let (reply, close): (Result<(u8, Vec<u8>), Reject>, bool) = match (kind, &session) {
            (FRAME_BYE, _) => return Ok(()),
            (FRAME_HELLO, _) => {
                if let Some(&version) = payload.first().filter(|&&v| v != HELLO_VERSION) {
                    let msg = format!(
                        "HELLO layout version {version} is not this server's version \
                         {HELLO_VERSION}"
                    );
                    bad_frame(service, stream, &msg)?;
                    return Ok(());
                }
                let Some((name, spec, opts)) = decode_hello(&payload) else {
                    malformed(service, stream, kind)?;
                    return Ok(());
                };
                match service.admit(&name, &spec, opts).and_then(|()| service.connect(&name)) {
                    Ok(permit) => {
                        session = Some((name.clone(), permit));
                        (Ok((FRAME_OK, name.into_bytes())), true)
                    }
                    Err(r) => (Err(r), true),
                }
            }
            (FRAME_EVENT_SEQ | FRAME_RELOAD | FRAME_POLL | FRAME_SYNC | FRAME_STATS, None) => {
                let what = frame_name(kind).unwrap_or("?");
                bad_frame(service, stream, &format!("{what} before HELLO"))?;
                return Ok(());
            }
            (FRAME_EVENT_SEQ, Some((name, _))) => {
                let parsed = u64_at(&payload, 0).zip(u64_at(&payload, 8)).and_then(|(s, c)| {
                    Some((s, c, String::from_utf8(payload.get(16..)?.to_vec()).ok()?))
                });
                let Some((sess, cseq, line)) = parsed else {
                    malformed(service, stream, kind)?;
                    continue;
                };
                match service.submit(name, sess, cseq, &line, wire_ns) {
                    Ok(()) => continue,
                    // Shed (431) and reload/restart pauses (503) are
                    // per-line, retryable outcomes, not connection
                    // failures: report and keep serving.
                    Err(r) => {
                        let close = !matches!(r.0, REJECT_QUEUE_FULL | REJECT_DRAINING);
                        (Err(r), close)
                    }
                }
            }
            (FRAME_RELOAD, Some((name, _))) => {
                let parsed = u64_at(&payload, 0)
                    .and_then(|t| Some((t, String::from_utf8(payload.get(8..)?.to_vec()).ok()?)));
                let Some((token, source)) = parsed else {
                    malformed(service, stream, kind)?;
                    continue;
                };
                // Reload is a retryable control operation: rejects keep
                // the connection so the client can back off and retry.
                let version = service.reload(name, token, &source);
                (version.map(|v| (FRAME_RELOADED, v.to_le_bytes().to_vec())), false)
            }
            (FRAME_POLL, Some((name, _))) => {
                let parsed = u64_at(&payload, 0).zip(u32_at(&payload, 8)).zip(u32_at(&payload, 12));
                let Some(((seq, ord), max)) = parsed else {
                    malformed(service, stream, kind)?;
                    continue;
                };
                let batch = service.poll_triggers(name, (seq, ord), max as usize);
                (batch.map(|b| (FRAME_TRIGGERS, encode_triggers(&b))), false)
            }
            (FRAME_SYNC, Some((name, _))) => {
                let (Some(token), Some(sess), 16) =
                    (u64_at(&payload, 0), u64_at(&payload, 8), payload.len())
                else {
                    malformed(service, stream, kind)?;
                    continue;
                };
                let synced = service.sync(name, token, sess);
                (
                    synced.map(|(t, hwm)| (FRAME_SYNCED, [t, hwm].map(u64::to_le_bytes).concat())),
                    true,
                )
            }
            (FRAME_STATS, Some((name, _))) => {
                let json = service.tenant_stats_json(name);
                (json.map(|j| (FRAME_STATS_REPLY, j.into_bytes())), true)
            }
            (kind, _) => {
                bad_frame(service, stream, &format!("unknown frame kind {kind:#x}"))?;
                return Ok(());
            }
        };
        match reply {
            Ok((kind, payload)) => write_frame(stream, kind, &payload)?,
            Err((code, msg)) => {
                write_reject(stream, code, &msg)?;
                if close {
                    return Ok(());
                }
            }
        }
    }
}

// --- Tenant worker --------------------------------------------------------

/// Spawns `name`'s worker over `shared`, the books a supervised
/// restart keeps, and waits for it to initialise.
fn spawn_worker(
    name: &str,
    dir: &Path,
    spec_source: Option<String>,
    opts: TenantOptions,
    config: &ServiceConfig,
    shared: Arc<Shared>,
    flight: &Arc<Mutex<FlightRecorder>>,
) -> Result<Tenant, Reject> {
    let (ingest_tx, ingest_rx) = sync_channel::<TenantMsg>(config.queue_depth.max(1));
    let (init_tx, init_rx) = sync_channel::<Result<(), Reject>>(1);
    let worker = {
        let name = name.to_owned();
        let dir = dir.to_path_buf();
        let shared = Arc::clone(&shared);
        let flight = Arc::clone(flight);
        let config = config.clone();
        std::thread::Builder::new()
            .name(format!("rvmond-tenant-{name}"))
            .spawn(move || {
                match Worker::init(&name, &dir, spec_source, opts, &config, shared, flight) {
                    Ok(mut w) => {
                        let _ = init_tx.send(Ok(()));
                        w.run(&ingest_rx);
                    }
                    Err(r) => {
                        let _ = init_tx.send(Err(r));
                    }
                }
            })
            .map_err(|e| (REJECT_TENANT_FAILED, format!("cannot spawn worker: {e}")))?
    };
    match init_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(())) => Ok(Tenant {
            ingest: ingest_tx,
            shared,
            worker: Some(worker),
            dir: dir.to_path_buf(),
            opts,
            restart_times: Vec::new(),
            next_restart: None,
        }),
        Ok(Err(r)) => {
            let _ = worker.join();
            Err(r)
        }
        Err(_) => Err((REJECT_TIMEOUT, "tenant worker initialisation timed out".into())),
    }
}

// --- Supervisor -----------------------------------------------------------

/// The supervision loop: scans for Failed tenants, schedules restarts
/// with bounded exponential backoff plus deterministic jitter, respawns
/// workers through the recovery path (outside the registry lock — init
/// replays the journal), and circuit-breaks a tenant to
/// [`TenantState::FailedPermanent`] once it burns
/// [`SupervisorConfig::max_restarts`] restarts inside the window.
fn supervisor_loop(
    tenants: &Arc<Mutex<HashMap<String, Tenant>>>,
    stats: &Arc<ServiceStats>,
    stop: &Arc<AtomicBool>,
    config: &ServiceConfig,
    flight: &Arc<Mutex<FlightRecorder>>,
) {
    let sup = config.supervisor;
    let mut rng = SplitMix64::new(sup.seed | 1);
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(sup.poll);
        // Pass 1 (under the lock): prune windows, circuit-break over
        // budget, schedule backoffs, and claim tenants whose backoff
        // expired by taking their worker handle.
        struct Job {
            name: String,
            dir: PathBuf,
            opts: TenantOptions,
            shared: Arc<Shared>,
            old_worker: Option<std::thread::JoinHandle<()>>,
        }
        let mut due: Vec<Job> = Vec::new();
        {
            let mut reg = tenants.lock().expect("tenant registry poisoned");
            let now = std::time::Instant::now();
            for (name, t) in reg.iter_mut() {
                let state = t.shared.book().snap.state.clone();
                let TenantState::Failed(err) = state else { continue };
                t.restart_times.retain(|&at| now.duration_since(at) < sup.window);
                if t.restart_times.len() >= sup.max_restarts as usize {
                    t.shared.book().snap.state = TenantState::FailedPermanent(err.clone());
                    t.next_restart = None;
                    stats.tenants_circuit_broken.fetch_add(1, Ordering::Relaxed);
                    flight.lock().expect("flight recorder poisoned").note(
                        name,
                        FlightKind::State,
                        0,
                        format!("circuit-broken: {err}"),
                    );
                    // Circuit-break is the end of the line for this
                    // tenant: leave a post-mortem dump beside its
                    // journal while the trace ring is still warm.
                    let _ = write_tenant_flight_dump(
                        &t.dir,
                        "circuit-break",
                        name,
                        &err,
                        flight,
                        &t.shared,
                    );
                    continue;
                }
                let due_at = *t.next_restart.get_or_insert_with(|| {
                    let exp = u32::try_from(t.restart_times.len()).unwrap_or(16).min(16);
                    let base = sup.backoff.saturating_mul(1u32 << exp.min(12));
                    let capped = base.min(sup.backoff_cap);
                    // Up to 25% deterministic jitter so a herd of
                    // failing tenants doesn't restart in lockstep.
                    let jitter = capped.mul_f64((rng.next_u64() % 256) as f64 / 1024.0);
                    now + capped + jitter
                });
                if now >= due_at {
                    t.shared.book().snap.state = TenantState::Restarting;
                    due.push(Job {
                        name: name.clone(),
                        dir: t.dir.clone(),
                        opts: t.opts,
                        shared: Arc::clone(&t.shared),
                        old_worker: t.worker.take(),
                    });
                }
            }
        }
        // Pass 2 (outside the lock): join the dead worker and respawn
        // through the recovery path — journal replay can take a while
        // and must not block admissions.
        for job in due {
            if let Some(h) = job.old_worker {
                let _ = h.join();
            }
            let restart_start = Instant::now();
            let respawned =
                spawn_worker(&job.name, &job.dir, None, job.opts, config, job.shared, flight);
            let mut reg = tenants.lock().expect("tenant registry poisoned");
            let Some(t) = reg.get_mut(&job.name) else { continue };
            t.restart_times.push(std::time::Instant::now());
            t.next_restart = None;
            match respawned {
                Ok(fresh) => {
                    t.ingest = fresh.ingest;
                    t.worker = fresh.worker;
                    let mut book = t.shared.book();
                    let n = book.snap.restarts + 1;
                    book.snap.restarts = n;
                    book.snap.state = TenantState::Running;
                    drop(book);
                    stats.tenants_restarted.fetch_add(1, Ordering::Relaxed);
                    flight.lock().expect("flight recorder poisoned").note(
                        &job.name,
                        FlightKind::Restart,
                        u64::try_from(restart_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        format!("restart #{n}"),
                    );
                }
                Err((_, msg)) => {
                    // Recovery itself failed: back to Failed so the next
                    // scan retries (or circuit-breaks) it.
                    t.shared.book().snap.state =
                        TenantState::Failed(format!("restart failed: {msg}"));
                }
            }
        }
    }
}

/// Everything a tenant worker owns: the journaled monitor, and the
/// daemon's books about it. Lives entirely on the worker thread; nothing
/// here is `Send`.
struct Worker {
    name: String,
    /// The tenant's monitor, heap, object names and journal.
    core: JournaledMonitor,
    dir: PathBuf,
    /// The tenant's books; the counters this worker bumps live there,
    /// so they survive a supervised restart.
    shared: Arc<Shared>,
    /// Checkpoints on disk when this incarnation started: the
    /// exposition's `_total` series stays monotonic across restarts.
    checkpoints_base: u64,
    opts: TenantOptions,
    /// The daemon-wide black box this worker notes GC cycles, reload
    /// cutovers and failures into.
    flight: Arc<Mutex<FlightRecorder>>,
}

/// A worker-fatal failure: the tenant quarantines, neighbors continue.
struct Fatal(String);

impl From<WriteError> for Fatal {
    fn from(e: WriteError) -> Fatal {
        Fatal(e.to_string())
    }
}

/// The trace context a [`TenantMsg::Line`] carries into the worker:
/// spans measured before dequeue, completed per-line by the worker.
#[derive(Clone, Copy, Default)]
struct LineCtx {
    wire_ns: u64,
    admission_ns: u64,
    queue_ns: u64,
}

impl Worker {
    fn init(
        name: &str,
        dir: &Path,
        spec_source: Option<String>,
        opts: TenantOptions,
        config: &ServiceConfig,
        shared: Arc<Shared>,
        flight: Arc<Mutex<FlightRecorder>>,
    ) -> Result<Worker, Reject> {
        let mut engine_cfg = config.engine.clone();
        if let Some(n) = opts.max_live_monitors {
            engine_cfg.max_live_monitors = Some(n as usize);
        }
        let internal = |msg: String| (REJECT_TENANT_FAILED, msg);
        let rejected = |e: RecoverError| match e {
            RecoverError::Spec(msg) => (REJECT_BAD_SPEC, msg),
            RecoverError::Journal(msg) => internal(msg),
        };
        let checkpoints_base = list_checkpoints(dir).len() as u64;
        let (mut core, replayed) = if dir.join("journal-00000000").exists() {
            let plan = recover::plan(dir, ReplayFrom::LatestCheckpoint).map_err(rejected)?;
            // A mismatching admission is refused before it pays for replay.
            if let Some(src) = &spec_source {
                if spec_hash(src) != spec_hash(&recover::tail_spec(&plan.scan).map_err(rejected)?) {
                    return Err((
                        REJECT_SPEC_MISMATCH,
                        format!("tenant `{name}` already exists with a different spec"),
                    ));
                }
            }
            let (core, replayed) =
                JournaledMonitor::resume(dir, plan, &engine_cfg, config.retry).map_err(rejected)?;
            (core, Some(replayed))
        } else {
            let source = spec_source.as_deref().expect("admit() requires a spec for fresh tenants");
            let spec = CompiledSpec::from_source(source)
                .map_err(|d| (REJECT_BAD_SPEC, format!("spec does not compile: {}", d.message)))?;
            std::fs::create_dir_all(dir).map_err(|e| internal(e.to_string()))?;
            write_options(dir, &opts).map_err(|e| internal(e.to_string()))?;
            let core = JournaledMonitor::create(
                dir,
                source,
                spec,
                &engine_cfg,
                config.retry,
                DEFAULT_SEGMENT_BYTES,
            )
            .map_err(|e| internal(e.to_string()))?;
            (core, None)
        };
        core.set_checkpoint_every(config.checkpoint_every);
        // Fsync batches many lines behind one barrier, so its span goes
        // to the stage histograms rather than split across per-request
        // traces (whose `journal_fsync` column reads 0 by design).
        {
            let shared = Arc::clone(&shared);
            core.on_fsync(move |ns| shared.book().stages.record(Stage::JournalFsync, ns));
        }
        let mut w = Worker {
            name: name.to_owned(),
            core,
            dir: dir.to_path_buf(),
            shared,
            checkpoints_base,
            opts,
            flight,
        };
        w.install_flags();
        let mut book = w.shared.book();
        // Rebuild the poll window: every journaled report in key
        // order, then the refired tail (their keys all sit past the
        // journaled HWM).
        book.triggers.reset(config.trigger_log_cap);
        if let Some(replayed) = &replayed {
            let journaled = replayed.plan.scan.records.iter();
            for t in journaled.filter_map(|sr| TriggerRecord::from_record(&sr.record)) {
                book.triggers.push(t);
            }
            for t in replayed.refired() {
                book.triggers.push(*t);
            }
        }
        book.snap.recovered_events = replayed.as_ref().map_or(0, |r| r.events);
        book.snap.suppressed_triggers = replayed.as_ref().map_or(0, |r| r.suppressed as u64);
        book.snap.spec_hash = spec_hash(w.core.spec_source());
        w.publish_into(&mut book.snap);
        drop(book);
        Ok(w)
    }

    /// Installs the behaviors the tenant's option flags request on the
    /// current monitor — called at init and again after a reload swap.
    fn install_flags(&mut self) {
        if self.opts.flags & TENANT_FLAG_PANIC_HANDLER != 0 {
            for engine in self.core.monitor_mut().engines_mut() {
                engine.set_trigger_handler(|_, _, _| {
                    panic!("injected rvmond tenant handler panic");
                });
            }
        }
    }

    /// Copies the monitor's and the journal's counters into `snap`.
    fn publish_into(&self, snap: &mut TenantSnapshot) {
        let totals = self.core.totals();
        let jstats = self.core.journal_stats();
        snap.events = totals.events;
        snap.triggers = totals.triggers;
        snap.quarantined = totals.quarantined;
        snap.budget_trips = totals.budget_trips;
        snap.degradations = totals.degradations;
        snap.shed_monitors = totals.shed;
        snap.monitors_live = self.core.monitor().stats().live_monitors as u64;
        snap.journal_records = jstats.records;
        snap.journal_retries = jstats.retries;
        snap.checkpoints = self.checkpoints_base + self.core.checkpoints();
        snap.spec_version = self.core.spec_version();
    }

    /// Publishes the counters, and `state` when given, under one lock.
    fn publish(&self, state: Option<TenantState>) {
        let mut book = self.shared.book();
        self.publish_into(&mut book.snap);
        if let Some(state) = state {
            book.snap.state = state;
        }
    }

    /// Black-boxes a tenant failure and drops a post-mortem flight dump
    /// beside the service root — the trace ring is still warm, so the
    /// dump carries the failing request's full stage breakdown.
    fn note_failure(&self, reason: &str, err: &str) {
        self.flight.lock().expect("flight recorder poisoned").note(
            &self.name,
            FlightKind::State,
            0,
            format!("{reason}: {err}"),
        );
        let _ = write_tenant_flight_dump(
            &self.dir,
            reason,
            &self.name,
            err,
            &self.flight,
            &self.shared,
        );
    }

    fn run(&mut self, rx: &Receiver<TenantMsg>) {
        while let Ok(msg) = rx.recv() {
            let drain = matches!(msg, TenantMsg::Drain);
            let line = matches!(msg, TenantMsg::Line { .. });
            // The panic boundary: anything that unwinds out of message
            // handling — including engine internals beyond the engine's
            // own handler quarantine — fails THIS tenant only.
            let outcome = catch_unwind(AssertUnwindSafe(|| self.handle(msg)));
            match outcome {
                Ok(Ok(())) if drain => {
                    self.publish(Some(TenantState::Drained));
                    return;
                }
                // A line's epilogue already published under its one lock.
                Ok(Ok(())) if line => {}
                Ok(Ok(())) => self.publish(None),
                Ok(Err(Fatal(msg))) => {
                    self.note_failure("worker-fatal", &msg);
                    self.publish(Some(TenantState::Failed(msg)));
                    return;
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".into());
                    self.note_failure("panic", &msg);
                    self.shared.book().snap.state = TenantState::Failed(format!("panic: {msg}"));
                    return;
                }
            }
        }
        // Channel disconnected without a drain: the crash path. No
        // checkpoint — recovery replays the journal.
    }

    fn handle(&mut self, msg: TenantMsg) -> Result<(), Fatal> {
        match msg {
            TenantMsg::Line { session, cseq, line, enqueued, wire_ns, admission_ns } => {
                let ctx = LineCtx {
                    wire_ns,
                    admission_ns,
                    queue_ns: u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
                };
                self.process_line(session, cseq, &line, ctx)
            }
            TenantMsg::Barrier { token, session, reply } => {
                self.core.sync()?;
                let _ = reply.send((token, self.core.hwm(session)));
                Ok(())
            }
            TenantMsg::Stats { reply } => {
                let book = self.shared.book();
                let json = format!(
                    "{{\"tenant\":{},\"engine\":{},\"journal\":{},\"stages\":{},\"slo\":{}}}",
                    book.snap.to_json(),
                    self.core.monitor().stats().to_json(),
                    self.core.journal_stats().to_json(),
                    book.stages.to_json(),
                    book.slo.snapshot().to_json(),
                );
                drop(book);
                let _ = reply.send(json);
                Ok(())
            }
            TenantMsg::Reload { token, source, reply } => self.reload(token, &source, &reply),
            TenantMsg::Drain => Ok(self.core.checkpoint_now().map(|_| ())?),
        }
    }

    /// The hot-reload cutover, at a message boundary so no event
    /// straddles spec versions ([`JournaledMonitor::reload`]).
    ///
    /// Crash safety: if the worker dies after the `AUX_RELOAD` fsync but
    /// before the acknowledgement reaches the client, recovery rebuilds
    /// the reload token from the journal and the client's retry with the
    /// same token lands in the idempotent branch — the cutover can never
    /// apply twice.
    fn reload(
        &mut self,
        token: u64,
        source: &str,
        reply: &SyncSender<Result<u64, Reject>>,
    ) -> Result<(), Fatal> {
        if token != 0 && token == self.core.reload_token() {
            let _ = reply.send(Ok(self.core.spec_version()));
            return Ok(());
        }
        let spec = match CompiledSpec::from_source(source) {
            Ok(s) => s,
            Err(d) => {
                let _ = reply.send(Err((
                    REJECT_BAD_SPEC,
                    format!("reload spec does not compile: {}", d.message),
                )));
                return Ok(());
            }
        };
        self.core.reload(token, source, spec)?;
        self.install_flags();
        // Publish before acknowledging: once the client sees RELOADED,
        // every observability surface must already show the new version.
        {
            let mut book = self.shared.book();
            book.snap.spec_hash = spec_hash(source);
            self.publish_into(&mut book.snap);
        }
        self.flight.lock().expect("flight recorder poisoned").note(
            &self.name,
            FlightKind::Reload,
            0,
            format!("spec v{}", self.core.spec_version()),
        );
        let _ = reply.send(Ok(self.core.spec_version()));
        Ok(())
    }

    /// One line of the trace grammar, journaled and applied by
    /// [`JournaledMonitor::process_line`], which also drops resends and
    /// lines past a gap. Malformed client input is counted (`bad_lines`)
    /// and skipped — a hostile client cannot fail its tenant with
    /// garbage, let alone a neighbor. Journal and engine failures are
    /// fatal for this tenant only. A `!fatal` line, when the tenant
    /// allows it, kills the worker once its mark is durable.
    fn process_line(
        &mut self,
        session: u64,
        cseq: u64,
        raw: &str,
        ctx: LineCtx,
    ) -> Result<(), Fatal> {
        if self.opts.flags & TENANT_FLAG_SLOW_WORKER != 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let fatal = self.opts.flags & TENANT_FLAG_ALLOW_FATAL != 0
            && raw.split('#').next().unwrap_or("").split_whitespace().next() == Some("!fatal");
        let outcome = if fatal {
            match self.core.mark_fatal(session, cseq)? {
                Ingest::Applied(_) => {
                    return Err(Fatal("injected worker-fatal fault (!fatal)".into()));
                }
                dropped => dropped,
            }
        } else {
            self.core.process_line(session, cseq, raw)?
        };
        let done = match outcome {
            Ingest::Applied(done) => done,
            Ingest::Blank => return Ok(()),
            Ingest::Duplicate => {
                self.shared.book().snap.deduped_events += 1;
                return Ok(());
            }
            // A line past a cseq gap (a frame lost inside a live
            // connection) would poison the contiguous HWM; the client
            // resends once a barrier echo reveals the shortfall.
            Ingest::Gap => {
                self.shared.book().snap.gap_dropped_events += 1;
                return Ok(());
            }
            Ingest::Bad(_) => {
                let mut book = self.shared.book();
                book.snap.bad_lines += 1;
                book.slo.record_error();
                return Ok(());
            }
        };
        // The wire-to-trigger trace for this line: the connection-side
        // spans arrive in `ctx`, the journaled monitor reports the rest.
        let mut trace = RequestTrace {
            session,
            cseq,
            seq: done.seq,
            at_ns: 0,
            stages: [0; crate::flight::STAGE_COUNT],
        };
        trace.stages[Stage::WireRead.idx()] = ctx.wire_ns;
        trace.stages[Stage::Admission.idx()] = ctx.admission_ns;
        trace.stages[Stage::QueueWait.idx()] = ctx.queue_ns;
        trace.stages[Stage::JournalAppend.idx()] = done.append_ns;
        trace.stages[Stage::Engine.idx()] = done.engine_ns;
        if let Some(cycle) = done.cycles.first() {
            let note = match cycle.kind {
                GcKind::HeapCollect => "heap collect (!gc)",
                GcKind::MonitorSweep => "full sweep (!sweep)",
            };
            self.flight.lock().expect("flight recorder poisoned").note(
                &self.name,
                FlightKind::GcCycle,
                done.engine_ns,
                note,
            );
        }
        // The line made it wire-to-trigger: close out its trace, and
        // publish, under the book's one lock.
        let mut book = self.shared.book();
        self.publish_into(&mut book.snap);
        if !done.fired.is_empty() {
            let t0 = Instant::now();
            for t in done.fired {
                book.triggers.push(t);
            }
            let push_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            trace.stages[Stage::TriggerDelivery.idx()] = done.trigger_ns + push_ns;
        }
        trace.at_ns = u64::try_from(self.shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        book.stages.record_trace(&trace);
        book.ring.push(trace);
        book.slo.record_request(trace.total_ns() / 1_000);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalWriter, AUX_OBJ, AUX_SPEC};

    const SPEC: &str = "\
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report \"improper Concurrent Modification found!\"; }
}
";

    fn temp_root(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rv-svc-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(root: &Path) -> ServiceConfig {
        ServiceConfig { root: root.to_path_buf(), ..ServiceConfig::default() }
    }

    /// Concatenates `u64 LE` fields and a trailing byte string — the
    /// `EVENT_SEQ` and `SYNC` payload layouts.
    fn fields(words: &[u64], tail: &[u8]) -> Vec<u8> {
        let mut p: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        p.extend_from_slice(tail);
        p
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        let line = fields(&[1, 1], b"create c1 i1");
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_EVENT_SEQ, &line).unwrap();
        write_frame(&mut buf, FRAME_SYNC, &fields(&[7, 1], b"")).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((FRAME_EVENT_SEQ, line)));
        assert_eq!(read_frame(&mut r).unwrap(), Some((FRAME_SYNC, fields(&[7, 1], b""))));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        // Torn length prefix is an error, not a hang or a bad parse.
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err());
        // Implausible length is rejected without allocating.
        let mut bogus: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(read_frame(&mut bogus).is_err());
    }

    #[test]
    fn hello_payload_round_trips() {
        let opts = TenantOptions { flags: TENANT_FLAG_PANIC_HANDLER, max_live_monitors: Some(8) };
        let p = encode_hello("tenant-a", SPEC, &opts);
        assert_eq!(
            p.len(),
            6 + "tenant-a\n".len() + SPEC.len(),
            "version, flags, limit, name, spec"
        );
        let (name, spec, got) = decode_hello(&p).unwrap();
        assert_eq!(name, "tenant-a");
        assert_eq!(spec, SPEC);
        assert_eq!(got, opts);
        assert!(decode_hello(&[HELLO_VERSION, 1, 2]).is_none(), "truncated HELLO");
        let mut old = p.clone();
        old[0] = HELLO_VERSION - 1;
        assert!(decode_hello(&old).is_none(), "another layout version");
    }

    #[test]
    fn content_token_is_pinned_and_ignores_surrounding_whitespace() {
        // rvmond's SIGHUP reload and `rvmonctl reload` must derive the
        // same token from the same file, release after release.
        assert_eq!(content_token("t", "spec"), 0x998b_ed1b_8811_2b5b);
        assert_eq!(content_token("t", "  spec\n"), content_token("t", "spec"));
        assert_ne!(content_token("u", "spec"), content_token("t", "spec"));
    }

    #[test]
    fn recovery_rejects_are_typed_and_spec_checks_precede_replay() {
        let root = temp_root("recover-rejects");
        let write = |name: &str, records: &[Record]| {
            let mut w = JournalWriter::create(&root.join(name)).unwrap();
            for r in records {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        };
        // A journaled spec that no longer compiles is a bad spec, which
        // clients treat as fatal, not a failed tenant they retry.
        write("stale", &[Record::Aux { tag: AUX_SPEC, bytes: b"spec X {".to_vec() }]);
        // A valid spec, then a record replay rejects.
        write(
            "torn",
            &[
                Record::Aux { tag: AUX_SPEC, bytes: SPEC.as_bytes().to_vec() },
                Record::Aux { tag: AUX_OBJ, bytes: vec![1, 2, 3] },
            ],
        );
        let svc = Service::new(config(&root)).unwrap();
        let (code, msg) = svc.admit("stale", "", TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_BAD_SPEC, "{msg}");
        // The mismatch is refused before replay reaches the bad record.
        let other = SPEC.replace("improper", "an improper");
        let (code, msg) = svc.admit("torn", &other, TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_SPEC_MISMATCH, "{msg}");
        let (code, msg) = svc.admit("torn", SPEC, TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_TENANT_FAILED, "{msg}");
        assert!(msg.contains("truncated AUX_OBJ"), "{msg}");
        let _ = svc.drain();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn admission_enforces_tenant_and_connection_caps() {
        let root = temp_root("admission");
        let svc = Service::new(ServiceConfig {
            max_tenants: 2,
            max_conns_per_tenant: 1,
            ..config(&root)
        })
        .unwrap();
        let (code, _) = svc.admit("bad name!", SPEC, TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_BAD_FRAME);
        let (code, _) = svc.admit("nospec", "", TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_BAD_FRAME, "fresh tenant without a spec");
        let (code, _) = svc.admit("badspec", "spec X {", TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_BAD_SPEC);

        svc.admit("a", SPEC, TenantOptions::default()).unwrap();
        svc.admit("b", SPEC, TenantOptions::default()).unwrap();
        let (code, _) = svc.admit("c", SPEC, TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_TOO_MANY_TENANTS);
        // Re-attach to an existing tenant is not an admission.
        svc.admit("a", SPEC, TenantOptions::default()).unwrap();

        let p1 = svc.connect("a").unwrap();
        let (code, _) = svc.connect("a").unwrap_err();
        assert_eq!(code, REJECT_TOO_MANY_CONNS);
        drop(p1);
        let _p2 = svc.connect("a").expect("slot freed by drop");
        assert!(svc.stats.tenants_rejected.load(Ordering::Relaxed) >= 4);
        let _ = svc.drain();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shed_backpressure_rejects_when_the_queue_is_full() {
        let root = temp_root("shed");
        let svc = Service::new(ServiceConfig {
            queue_depth: 2,
            backpressure: Backpressure::Shed,
            ..config(&root)
        })
        .unwrap();
        // A worker that sleeps ~2ms per line drains the depth-2 queue far
        // slower than a tight loop fills it, so the burst must shed.
        let opts = TenantOptions { flags: TENANT_FLAG_SLOW_WORKER, ..TenantOptions::default() };
        svc.admit("t", SPEC, opts).unwrap();
        // The cseq advances only on acceptance, as a client's resend
        // window does, so the accepted lines stay contiguous.
        let mut accepted = 0u64;
        let mut shed = 0u64;
        for _ in 0..16 {
            match svc.submit("t", 1, accepted + 1, "update c1", 0) {
                Ok(()) => accepted += 1,
                Err((code, msg)) => {
                    assert_eq!(code, REJECT_QUEUE_FULL, "{msg}");
                    shed += 1;
                }
            }
        }
        assert!(shed >= 1, "a full queue under Shed must reject");
        assert!(accepted >= 1, "the queue has capacity before it fills");
        assert_eq!(svc.stats.events_shed.load(Ordering::Relaxed), shed);
        // The queued lines flow and a barrier drains them.
        assert_eq!(svc.sync("t", 2, 1).unwrap(), (2, accepted));
        let snap = &svc.snapshots()[0];
        assert_eq!(snap.events, accepted, "every accepted event processed");
        assert_eq!(snap.shed_events, shed, "shed events are on the tenant's ledger");
        let _ = svc.drain();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn draining_service_rejects_new_work() {
        let root = temp_root("drainrej");
        let svc = Service::new(config(&root)).unwrap();
        svc.admit("t", SPEC, TenantOptions::default()).unwrap();
        svc.submit("t", 1, 1, "create c1 i1", 0).unwrap();
        let drained = svc.drain();
        assert_eq!(drained, 1);
        let (code, _) = svc.admit("u", SPEC, TenantOptions::default()).unwrap_err();
        assert_eq!(code, REJECT_DRAINING);
        let (code, _) = svc.submit("t", 1, 2, "update c1", 0).unwrap_err();
        assert_eq!(code, REJECT_DRAINING);
        assert!(svc.healthz().starts_with("draining\n"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn serve_connection_speaks_the_wire_protocol() {
        // An in-memory duplex: requests pre-encoded, responses captured.
        let root = temp_root("wire");
        let svc = Service::new(config(&root)).unwrap();
        let mut requests = Vec::new();
        write_frame(
            &mut requests,
            FRAME_HELLO,
            &encode_hello("t", SPEC, &TenantOptions::default()),
        )
        .unwrap();
        for (cseq, line) in (1..).zip(["create c1 i1", "update c1", "next i1"]) {
            write_frame(&mut requests, FRAME_EVENT_SEQ, &fields(&[5, cseq], line.as_bytes()))
                .unwrap();
        }
        write_frame(&mut requests, FRAME_SYNC, &fields(&[9, 5], b"")).unwrap();
        write_frame(&mut requests, FRAME_STATS, &[]).unwrap();
        write_frame(&mut requests, FRAME_BYE, &[]).unwrap();

        struct Duplex<'a> {
            input: &'a [u8],
            output: Vec<u8>,
        }
        impl Read for Duplex<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut stream = Duplex { input: &requests, output: Vec::new() };
        serve_connection(&svc, &mut stream).unwrap();

        let mut out = &stream.output[..];
        let (kind, payload) = read_frame(&mut out).unwrap().unwrap();
        assert_eq!((kind, payload.as_slice()), (FRAME_OK, b"t".as_slice()));
        let (kind, payload) = read_frame(&mut out).unwrap().unwrap();
        assert_eq!(kind, FRAME_SYNCED);
        assert_eq!(payload, fields(&[9, 3], b""), "token, then session 5's HWM");
        let (kind, payload) = read_frame(&mut out).unwrap().unwrap();
        assert_eq!(kind, FRAME_STATS_REPLY);
        let json = String::from_utf8(payload).unwrap();
        assert!(json.contains("\"events\":3"), "{json}");
        assert!(json.contains("\"triggers\":1"), "{json}");
        assert_eq!(read_frame(&mut out).unwrap(), None, "BYE closes cleanly");

        // A frame before HELLO is a typed reject on a fresh connection.
        let mut bad = Vec::new();
        write_frame(&mut bad, FRAME_EVENT_SEQ, &fields(&[5, 1], b"create c1 i1")).unwrap();
        let mut stream = Duplex { input: &bad, output: Vec::new() };
        serve_connection(&svc, &mut stream).unwrap();
        let mut out = &stream.output[..];
        let (kind, payload) = read_frame(&mut out).unwrap().unwrap();
        assert_eq!(kind, FRAME_REJECT);
        let code = u16::from_le_bytes(payload[..2].try_into().unwrap());
        assert_eq!(code, REJECT_BAD_FRAME);
        let _ = svc.drain();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn healthz_and_prometheus_cover_every_tenant() {
        let root = temp_root("obs");
        let svc = Service::new(config(&root)).unwrap();
        svc.admit("alpha", SPEC, TenantOptions::default()).unwrap();
        svc.admit("beta", SPEC, TenantOptions::default()).unwrap();
        for (cseq, line) in (1..).zip(["create c1 i1", "update c1", "next i1"]) {
            svc.submit("alpha", 1, cseq, line, 0).unwrap();
        }
        svc.sync("alpha", 0, 1).unwrap();
        let health = svc.healthz();
        assert!(health.starts_with("ok\nversion "), "{health}");
        assert!(health.contains("\ntenants 2\n"), "{health}");
        assert!(health.lines().any(|l| l.starts_with("uptime_s ")), "{health}");
        assert!(health.contains("tenant alpha state=running events=3 triggers=1"), "{health}");
        assert!(health.contains("tenant beta state=running events=0"), "{health}");
        assert!(health.contains("slo alpha "), "{health}");
        assert!(health.contains("slo beta "), "{health}");
        let expo = svc.prometheus();
        assert!(expo.contains("rvmond_tenant_events_total{tenant=\"alpha\"} 3"), "{expo}");
        assert!(expo.contains("rvmond_tenant_events_total{tenant=\"beta\"} 0"), "{expo}");
        assert!(expo.contains("# TYPE rvmond_events_submitted_total counter"), "{expo}");
        assert!(expo.contains("rvmond_build_info{version="), "{expo}");
        assert!(expo.contains("rvmond_uptime_seconds "), "{expo}");
        assert!(
            expo.contains(
                "rvmond_slo_error_budget_remaining{tenant=\"alpha\",objective=\"latency\"}"
            ),
            "{expo}"
        );
        assert!(
            expo.contains("rvmond_stage_events_total{tenant=\"alpha\",stage=\"engine\"} 3"),
            "{expo}"
        );
        crate::expo::lint::lint_exposition(&expo);
        let _ = svc.drain();
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The build commit comes from the build environment, so its label
    /// value is escaped like any other: a quote or newline in it must not
    /// break the exposition.
    #[test]
    fn build_info_label_values_are_escaped() {
        let root = temp_root("build-info");
        let svc = Service::new(ServiceConfig {
            version: "0.1.0".to_owned(),
            commit: "a\"b\nc".to_owned(),
            ..config(&root)
        })
        .unwrap();
        let expo = svc.prometheus();
        assert!(
            expo.contains("rvmond_build_info{version=\"0.1.0\",commit=\"a\\\"b\\nc\"} 1\n"),
            "{expo}"
        );
        crate::expo::lint::lint_exposition(&expo);
        let _ = svc.drain();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
