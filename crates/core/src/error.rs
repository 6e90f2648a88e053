//! Typed, recoverable errors for the monitoring engine.
//!
//! The engine originally panicked on internal inconsistencies (a missing
//! indexing tree, a stale monitor id). For the ROADMAP's "production-scale
//! system serving heavy traffic" those must be *recoverable*: a monitoring
//! layer that can take the monitored program down is worse than no
//! monitoring at all. [`EngineError`] is the error type of the fallible
//! engine API ([`Engine::try_process`](crate::Engine::try_process),
//! [`Engine::check_invariants`](crate::Engine::check_invariants)); the
//! legacy panicking entry points are thin wrappers over it.

use std::fmt;

use rv_logic::{EventId, ParamSet};

use crate::store::MonitorId;

/// An internal engine failure surfaced as a recoverable error instead of a
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// An event instance was not `D`-consistent (Definition 4): the
    /// binding's domain differs from the event's declared parameter set.
    InconsistentEvent {
        /// The dispatched event.
        event: EventId,
        /// The parameter set `D(e)` the event declares.
        expected: ParamSet,
        /// The domain of the binding actually supplied.
        got: ParamSet,
    },
    /// The event id lies outside the property's alphabet.
    EventOutOfAlphabet(EventId),
    /// A monitor id referenced by an indexing structure was already
    /// collected.
    StaleMonitor(MonitorId),
    /// A named event does not belong to the spec (the fallible face of
    /// [`PropertyMonitor::process_named`](crate::PropertyMonitor::process_named)).
    UnknownEvent(String),
    /// A store/tree/stats consistency invariant failed
    /// ([`Engine::check_invariants`](crate::Engine::check_invariants)).
    InvariantViolation(String),
    /// A write-ahead journal artifact is unusable: bad magic, a stale
    /// format version, or corruption at a point recovery cannot skip
    /// (e.g. the spec header record). Torn *tails* are not errors — the
    /// recovery reader truncates them — so this fires only when the head
    /// of the log is gone.
    CorruptJournal {
        /// The offending journal segment (or the journal directory).
        file: String,
        /// Byte offset of the corruption within that file.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint file failed validation (magic/version/CRC/decode) —
    /// reported when recovery has no older generation to fall back to,
    /// or when a caller asked for this checkpoint specifically.
    CorruptSnapshot {
        /// The offending checkpoint file.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// A shard worker thread of a [`ShardedMonitor`] hung up its channel —
    /// it either panicked or was torn down early. Events routed to that
    /// shard after the disconnect are lost.
    ///
    /// [`ShardedMonitor`]: crate::shard::ShardedMonitor
    ShardDisconnected {
        /// Index of the shard whose worker disconnected.
        shard: usize,
    },
    /// A journal append failed persistently: every retry the
    /// [`RetryPolicy`](crate::journal::RetryPolicy) allowed was spent (or
    /// the failure was non-transient to begin with). The on-disk journal
    /// is still a valid durable prefix — the writer repairs its tail
    /// before reporting — but the record was not appended.
    Journal {
        /// The active journal segment at failure time.
        file: String,
        /// Write attempts made (1 = the failure was immediately fatal).
        attempts: u32,
        /// The underlying IO error.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InconsistentEvent { event, expected, got } => write!(
                f,
                "event e{} is not D-consistent: expected domain {expected:?}, got {got:?}",
                event.as_usize()
            ),
            EngineError::EventOutOfAlphabet(e) => {
                write!(f, "event e{} is outside the property's alphabet", e.as_usize())
            }
            EngineError::StaleMonitor(id) => {
                write!(f, "monitor #{} was already collected", id.as_usize())
            }
            EngineError::UnknownEvent(name) => write!(f, "unknown event `{name}`"),
            EngineError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            EngineError::CorruptJournal { file, offset, detail } => {
                write!(f, "corrupt journal: {file} at byte {offset}: {detail}")
            }
            EngineError::CorruptSnapshot { file, detail } => {
                write!(f, "corrupt snapshot: {file}: {detail}")
            }
            EngineError::ShardDisconnected { shard } => {
                write!(f, "shard {shard} worker disconnected")
            }
            EngineError::Journal { file, attempts, detail } => {
                write!(f, "journal append failed after {attempts} attempt(s) on {file}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = EngineError::UnknownEvent("zap".into());
        assert_eq!(e.to_string(), "unknown event `zap`");
        let e = EngineError::InvariantViolation("live != created - collected".into());
        assert!(e.to_string().contains("invariant violation"));
        let e = EngineError::EventOutOfAlphabet(EventId(9));
        assert!(e.to_string().contains("e9"));
    }

    #[test]
    fn durability_errors_carry_file_and_offset_context() {
        let e = EngineError::CorruptJournal {
            file: "journal-00000000".into(),
            offset: 17,
            detail: "bad magic".into(),
        };
        let s = e.to_string();
        assert!(s.contains("journal-00000000") && s.contains("byte 17") && s.contains("bad magic"));
        let e = EngineError::CorruptSnapshot {
            file: "checkpoint-00000002".into(),
            detail: "CRC mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("checkpoint-00000002") && s.contains("CRC mismatch"));
        let e = EngineError::Journal {
            file: "journal-00000003".into(),
            attempts: 5,
            detail: "injected transient fault".into(),
        };
        let s = e.to_string();
        assert!(s.contains("journal-00000003") && s.contains("5 attempt"), "{s}");
    }
}
