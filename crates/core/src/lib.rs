//! The parametric runtime monitoring engine — the core of the PLDI'11 RV
//! reproduction.
//!
//! This crate implements, on top of the [`rv_heap`] managed-heap substrate
//! and the [`rv_logic`] formalism plugins:
//!
//! * parameter instances and their lattice ([`Binding`], Definitions 3–5);
//! * the paper's Figure 5 abstract algorithm as a reference oracle
//!   ([`reference::monitor_trace`]);
//! * the production engine ([`Engine`]) with the §4 machinery — weak-keyed
//!   indexing trees ([`trees::RvMap`], Figure 6), lazy dead-key expunging
//!   with monitor notification (Figure 7), set compaction (Figure 8),
//!   enable-set monitor creation, and the three monitor-GC policies the
//!   evaluation compares ([`GcPolicy`]);
//! * per-property statistics matching Figure 10 ([`EngineStats`]);
//! * a multi-property dispatcher ([`multi::PropertyMonitor`]) used for the
//!   spec-driven path and the "ALL" experiment.
//!
//! # Example
//!
//! ```
//! use rv_core::{Binding, Engine, EngineConfig, GcPolicy};
//! use rv_heap::{Heap, HeapConfig};
//! use rv_logic::ere::unsafe_iter_ere;
//! use rv_logic::{Alphabet, EventDef, GoalSet, ParamId, ParamSet};
//!
//! // Compile UnsafeIter and monitor one collection/iterator pair.
//! let alphabet = Alphabet::from_names(&["create", "update", "next"]);
//! let dfa = unsafe_iter_ere(&alphabet).compile(&alphabet, 1_000)?;
//! let (c, i) = (ParamId(0), ParamId(1));
//! let def = EventDef::new(
//!     &alphabet,
//!     &["c", "i"],
//!     vec![ParamSet::singleton(c).with(i), ParamSet::singleton(c), ParamSet::singleton(i)],
//! );
//! let mut engine = Engine::new(dfa, def, GoalSet::MATCH, EngineConfig {
//!     record_triggers: true,
//!     ..EngineConfig::default()
//! });
//!
//! let mut heap = Heap::new(HeapConfig::manual());
//! let cls = heap.register_class("Obj");
//! let frame = heap.enter_frame();
//! let coll = heap.alloc(cls);
//! let iter = heap.alloc(cls);
//! let ev = |n: &str| alphabet.lookup(n).unwrap();
//! engine.process(&heap, ev("create"), Binding::from_pairs(&[(c, coll), (i, iter)]));
//! engine.process(&heap, ev("update"), Binding::from_pairs(&[(c, coll)]));
//! engine.process(&heap, ev("next"), Binding::from_pairs(&[(i, iter)]));
//! assert_eq!(engine.stats().triggers, 1, "unsafe iteration detected");
//! heap.exit_frame(frame);
//! # Ok::<(), rv_logic::ere::EreError>(())
//! ```

#![forbid(unsafe_code)]

pub mod binding;
pub mod chaos;
pub mod client;
pub mod crashtest;
pub mod engine;
pub mod error;
pub mod expo;
pub mod flight;
pub mod ingest;
pub mod journal;
pub mod line;
pub mod multi;
pub mod netchaos;
pub mod obs;
pub mod profile;
pub mod recover;
pub mod reference;
pub mod service;
pub mod slo;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod trees;

pub use crate::binding::{Binding, BindingHash, MAX_PARAMS};
pub use crate::chaos::{run_block, ChaosOutcome};
pub use crate::client::{ClientStats, ReconnectPolicy, ResilientClient};
pub use crate::crashtest::{crash_and_recover, CrashOutcome, KillClass};
pub use crate::engine::{BudgetKind, DegradationPolicy, Engine, EngineConfig, GcPolicy};
pub use crate::error::EngineError;
pub use crate::flight::{
    render_dump, FlightDump, FlightEvent, FlightKind, FlightRecorder, RequestTrace,
    RequestTraceRing, Stage, StageStats, STAGE_COUNT,
};
pub use crate::ingest::{Ingest, JournaledMonitor, WriteError, DEFAULT_CHECKPOINT_EVERY};
pub use crate::journal::{
    is_transient, read_journal, FailingWriter, JournalScan, JournalStats, JournalWriter, Record,
    RetryPolicy, SeqRecord, Truncation,
};
pub use crate::line::{Line, LineError, ObjectTable};
pub use crate::multi::PropertyMonitor;
pub use crate::netchaos::{ChaosProfile, ChaosProxy, ChaosStats};
pub use crate::obs::{
    mmu, mmu_curve, EngineObserver, FlagCause, GcCycleRecord, GcKind, GcReason, Histogram,
    MetricsRegistry, NoopObserver, Phase, TraceKind, TraceRecord, TraceRecorder,
};
pub use crate::profile::{
    chrome_trace_json, prometheus_text, InstanceRecord, PhaseProfiler, ProvenanceLedger,
    ProvenanceSummary, SpanLog, TimelineSpan,
};
pub use crate::recover::{recover, RecoverError, Recovered, ReplayFrom};
pub use crate::reference::{monitor_trace, ReferenceRun, Trigger};
pub use crate::service::{
    content_token, encode_frame, read_frame, read_frame_timed, serve_connection, write_frame,
    Backpressure, ConnPermit, Service, ServiceConfig, ServiceStats, SupervisorConfig,
    TenantOptions, TenantSnapshot, TenantState, TriggerLog, TriggerRecord,
};
pub use crate::slo::{Objective, ObjectiveSnapshot, SloConfig, SloSnapshot, SloTracker};
pub use crate::snapshot::{
    load_latest_checkpoint, plan_recovery, write_checkpoint, Checkpoint, Recovery,
};
pub use crate::stats::EngineStats;
pub use crate::store::{MonitorId, MonitorStore};
