//! Spec-driven monitoring: one [`PropertyMonitor`] runs every property
//! block of a compiled spec over a shared event stream.
//!
//! Figure 2 shows a single spec carrying both an FSM and an LTL rendition
//! of HASNEXT; at runtime each block gets its own [`Engine`], all fed the
//! same parametric events. The "ALL" column of Figure 9 (five specs
//! monitored simultaneously) is the same idea one level up, dispatching by
//! spec in `rv-bench`.

use rv_heap::Heap;
use rv_logic::{AnyFormalism, EventId};
use rv_spec::CompiledSpec;

use crate::binding::Binding;
use crate::engine::{Engine, EngineConfig};
use crate::error::EngineError;
use crate::obs::{EngineObserver, NoopObserver};
use crate::service::TriggerRecord;
use crate::stats::EngineStats;

/// Monitors every property block of one compiled spec.
///
/// Generic over the per-engine [`EngineObserver`] (no-op by default);
/// attach real observers with [`PropertyMonitor::with_observers`].
#[derive(Debug)]
pub struct PropertyMonitor<O: EngineObserver = NoopObserver> {
    spec: CompiledSpec,
    engines: Vec<Engine<AnyFormalism, O>>,
}

impl PropertyMonitor {
    /// Builds engines for each property block of `spec`.
    #[must_use]
    pub fn new(spec: CompiledSpec, config: &EngineConfig) -> Self {
        PropertyMonitor::with_observers(spec, config, |_| NoopObserver)
    }
}

impl<O: EngineObserver> PropertyMonitor<O> {
    /// Builds engines for each property block of `spec`, attaching the
    /// observer `make(i)` to the engine of block `i`.
    #[must_use]
    pub fn with_observers(
        spec: CompiledSpec,
        config: &EngineConfig,
        mut make: impl FnMut(usize) -> O,
    ) -> Self {
        let engines = spec
            .properties
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Engine::with_observer(
                    p.formalism.clone(),
                    spec.event_def.clone(),
                    p.goal,
                    config.clone(),
                    make(i),
                )
            })
            .collect();
        PropertyMonitor { spec, engines }
    }

    /// The compiled spec.
    #[must_use]
    pub fn spec(&self) -> &CompiledSpec {
        &self.spec
    }

    /// The per-block engines.
    #[must_use]
    pub fn engines(&self) -> &[Engine<AnyFormalism, O>] {
        &self.engines
    }

    /// Mutable access to the per-block engines (e.g. to reach observers).
    #[must_use]
    pub fn engines_mut(&mut self) -> &mut [Engine<AnyFormalism, O>] {
        &mut self.engines
    }

    /// Looks up an event id by name.
    #[must_use]
    pub fn event(&self, name: &str) -> Option<EventId> {
        self.spec.alphabet.lookup(name)
    }

    /// Dispatches one parametric event to every block's engine.
    ///
    /// Never panics: each engine's infallible [`Engine::process`] facade
    /// drops malformed events and remembers the typed error — inspect it
    /// with [`PropertyMonitor::last_error`], or use
    /// [`PropertyMonitor::try_process`] for per-event failure reporting.
    pub fn process(&mut self, heap: &Heap, event: EventId, binding: Binding) {
        for engine in &mut self.engines {
            engine.process(heap, event, binding);
        }
    }

    /// The first swallowed error across the blocks' infallible
    /// [`Engine::process`] facades, if any.
    #[must_use]
    pub fn last_error(&self) -> Option<&EngineError> {
        self.engines.iter().find_map(Engine::last_error)
    }

    /// Dispatches one parametric event to every block's engine, stopping
    /// at the first engine error.
    ///
    /// # Errors
    ///
    /// The first [`EngineError`] any block reports.
    pub fn try_process(
        &mut self,
        heap: &Heap,
        event: EventId,
        binding: Binding,
    ) -> Result<(), EngineError> {
        for engine in &mut self.engines {
            engine.try_process(heap, event, binding)?;
        }
        Ok(())
    }

    /// Dispatches one event like [`PropertyMonitor::try_process`] and
    /// returns the goal reports it fired, keyed for exactly-once delivery:
    /// `event_seq` is the journal sequence of the firing record, and the
    /// ordinal counts this event's reports across blocks, in block order.
    /// Reports are recorded only with `EngineConfig::record_triggers` on.
    ///
    /// # Errors
    ///
    /// The first [`EngineError`] any block reports.
    pub fn process_keyed(
        &mut self,
        heap: &Heap,
        event: EventId,
        binding: Binding,
        event_seq: u64,
    ) -> Result<Vec<TriggerRecord>, EngineError> {
        let mut fired = Vec::new();
        for (block, engine) in self.engines.iter_mut().enumerate() {
            let before = engine.triggers().len();
            engine.try_process(heap, event, binding)?;
            for t in &engine.triggers()[before..] {
                fired.push(TriggerRecord {
                    event_seq,
                    ordinal: fired.len() as u32,
                    block: block as u16,
                    step: t.step as u64,
                    verdict: t.verdict,
                    binding: t.binding,
                });
            }
        }
        Ok(fired)
    }

    /// Convenience: dispatches by event name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared event of the spec.
    pub fn process_named(&mut self, heap: &Heap, name: &str, binding: Binding) {
        let event = self
            .event(name)
            .unwrap_or_else(|| panic!("spec `{}` has no event `{name}`", self.spec.name));
        self.process(heap, event, binding);
    }

    /// Total goal reports across all blocks.
    #[must_use]
    pub fn triggers(&self) -> u64 {
        self.engines.iter().map(|e| e.stats().triggers).sum()
    }

    /// Aggregated statistics across all blocks.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for e in &self.engines {
            total.merge_from(&e.stats());
        }
        total
    }

    /// Estimated bytes across all engines (Fig. 9B metric).
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.engines.iter().map(Engine::estimated_bytes).sum()
    }

    /// Final sweep over all engines.
    pub fn finish(&mut self, heap: &Heap) {
        for e in &mut self.engines {
            e.finish(heap);
        }
    }

    /// Drains the heap's completed-collection log into the *first* block's
    /// observer (the heap is shared by all blocks, so forwarding to every
    /// engine would multiply each cycle by the block count).
    pub fn observe_heap_cycles(&mut self, heap: &mut rv_heap::Heap) {
        if let Some(first) = self.engines.first_mut() {
            first.observe_heap_cycles(heap);
        }
    }

    /// Serializes every block's engine into one checkpoint payload:
    /// `[block count u32][per block: payload length u64 + payload]`.
    ///
    /// Returns `None` if any engine holds a monitor state its formalism
    /// cannot serialize.
    #[must_use]
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        crate::snapshot::put_u32(&mut out, u32::try_from(self.engines.len()).ok()?);
        for e in &self.engines {
            let payload = e.snapshot_bytes()?;
            crate::snapshot::put_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
        Some(out)
    }

    /// Restores every block's engine from a [`snapshot_bytes`] payload.
    ///
    /// The monitor must have been built from the same compiled spec; a
    /// mismatched block count or any per-engine decode failure yields
    /// [`EngineError::CorruptSnapshot`] and leaves already-restored blocks
    /// as they are (callers recover by rebuilding the monitor).
    ///
    /// [`snapshot_bytes`]: Self::snapshot_bytes
    pub fn restore_snapshot(&mut self, bytes: &[u8], file: &str) -> Result<(), EngineError> {
        let mut c = crate::snapshot::Cursor::new(bytes);
        let corrupt = |detail: &str| EngineError::CorruptSnapshot {
            file: file.to_owned(),
            detail: detail.to_owned(),
        };
        let blocks = c.u32().ok_or_else(|| corrupt("missing block count"))? as usize;
        if blocks != self.engines.len() {
            return Err(corrupt("block count does not match the compiled spec"));
        }
        for (i, e) in self.engines.iter_mut().enumerate() {
            let len = c.u64().ok_or_else(|| corrupt("missing engine payload length"))? as usize;
            let payload = c.take(len).ok_or_else(|| corrupt("short engine payload"))?;
            e.restore_snapshot(payload, &format!("{file}#block{i}"))?;
        }
        if !c.finished() {
            return Err(corrupt("trailing bytes after final engine payload"));
        }
        Ok(())
    }

    /// Structural invariant check over every block (recovery acceptance
    /// gate).
    pub fn check_invariants(&self, heap: &Heap) -> Result<(), EngineError> {
        for e in &self.engines {
            e.check_invariants(heap)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use rv_heap::HeapConfig;
    use rv_logic::ParamId;

    fn has_next_monitor() -> PropertyMonitor {
        let spec = rv_spec::CompiledSpec::from_source(
            r#"HasNext(Iterator i) {
                event hasnexttrue(i);
                event hasnextfalse(i);
                event next(i);
                fsm:
                    unknown [ hasnexttrue -> more  hasnextfalse -> none  next -> error ]
                    more [ hasnexttrue -> more  next -> unknown ]
                    none [ hasnextfalse -> none  next -> error ]
                    error []
                @error { report "bad"; }
                ltl: [](next => (*) hasnexttrue)
                @violation { report "bad"; }
            }"#,
        )
        .unwrap();
        PropertyMonitor::new(
            spec,
            &EngineConfig { record_triggers: true, ..EngineConfig::default() },
        )
    }

    #[test]
    fn both_blocks_fire_on_the_same_violation() {
        let mut m = has_next_monitor();
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("It");
        let _f = heap.enter_frame();
        let it = heap.alloc(cls);
        let b = Binding::from_pairs(&[(ParamId(0), it)]);
        m.process_named(&heap, "hasnexttrue", b);
        m.process_named(&heap, "next", b);
        m.process_named(&heap, "next", b);
        assert_eq!(m.triggers(), 2, "FSM @error and LTL @violation");
        assert_eq!(m.engines().len(), 2);
        let stats = m.stats();
        assert_eq!(stats.events, 6, "each block sees every event");
        assert_eq!(stats.triggers, 2);
        assert!(m.estimated_bytes() > 0);
    }

    #[test]
    fn event_lookup_by_name() {
        let m = has_next_monitor();
        assert!(m.event("next").is_some());
        assert!(m.event("absent").is_none());
        assert_eq!(m.spec().name, "HasNext");
    }

    #[test]
    #[should_panic(expected = "has no event `zap`")]
    fn process_named_rejects_unknown_events() {
        let mut m = has_next_monitor();
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("It");
        let _f = heap.enter_frame();
        let it = heap.alloc(cls);
        m.process_named(&heap, "zap", Binding::from_pairs(&[(ParamId(0), it)]));
    }

    #[test]
    fn snapshot_round_trips_across_all_blocks() {
        let mut m = has_next_monitor();
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("It");
        let _f = heap.enter_frame();
        let it = heap.alloc(cls);
        let b = Binding::from_pairs(&[(ParamId(0), it)]);
        m.process_named(&heap, "hasnexttrue", b);
        m.process_named(&heap, "next", b);
        let bytes = m.snapshot_bytes().expect("serializable");

        let mut restored = has_next_monitor();
        restored.restore_snapshot(&bytes, "mem").unwrap();
        assert_eq!(restored.stats(), m.stats());
        assert_eq!(restored.snapshot_bytes().unwrap(), bytes, "round-trip is byte-identical");
        restored.check_invariants(&heap).unwrap();

        // Both copies must continue identically — modulo cache_hits, since a
        // restore deliberately starts with a cold lookup cache.
        m.process_named(&heap, "next", b);
        restored.process_named(&heap, "next", b);
        assert_eq!(restored.triggers(), m.triggers());
        let (mut a, mut e) = (restored.stats(), m.stats());
        a.cache_hits = 0;
        e.cache_hits = 0;
        assert_eq!(a, e);

        // Corrupt payloads are rejected with a typed error.
        let err = restored.restore_snapshot(&bytes[..3], "cut").unwrap_err();
        assert!(matches!(err, EngineError::CorruptSnapshot { .. }), "{err}");
    }

    #[test]
    fn finish_sweeps_every_block() {
        let mut m = has_next_monitor();
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("It");
        let _outer = heap.enter_frame();
        for _ in 0..10 {
            let inner = heap.enter_frame();
            let it = heap.alloc(cls);
            let b = Binding::from_pairs(&[(ParamId(0), it)]);
            m.process_named(&heap, "hasnexttrue", b);
            m.process_named(&heap, "next", b);
            heap.exit_frame(inner);
        }
        heap.collect();
        m.finish(&heap);
        let stats = m.stats();
        assert_eq!(stats.live_monitors, 0, "{stats}");
        assert_eq!(stats.monitors_collected, stats.monitors_created);
    }
}
