//! The specialized weak-keyed indexing structures of §4: `RVMap` and
//! `RVSet`.
//!
//! An [`RvMap`] maps (partial) parameter instances to values — monitor ids
//! in the exact-instance tables, monitor sets in the indexing trees of
//! Figure 6. Keys hold their objects weakly: whenever an operation (`get`,
//! `insert`, or an explicit maintenance tick) runs, the map *expunges* a
//! bounded window of entries, looking for keys whose referents were
//! garbage collected; each dead key first *notifies* the engine about the
//! value beneath it (Figure 7 A — so monitor instances can evaluate their
//! ALIVENESS) and is then unlinked (Figure 7 B).
//!
//! An [`RvSet`] is a monitor-instance set supporting the one-pass
//! compaction of Figure 8: members flagged unnecessary or terminated are
//! dropped whenever the set is touched.

use std::collections::HashMap;

use rv_heap::Heap;

use crate::binding::{Binding, BindingHash};
use crate::store::{MonitorId, MonitorStore};

/// Maintenance callbacks invoked while an [`RvMap`] scans its entries
/// (§5.1.1: "whenever an RVMap looks for keys with null referents it also
/// checks the values of mappings which do not have null referents").
pub trait Maintainer<V> {
    /// A key's referent died: the entry has been unlinked; `value` is the
    /// orphaned subtree (notify the monitors below it — Figure 7).
    fn on_dead(&mut self, key: Binding, value: V);

    /// A live-keyed entry was scanned; return `true` to drop the entry
    /// (e.g. a flagged monitor instance or an emptied set).
    fn on_live(&mut self, key: &Binding, value: &mut V) -> bool {
        let _ = (key, value);
        false
    }
}

/// A [`Maintainer`] from a dead-key closure, with no live-entry action
/// (convenient in tests and simple maps).
#[derive(Debug)]
pub struct DeadOnly<F>(pub F);

impl<V, F: FnMut(Binding, V)> Maintainer<V> for DeadOnly<F> {
    fn on_dead(&mut self, key: Binding, value: V) {
        (self.0)(key, value);
    }
}

/// How many entries an operation inspects for dead keys. The paper's
/// RVMap "looks through a subset of its entries" on every access; a small
/// constant window amortizes the scan without latency spikes.
pub const DEFAULT_EXPUNGE_WINDOW: usize = 4;

/// A hash map from parameter instances to `V`, with weak keys and lazy
/// expunging.
#[derive(Debug)]
pub struct RvMap<V> {
    map: HashMap<Binding, V, BindingHash>,
    /// Ring of keys for incremental scanning. May contain stale keys
    /// (already removed); checked against `map` before acting.
    ring: Vec<Binding>,
    cursor: usize,
    window: usize,
}

impl<V> Default for RvMap<V> {
    fn default() -> Self {
        RvMap::new()
    }
}

impl<V> RvMap<V> {
    /// An empty map with the default expunge window.
    #[must_use]
    pub fn new() -> Self {
        RvMap {
            map: HashMap::default(),
            ring: Vec::new(),
            cursor: 0,
            window: DEFAULT_EXPUNGE_WINDOW,
        }
    }

    /// Overrides the expunge window (0 disables lazy expunging).
    pub fn set_window(&mut self, window: usize) {
        self.window = window;
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key` without maintenance (used by read-only paths).
    #[must_use]
    pub fn peek(&self, key: &Binding) -> Option<&V> {
        self.map.get(key)
    }

    /// Looks up `key`, first expunging a window of entries. Dead entries
    /// are passed to the maintainer before removal; live entries may be
    /// compacted or dropped by it.
    pub fn get_mut(
        &mut self,
        heap: &Heap,
        key: Binding,
        maintainer: &mut impl Maintainer<V>,
    ) -> Option<&mut V> {
        self.expunge(heap, self.window, maintainer);
        self.map.get_mut(&key)
    }

    /// Inserts a mapping, first expunging a window of entries. Returns the
    /// previous value for the key, if any.
    pub fn insert(
        &mut self,
        heap: &Heap,
        key: Binding,
        value: V,
        maintainer: &mut impl Maintainer<V>,
    ) -> Option<V> {
        self.expunge(heap, self.window, maintainer);
        let prev = self.map.insert(key, value);
        if prev.is_none() {
            self.ring.push(key);
        }
        prev
    }

    /// Removes a mapping directly (no notification).
    pub fn remove(&mut self, key: &Binding) -> Option<V> {
        self.map.remove(key)
    }

    /// Scans up to `n` ring slots: dead-keyed entries are unlinked and
    /// passed to the maintainer (Figure 7); live-keyed entries are offered
    /// for value maintenance (set compaction / flagged-monitor removal,
    /// §5.1.1 and Figure 8). Also compacts the ring when it has grown far
    /// beyond the live map.
    pub fn expunge(&mut self, heap: &Heap, n: usize, maintainer: &mut impl Maintainer<V>) {
        if self.ring.is_empty() {
            return;
        }
        for _ in 0..n.min(self.ring.len()) {
            if self.cursor >= self.ring.len() {
                self.cursor = 0;
            }
            let key = self.ring[self.cursor];
            self.cursor += 1;
            let Some(value) = self.map.get_mut(&key) else {
                continue; // stale ring slot
            };
            let dead = key.iter().any(|(_, obj)| !heap.is_alive(obj));
            if dead {
                // invariant: the `get_mut` above proved `key` present and
                // nothing has touched the map since, so the remove yields
                // the value; the checked form avoids a panic path anyway.
                debug_assert!(self.map.contains_key(&key), "key vanished mid-expunge");
                if let Some(value) = self.map.remove(&key) {
                    maintainer.on_dead(key, value);
                }
            } else if maintainer.on_live(&key, value) {
                self.map.remove(&key);
            }
        }
        if self.ring.len() > 32 && self.ring.len() > self.map.len() * 2 {
            self.ring.retain(|k| self.map.contains_key(k));
            self.cursor = 0;
        }
    }

    /// Runs maintenance over *every* entry (used by safepoint sweeps). Entries are visited in binding
    /// order: hash order would make the release order — and therefore
    /// slot reuse and snapshot bytes — vary between identical runs, which
    /// the crash sweep's differential checks cannot tolerate.
    pub fn expunge_all(&mut self, heap: &Heap, maintainer: &mut impl Maintainer<V>) {
        let mut keys: Vec<Binding> = self.map.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            if key.iter().any(|(_, obj)| !heap.is_alive(obj)) {
                if let Some(value) = self.map.remove(&key) {
                    maintainer.on_dead(key, value);
                }
            } else if let Some(value) = self.map.get_mut(&key) {
                if maintainer.on_live(&key, value) {
                    self.map.remove(&key);
                }
            }
        }
        self.ring.retain(|k| self.map.contains_key(k));
        self.cursor = 0;
    }

    /// Iterates over live entries (no maintenance).
    pub fn iter(&self) -> impl Iterator<Item = (&Binding, &V)> {
        self.map.iter()
    }

    /// Drains the map, yielding every value (no notification).
    pub fn drain(&mut self) -> impl Iterator<Item = (Binding, V)> + '_ {
        self.ring.clear();
        self.cursor = 0;
        self.map.drain()
    }

    /// Estimated heap bytes held by the map's live entries (the Fig. 9B
    /// metric counts retained content, not allocator capacity).
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.map.len() * (std::mem::size_of::<Binding>() + std::mem::size_of::<V>())
            + self.ring.len() * std::mem::size_of::<Binding>()
    }

    // --- Snapshot access (crate-internal) --------------------------------
    //
    // The ring and cursor are serialized *verbatim*: they determine which
    // entries future accesses will expunge, so restoring them exactly is
    // what makes a recovered run's flag/collect schedule — and therefore
    // its FM/CM statistics — match the uninterrupted one.

    /// The expunge-schedule state: `(window, cursor, ring)`.
    pub(crate) fn snapshot_schedule(&self) -> (usize, usize, &[Binding]) {
        (self.window, self.cursor, &self.ring)
    }

    /// The live entries, in hash order (snapshot encoders sort them).
    pub(crate) fn snapshot_entries(&self) -> &HashMap<Binding, V, BindingHash> {
        &self.map
    }

    /// Replaces the map's state wholesale (restore path).
    pub(crate) fn restore_parts(
        &mut self,
        window: usize,
        cursor: usize,
        ring: Vec<Binding>,
        entries: Vec<(Binding, V)>,
    ) {
        self.map = entries.into_iter().collect();
        self.ring = ring;
        self.cursor = cursor;
        self.window = window;
    }
}

/// A set of monitor instances with Figure 8 compaction.
#[derive(Debug, Default, Clone)]
pub struct RvSet {
    members: Vec<MonitorId>,
}

impl RvSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        RvSet::default()
    }

    /// A set with a single member.
    #[must_use]
    pub fn singleton(id: MonitorId) -> Self {
        RvSet { members: vec![id] }
    }

    /// Adds a member (no duplicate check: the engine inserts each monitor
    /// into each tree exactly once, at creation).
    pub fn push(&mut self, id: MonitorId) {
        self.members.push(id);
    }

    /// Current member count (including members pending compaction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members (may include flagged/terminated ids between
    /// compactions).
    #[must_use]
    pub fn members(&self) -> &[MonitorId] {
        &self.members
    }

    /// One-pass compaction (Figure 8): removes members that are flagged
    /// unnecessary or terminated, releasing one store reference each.
    pub fn compact<S>(&mut self, store: &mut MonitorStore<S>) {
        self.members.retain(|&id| {
            if store.is_collectable(id) {
                store.release(id);
                false
            } else {
                true
            }
        });
    }

    /// Releases every member reference (used when the containing map entry
    /// dies — "if a data structure itself is garbage collected, any
    /// contained monitor instances never need to be collected separately").
    pub fn release_all<S>(&mut self, store: &mut MonitorStore<S>) {
        for &id in &self.members {
            store.release(id);
        }
        self.members.clear();
    }

    /// Estimated heap bytes held by the set's members.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.members.len() * std::mem::size_of::<MonitorId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::HeapConfig;
    use rv_logic::{EventId, ParamId};

    fn heap_with(n: usize) -> (Heap, Vec<rv_heap::ObjId>) {
        let mut h = Heap::new(HeapConfig::manual());
        let c = h.register_class("Obj");
        let f = h.enter_frame();
        let ids = (0..n).map(|_| h.alloc(c)).collect();
        let _keep_rooted = f; // never exited: objects stay rooted
        (h, ids)
    }

    #[test]
    fn get_and_insert_round_trip() {
        let (heap, o) = heap_with(2);
        let mut m: RvMap<u32> = RvMap::new();
        let k = Binding::from_pairs(&[(ParamId(0), o[0])]);
        let mut dead = Vec::new();
        let mut on_dead = DeadOnly(|b: Binding, v: u32| dead.push((b, v)));
        assert!(m.insert(&heap, k, 7, &mut on_dead).is_none());
        assert_eq!(m.get_mut(&heap, k, &mut on_dead).copied(), Some(7));
        assert_eq!(m.len(), 1);
        assert!(dead.is_empty());
    }

    #[test]
    fn dead_keys_are_expunged_lazily_with_notification() {
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let outer = heap.enter_frame();
        let keep = heap.alloc(cls);
        let inner = heap.enter_frame();
        let dying = heap.alloc(cls);
        let mut m: RvMap<u32> = RvMap::new();
        let mut notified = Vec::new();
        let mut on_dead = DeadOnly(|b: Binding, v: u32| notified.push((b, v)));
        let k_keep = Binding::from_pairs(&[(ParamId(0), keep)]);
        let k_die = Binding::from_pairs(&[(ParamId(0), dying)]);
        m.insert(&heap, k_keep, 1, &mut on_dead);
        m.insert(&heap, k_die, 2, &mut on_dead);
        heap.exit_frame(inner);
        heap.collect();
        // Nothing expunged until the map is touched (lazy).
        assert_eq!(m.len(), 2);
        // Touch it enough to sweep the whole ring.
        m.expunge(&heap, 16, &mut on_dead);
        assert_eq!(m.len(), 1);
        assert_eq!(notified, vec![(k_die, 2)]);
        assert!(m.peek(&k_keep).is_some());
        heap.exit_frame(outer);
    }

    #[test]
    fn composite_keys_die_when_any_component_dies() {
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _outer = heap.enter_frame();
        let coll = heap.alloc(cls);
        let inner = heap.enter_frame();
        let iter = heap.alloc(cls);
        let mut m: RvMap<u32> = RvMap::new();
        let k = Binding::from_pairs(&[(ParamId(0), coll), (ParamId(1), iter)]);
        let mut count = 0;
        let mut on_dead = DeadOnly(|_b: Binding, _v: u32| count += 1);
        m.insert(&heap, k, 9, &mut on_dead);
        heap.exit_frame(inner);
        heap.collect();
        m.expunge(&heap, 16, &mut on_dead);
        assert_eq!(count, 1);
        assert!(m.is_empty());
    }

    #[test]
    fn window_zero_disables_lazy_expunge() {
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let f = heap.enter_frame();
        let o = heap.alloc(cls);
        let mut m: RvMap<u32> = RvMap::new();
        m.set_window(0);
        let mut on_dead = DeadOnly(|_: Binding, _: u32| panic!("no expunge expected"));
        m.insert(&heap, Binding::from_pairs(&[(ParamId(0), o)]), 1, &mut on_dead);
        heap.exit_frame(f);
        heap.collect();
        let _ = m.get_mut(&heap, Binding::BOTTOM, &mut on_dead);
        assert_eq!(m.len(), 1, "entry retained with window 0");
    }

    #[test]
    fn ring_compacts_after_many_removals() {
        let (heap, o) = heap_with(1);
        let mut m: RvMap<u32> = RvMap::new();
        let mut on_dead = DeadOnly(|_: Binding, _: u32| {});
        // Insert/remove the same key repeatedly; the ring must not grow
        // unboundedly.
        for i in 0..1000 {
            let k = Binding::from_pairs(&[(ParamId(0), o[0])]);
            m.insert(&heap, k, i, &mut on_dead);
            m.remove(&k);
        }
        assert!(m.ring.len() <= 64, "ring length {} not compacted", m.ring.len());
    }

    #[test]
    fn rv_set_compaction_releases_references() {
        let mut store: MonitorStore<u32> = MonitorStore::new();
        let (heap, o) = heap_with(1);
        let _ = heap;
        let b = Binding::from_pairs(&[(ParamId(0), o[0])]);
        let a = store.create(b, 0, EventId(0));
        let bb = store.create(b, 0, EventId(0));
        store.retain(a);
        store.retain(bb);
        let mut set = RvSet::new();
        set.push(a);
        set.push(bb);
        store.flag(a);
        set.compact(&mut store);
        assert_eq!(set.len(), 1);
        assert_eq!(set.members(), &[bb]);
        assert_eq!(store.collected(), 1);
        set.release_all(&mut store);
        assert_eq!(store.live(), 0);
    }
}

#[cfg(test)]
mod maintainer_tests {
    use super::*;
    use rv_heap::HeapConfig;
    use rv_logic::ParamId;

    struct Dropper {
        drop_below: u32,
        dead: usize,
    }

    impl Maintainer<u32> for Dropper {
        fn on_dead(&mut self, _key: Binding, _value: u32) {
            self.dead += 1;
        }

        fn on_live(&mut self, _key: &Binding, value: &mut u32) -> bool {
            *value < self.drop_below
        }
    }

    #[test]
    fn live_entry_maintenance_can_drop_mappings() {
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _f = heap.enter_frame();
        let a = heap.alloc(cls);
        let b = heap.alloc(cls);
        let mut m: RvMap<u32> = RvMap::new();
        let mut keep = DeadOnly(|_: Binding, _: u32| {});
        m.insert(&heap, Binding::from_pairs(&[(ParamId(0), a)]), 1, &mut keep);
        m.insert(&heap, Binding::from_pairs(&[(ParamId(0), b)]), 10, &mut keep);
        let mut dropper = Dropper { drop_below: 5, dead: 0 };
        m.expunge_all(&heap, &mut dropper);
        assert_eq!(m.len(), 1, "the value-1 entry is dropped by on_live");
        assert_eq!(dropper.dead, 0);
        assert!(m.peek(&Binding::from_pairs(&[(ParamId(0), b)])).is_some());
    }

    #[test]
    fn window_scans_eventually_apply_live_maintenance() {
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _f = heap.enter_frame();
        let mut m: RvMap<u32> = RvMap::new();
        let mut keep = DeadOnly(|_: Binding, _: u32| {});
        let mut keys = Vec::new();
        for i in 0..16 {
            let o = heap.alloc(cls);
            let k = Binding::from_pairs(&[(ParamId(0), o)]);
            keys.push(k);
            m.insert(&heap, k, i, &mut keep);
        }
        // Repeated window scans with a dropper: all sub-5 entries go.
        let mut dropper = Dropper { drop_below: 5, dead: 0 };
        for _ in 0..32 {
            m.expunge(&heap, 4, &mut dropper);
        }
        assert_eq!(m.len(), 11);
    }

    #[test]
    fn drain_yields_everything_without_notification() {
        let mut heap = Heap::new(HeapConfig::manual());
        let cls = heap.register_class("Obj");
        let _f = heap.enter_frame();
        let a = heap.alloc(cls);
        let mut m: RvMap<u32> = RvMap::new();
        let mut keep = DeadOnly(|_: Binding, _: u32| {});
        m.insert(&heap, Binding::from_pairs(&[(ParamId(0), a)]), 7, &mut keep);
        let drained: Vec<(Binding, u32)> = m.drain().collect();
        assert_eq!(drained.len(), 1);
        assert!(m.is_empty());
    }
}
