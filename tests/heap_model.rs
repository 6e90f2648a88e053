//! Property tests for the managed-heap substrate: the mark-sweep collector
//! must agree exactly with a naive reachability model, and weak references
//! must die precisely at the sweep that reclaims their referent. The model
//! check runs on a fixed battery of seeds; a failure names the seed that
//! reproduces it.

use rv_monitor::heap::{Heap, HeapConfig, ObjId, SplitMix64, WeakRef};
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Allocate an object pinned as a root.
    AllocPinned,
    /// Allocate an object rooted only by the current frame.
    AllocLocal,
    /// Add an edge between two previously allocated (possibly dead) slots.
    Edge { from: usize, to: usize },
    /// Unpin a pinned object.
    Unpin { slot: usize },
    /// Collect.
    Collect,
}

/// A random op, weighted 3:2:3:2:2 in declaration order.
fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.gen_range(12) {
        0..=2 => Op::AllocPinned,
        3..=4 => Op::AllocLocal,
        5..=7 => Op::Edge { from: rng.next_u64() as usize, to: rng.next_u64() as usize },
        8..=9 => Op::Unpin { slot: rng.next_u64() as usize },
        _ => Op::Collect,
    }
}

/// A shadow model: objects, pins, edges; liveness = reachable from pins.
#[derive(Default)]
struct Model {
    pins: HashSet<usize>,
    edges: HashMap<usize, Vec<usize>>,
    dead: HashSet<usize>,
}

impl Model {
    fn live_set(&self) -> HashSet<usize> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = self.pins.iter().copied().collect();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                if let Some(succ) = self.edges.get(&n) {
                    stack.extend(succ.iter().copied());
                }
            }
        }
        seen
    }
}

#[test]
fn mark_sweep_agrees_with_reachability_model() {
    for seed in 0..128 {
        let mut rng = SplitMix64::new(seed);
        let ops: Vec<Op> = (0..rng.gen_range(80)).map(|_| random_op(&mut rng)).collect();
        let mut heap = Heap::new(HeapConfig::manual());
        let class = heap.register_class("Obj");
        let _frame = heap.enter_frame();
        let mut objects: Vec<ObjId> = Vec::new();
        let mut weaks: Vec<WeakRef> = Vec::new();
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::AllocPinned => {
                    let frame = heap.enter_frame();
                    let o = heap.alloc(class);
                    heap.pin(o);
                    heap.exit_frame(frame);
                    weaks.push(heap.weak_ref(o));
                    model.pins.insert(objects.len());
                    objects.push(o);
                }
                Op::AllocLocal => {
                    // Allocated in a frame that exits immediately: dead at
                    // the next collection unless an edge saves it first.
                    let frame = heap.enter_frame();
                    let o = heap.alloc(class);
                    heap.exit_frame(frame);
                    weaks.push(heap.weak_ref(o));
                    objects.push(o);
                }
                Op::Edge { from, to } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let f = from % objects.len();
                    let t = to % objects.len();
                    // Edges can only be added between live objects.
                    if !model.dead.contains(&f)
                        && !model.dead.contains(&t)
                        && heap.is_alive(objects[f])
                        && heap.is_alive(objects[t])
                    {
                        heap.add_edge(objects[f], objects[t]);
                        model.edges.entry(f).or_default().push(t);
                    }
                }
                Op::Unpin { slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let s = slot % objects.len();
                    if model.pins.remove(&s) {
                        heap.unpin(objects[s]);
                    }
                }
                Op::Collect => {
                    heap.collect();
                    let live = model.live_set();
                    for idx in 0..objects.len() {
                        if !live.contains(&idx) {
                            model.dead.insert(idx);
                        }
                    }
                }
            }
            // Invariant: after any op, everything the model calls dead is
            // dead on the heap, and pinned-reachable objects are alive.
            for (idx, &o) in objects.iter().enumerate() {
                if model.dead.contains(&idx) {
                    assert!(!heap.is_alive(o), "seed {seed}: model says slot {idx} is dead");
                    assert!(!weaks[idx].is_alive(&heap), "seed {seed}: slot {idx}");
                    assert!(weaks[idx].upgrade(&heap).is_none(), "seed {seed}: slot {idx}");
                }
            }
        }
        // Final full agreement after one more collection.
        heap.collect();
        let live = model.live_set();
        for (idx, &o) in objects.iter().enumerate() {
            assert_eq!(
                heap.is_alive(o),
                live.contains(&idx) && !model.dead.contains(&idx),
                "seed {seed}: slot {idx} disagrees"
            );
        }
        assert_eq!(
            heap.live_count(),
            objects
                .iter()
                .enumerate()
                .filter(|(idx, _)| live.contains(idx) && !model.dead.contains(idx))
                .count(),
            "seed {seed}"
        );
    }
}
