//! The trace grammar, and the object-name table its lines resolve against.
//!
//! A line is `event obj…` (dispatch an event; objects are named and
//! allocated on first mention), `!free obj…` (unpin objects so a later
//! collection can reclaim them), `!gc` (collect the heap) or `!sweep` (run
//! a monitor-GC sweep on every block); `#` starts a comment. The paper's
//! lazy monitor GC flags a monitor only when one of its parameter objects
//! dies, so which object a name denotes, and when it is freed, decides
//! every FM/CM count. `rvmon`'s trace commands, `rvmon run`, `rvmond`'s
//! tenant workers and the journal replayer therefore all parse here and
//! name objects through one [`ObjectTable`].

use std::collections::HashMap;
use std::fmt;

use rv_heap::{ClassId, Heap, ObjId};
use rv_logic::{EventId, ParamId};
use rv_spec::CompiledSpec;

use crate::binding::Binding;
use crate::recover::alloc_pinned;

/// One parsed trace line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Line<'a> {
    /// `!gc`: collect the heap.
    Gc,
    /// `!sweep`: run a monitor-GC sweep on every block.
    Sweep,
    /// `!free obj…`: unpin the named objects.
    Free(Vec<&'a str>),
    /// `event obj…`: one object name per declared parameter of the event.
    Event(EventId, Vec<&'a str>),
}

/// Why a trace line is rejected. A rejected line changes nothing: it is
/// not journaled and leaves the heap as it was.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LineError {
    /// The line's head is neither a directive nor an event of the spec.
    UnknownEvent(String),
    /// The event got a different number of objects than it declares.
    Arity {
        /// The event's name.
        event: String,
        /// Declared parameters.
        expected: usize,
        /// Objects the line names.
        got: usize,
    },
    /// A `!free` names an object the table never allocated.
    UnknownObject(String),
    /// A `!free` names an object already freed, or the same object twice.
    DoubleFree(String),
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::UnknownEvent(name) => {
                write!(f, "unknown event `{name}` (directives are !free, !gc, !sweep)")
            }
            LineError::Arity { event, expected, got } => {
                write!(f, "event arity mismatch: `{event}` takes {expected} object(s), got {got}")
            }
            LineError::UnknownObject(name) => {
                write!(f, "frees unknown object `{name}` (never allocated)")
            }
            LineError::DoubleFree(name) => write!(f, "double free of object `{name}`"),
        }
    }
}

/// Parses one raw trace line against `spec`: `Ok(None)` for a blank or
/// comment-only line.
///
/// # Errors
///
/// [`LineError::UnknownEvent`] or [`LineError::Arity`].
pub fn parse<'a>(raw: &'a str, spec: &CompiledSpec) -> Result<Option<Line<'a>>, LineError> {
    let mut words = raw.split('#').next().unwrap_or("").split_whitespace();
    let Some(head) = words.next() else {
        return Ok(None);
    };
    Ok(Some(match head {
        "!gc" => Line::Gc,
        "!sweep" => Line::Sweep,
        "!free" => Line::Free(words.collect()),
        name => {
            let event = spec
                .alphabet
                .lookup(name)
                .ok_or_else(|| LineError::UnknownEvent(name.to_owned()))?;
            let names: Vec<&str> = words.collect();
            let expected = spec.event_params[event.as_usize()].len();
            if names.len() != expected {
                return Err(LineError::Arity {
                    event: name.to_owned(),
                    expected,
                    got: names.len(),
                });
            }
            Line::Event(event, names)
        }
    }))
}

/// Trace object names and the heap objects they denote. Every object is
/// of class `"Obj"` and allocated pinned in a throwaway frame, so the pin
/// is its only root and a `!free` then `!gc` really reclaims it. Replaying
/// the same allocations on a fresh heap reproduces the same `ObjId`s.
#[derive(Debug)]
pub struct ObjectTable {
    class: ClassId,
    names: HashMap<String, ObjId>,
    /// Every object the table allocated, and whether it is still pinned.
    pinned: HashMap<ObjId, bool>,
}

impl ObjectTable {
    /// An empty table over `heap`, registering the `"Obj"` class.
    pub fn new(heap: &mut Heap) -> ObjectTable {
        ObjectTable {
            class: heap.register_class("Obj"),
            names: HashMap::new(),
            pinned: HashMap::new(),
        }
    }

    /// The object named `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<ObjId> {
        self.names.get(name).copied()
    }

    /// How many objects have names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no object has a name.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether the table allocated `obj`.
    #[must_use]
    pub fn contains(&self, obj: ObjId) -> bool {
        self.pinned.contains_key(&obj)
    }

    /// Allocates one unnamed object.
    pub fn alloc(&mut self, heap: &mut Heap) -> ObjId {
        let obj = alloc_pinned(heap, self.class);
        self.pinned.insert(obj, true);
        obj
    }

    /// Names the already-allocated `obj`.
    pub fn name(&mut self, name: &str, obj: ObjId) {
        self.names.insert(name.to_owned(), obj);
    }

    /// Binds `names` to `params` in order, allocating each name's object
    /// at its first mention and handing it to `fresh`.
    pub fn bind(
        &mut self,
        heap: &mut Heap,
        params: &[ParamId],
        names: &[&str],
        mut fresh: impl FnMut(ObjId, &str),
    ) -> Binding {
        let pairs: Vec<(ParamId, ObjId)> = params
            .iter()
            .zip(names)
            .map(|(&p, &name)| {
                let obj = match self.get(name) {
                    Some(obj) => obj,
                    None => {
                        let obj = self.alloc(heap);
                        self.name(name, obj);
                        fresh(obj, name);
                        obj
                    }
                };
                (p, obj)
            })
            .collect();
        Binding::from_pairs(&pairs)
    }

    /// Unpins the named objects, returning them in order.
    ///
    /// # Errors
    ///
    /// [`LineError::UnknownObject`] or [`LineError::DoubleFree`]; every
    /// name is checked before any object is unpinned.
    pub fn free(&mut self, heap: &mut Heap, names: &[&str]) -> Result<Vec<ObjId>, LineError> {
        let objs = names
            .iter()
            .map(|&name| self.get(name).ok_or_else(|| LineError::UnknownObject(name.to_owned())))
            .collect::<Result<Vec<_>, _>>()?;
        self.unpin(heap, &objs, |i| names[i].to_owned())?;
        Ok(objs)
    }

    /// Unpins `objs` (named by their bits in errors), as [`free`] does.
    ///
    /// # Errors
    ///
    /// As [`free`].
    ///
    /// [`free`]: ObjectTable::free
    pub fn free_objects(&mut self, heap: &mut Heap, objs: &[ObjId]) -> Result<(), LineError> {
        let name = |i: usize| format!("{:#x}", objs[i].to_bits());
        if let Some(i) = objs.iter().position(|o| !self.contains(*o)) {
            return Err(LineError::UnknownObject(name(i)));
        }
        self.unpin(heap, objs, name)
    }

    fn unpin(
        &mut self,
        heap: &mut Heap,
        objs: &[ObjId],
        name: impl Fn(usize) -> String,
    ) -> Result<(), LineError> {
        for (i, obj) in objs.iter().enumerate() {
            if self.pinned.get(obj) != Some(&true) || objs[..i].contains(obj) {
                return Err(LineError::DoubleFree(name(i)));
            }
        }
        for obj in objs {
            self.pinned.insert(*obj, false);
            heap.unpin(*obj);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_heap::HeapConfig;

    const SPEC: &str = "UnsafeIter(Collection c, Iterator i) {
        event create(c, i); event update(c); event next(i);
        ere: update* create next* update+ next
        @match { report \"cme\"; } }";

    #[test]
    fn parse_types_every_line_kind() {
        let spec = CompiledSpec::from_source(SPEC).unwrap();
        assert_eq!(parse("  # only a comment", &spec), Ok(None));
        assert_eq!(parse("!gc extra", &spec), Ok(Some(Line::Gc)));
        assert_eq!(parse("!sweep", &spec), Ok(Some(Line::Sweep)));
        assert_eq!(parse("!free a b # c", &spec), Ok(Some(Line::Free(vec!["a", "b"]))));
        let create = spec.alphabet.lookup("create").unwrap();
        assert_eq!(parse("create c i", &spec), Ok(Some(Line::Event(create, vec!["c", "i"]))));
        assert_eq!(parse("zap o", &spec), Err(LineError::UnknownEvent("zap".into())));
        assert_eq!(
            parse("create c", &spec),
            Err(LineError::Arity { event: "create".into(), expected: 2, got: 1 })
        );
    }

    #[test]
    fn a_rejected_free_unpins_nothing() {
        let mut heap = Heap::new(HeapConfig::manual());
        let mut table = ObjectTable::new(&mut heap);
        let b = table.bind(&mut heap, &[ParamId(0), ParamId(1)], &["c", "i"], |_, _| {});
        let (c, i) = (table.get("c").unwrap(), table.get("i").unwrap());
        assert_eq!(b, Binding::from_pairs(&[(ParamId(0), c), (ParamId(1), i)]));
        assert_eq!(
            table.free(&mut heap, &["i", "ghost"]),
            Err(LineError::UnknownObject("ghost".into()))
        );
        assert_eq!(table.free(&mut heap, &["c", "c"]), Err(LineError::DoubleFree("c".into())));
        assert_eq!(table.free(&mut heap, &["i"]), Ok(vec![i]));
        assert_eq!(table.free(&mut heap, &["c", "i"]), Err(LineError::DoubleFree("i".into())));
        assert_eq!(
            table.free_objects(&mut heap, &[i]),
            Err(LineError::DoubleFree(format!("{:#x}", i.to_bits())))
        );
        heap.collect();
        assert!(heap.is_alive(c) && !heap.is_alive(i), "only the freed object is reclaimed");
    }
}
