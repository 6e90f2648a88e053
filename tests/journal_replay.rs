//! The journal replayer (`rv_core::recover`) against hand-built
//! journals: every inconsistency it must reject, and the spec lineage,
//! session marks and trigger classification it must rebuild — including a
//! checkpoint that ends exactly at a reload cutover.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rv_monitor::core::journal::{
    AUX_FATAL, AUX_FREE, AUX_GC, AUX_OBJ, AUX_RELOAD, AUX_SLINE, AUX_SPEC,
};
use rv_monitor::core::recover::alloc_pinned;
use rv_monitor::core::snapshot::write_checkpoint;
use rv_monitor::core::{
    recover, Binding, EngineConfig, JournalWriter, NoopObserver, Record, RecoverError, Recovered,
    ReplayFrom,
};
use rv_monitor::heap::{Heap, HeapConfig, ObjId};
use rv_monitor::logic::{EventId, ParamId, Verdict};

const UNSAFE_ITER: &str = "UnsafeIter(Collection c, Iterator i) {
    event create(c, i); event update(c); event next(i);
    ere: update* create next* update+ next
    @match { report \"cme\"; } }";
const HAS_NEXT: &str = "HasNext(Iterator i) {
    event hasnexttrue(i); event hasnextfalse(i); event next(i);
    fsm:
        unknown [ hasnexttrue -> more  hasnextfalse -> none  next -> error ]
        more [ hasnexttrue -> more  next -> unknown ]
        none [ hasnextfalse -> none  next -> error ]
        error []
    @error { report \"bad\"; } }";

/// The `ObjId`s a fresh replay heap hands out, in order.
fn ids(n: usize) -> Vec<ObjId> {
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Obj");
    (0..n).map(|_| alloc_pinned(&mut heap, class)).collect()
}

fn aux(tag: u8, bytes: impl Into<Vec<u8>>) -> Record {
    Record::Aux { tag, bytes: bytes.into() }
}

fn obj(id: ObjId, name: &str) -> Record {
    let mut bytes = id.to_bits().to_le_bytes().to_vec();
    bytes.extend_from_slice(name.as_bytes());
    aux(AUX_OBJ, bytes)
}

fn sline(session: u64, cseq: u64, line: &str) -> Record {
    let mut bytes = session.to_le_bytes().to_vec();
    bytes.extend_from_slice(&cseq.to_le_bytes());
    bytes.extend_from_slice(line.as_bytes());
    aux(AUX_SLINE, bytes)
}

/// Writes `records` as a fresh journal; returns the directory.
fn journal(records: &[Record]) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rv-recover-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = JournalWriter::create(&dir).unwrap();
    for r in records {
        w.append(r).unwrap();
    }
    w.sync().unwrap();
    dir
}

fn replay(dir: &Path, from: ReplayFrom) -> Result<Recovered<NoopObserver>, String> {
    recover(dir, from, &EngineConfig::default(), |_| NoopObserver).map_err(|e| e.to_string())
}

/// The error replaying `records` after an UnsafeIter spec header.
fn rejection(records: &[Record]) -> String {
    let mut all = vec![aux(AUX_SPEC, UNSAFE_ITER)];
    all.extend_from_slice(records);
    let dir = journal(&all);
    let err = replay(&dir, ReplayFrom::Start).err().expect("journal must be rejected");
    std::fs::remove_dir_all(&dir).unwrap();
    err
}

#[test]
fn every_inconsistent_journal_is_rejected() {
    let id = ids(2);
    let create = |c: ObjId, i: ObjId| Record::Event {
        event: EventId(0),
        binding: Binding::from_pairs(&[(ParamId(0), c), (ParamId(1), i)]),
    };
    let free = |id: ObjId| aux(AUX_FREE, id.to_bits().to_le_bytes());
    let freed_twice = format!("journal record 3: double free of object `{:#x}`", id[1].to_bits());
    let cases: Vec<(Vec<Record>, &str)> = vec![
        (vec![obj(id[1], "c")], "heap replay diverged"),
        (vec![create(id[1], id[0])], "with no AUX_OBJ record"),
        // Once a journal names objects, `i` needs a name too, even though
        // it is exactly the object the rebuilt heap would allocate next.
        (vec![obj(id[0], "c"), create(id[0], id[1])], "with no AUX_OBJ record"),
        (vec![obj(id[0], "c"), sline(1, 1, "create c i")], "`i` with no AUX_OBJ record"),
        (vec![aux(AUX_OBJ, [1, 2, 3])], "truncated AUX_OBJ"),
        (vec![aux(AUX_SLINE, [0; 9])], "truncated AUX_SLINE"),
        (vec![aux(AUX_FATAL, [0; 15])], "truncated AUX_FATAL"),
        (vec![aux(AUX_RELOAD, [0; 20])], "malformed AUX_RELOAD"),
        (vec![sline(1, 1, "bogus")], "unknown event `bogus`"),
        (
            vec![Record::Event { event: EventId(9), binding: Binding::from_pairs(&[]) }],
            "unknown event e9",
        ),
        (vec![obj(id[0], "c"), sline(1, 1, "create c")], "arity mismatch"),
        (
            vec![Record::Event {
                event: EventId(0),
                binding: Binding::from_pairs(&[(ParamId(0), id[0])]),
            }],
            "binds a different parameter set",
        ),
        (vec![aux(AUX_FREE, id[0].to_bits().to_le_bytes())], "never allocated"),
        (vec![sline(1, 1, "!free ghost")], "frees unknown object `ghost`"),
        (
            vec![obj(id[0], "c"), sline(1, 1, "!free c"), sline(1, 2, "!free c")],
            "journal record 3: double free of object `c`",
        ),
        (vec![create(id[0], id[1]), free(id[1]), free(id[1])], &freed_twice),
    ];
    for (records, expected) in cases {
        let err = rejection(&records);
        assert!(err.contains(expected), "expected `{expected}` in: {err}");
    }
    let dir = journal(&[]);
    assert!(replay(&dir, ReplayFrom::Start).err().unwrap().contains("no durable records"));
    std::fs::remove_dir_all(&dir).unwrap();
    let dir = journal(&[aux(AUX_GC, [])]);
    let err = replay(&dir, ReplayFrom::Start).err().unwrap();
    assert!(err.contains("does not begin with a spec record"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();

    // A spec that no longer compiles is its own error class.
    let dir = journal(&[aux(AUX_SPEC, "spec X {")]);
    let err = recover(&dir, ReplayFrom::Start, &EngineConfig::default(), |_| NoopObserver);
    assert!(matches!(err.err(), Some(RecoverError::Spec(m)) if m.contains("no longer compiles")));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn first_mentions_allocate_only_in_unnamed_journals() {
    let id = ids(2);
    let create = Record::Event {
        event: EventId(0),
        binding: Binding::from_pairs(&[(ParamId(0), id[0]), (ParamId(1), id[1])]),
    };
    let dir = journal(&[aux(AUX_SPEC, UNSAFE_ITER), create]);
    let rec = replay(&dir, ReplayFrom::Start).unwrap();
    assert_eq!(rec.events, 1);
    assert!(rec.objects.is_empty(), "an `rvmon run` journal names no objects");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tenant journal: UnsafeIter lines in session 7 (one match, its
/// trigger journaled), a reload to HasNext, then one HasNext error
/// whose trigger record the crash tore off.
fn reloaded_tenant() -> (Vec<Record>, u64) {
    let id = ids(3);
    // `AUX_RELOAD`: token 9, then the six base counters (3 events and 1
    // trigger before the cutover), then the new spec source.
    let reload: Vec<u8> = [9u64, 3, 1, 0, 0, 0, 0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .chain(HAS_NEXT.bytes())
        .collect();
    let records = vec![
        aux(AUX_SPEC, UNSAFE_ITER),
        obj(id[0], "c"),
        obj(id[1], "i"),
        sline(7, 1, "create c i"),
        sline(7, 2, "update c"),
        sline(7, 3, "next i"),
        Record::Trigger {
            event_seq: 5,
            ordinal: 0,
            block: 0,
            step: 3,
            verdict: Verdict::Match,
            binding: Binding::from_pairs(&[]),
        },
        aux(AUX_RELOAD, reload),
        obj(id[2], "h"),
        sline(7, 4, "next h"),
        aux(AUX_FATAL, [7u64.to_le_bytes(), 5u64.to_le_bytes()].concat()),
    ];
    (records, 7)
}

#[test]
fn replay_follows_the_spec_lineage_and_session_marks() {
    let (records, reload_seq) = reloaded_tenant();
    let dir = journal(&records);
    let rec = replay(&dir, ReplayFrom::Start).unwrap();
    assert_eq!(rec.events, 4);
    assert_eq!(rec.fired.len(), 2, "{:?}", rec.fired);
    assert_eq!(rec.suppressed, 1, "the journaled match is suppressed");
    assert_eq!(rec.refired().len(), 1);
    assert_eq!(rec.refired()[0].key(), (9, 0), "the HasNext error is refired");
    assert_eq!(rec.spec_version, 2);
    assert_eq!(rec.reload_token, 9);
    assert_eq!(rec.spec_source, HAS_NEXT);
    assert_eq!(rec.base.triggers, 1);
    assert_eq!(rec.monitor.spec().name, "HasNext");
    assert_eq!(rec.sessions.get(&7), Some(&5), "AUX_FATAL advances the session mark");
    assert_eq!(rec.objects.len(), 3);

    // A checkpoint covering everything before the reload: the cutover
    // at exactly the covered sequence still swaps the spec in.
    let prefix = journal(&records[..reload_seq as usize]);
    let before = replay(&prefix, ReplayFrom::Start).unwrap();
    let payload = before.monitor.snapshot_bytes().unwrap();
    write_checkpoint(&dir, 0, reload_seq, &payload).unwrap();
    let rec = replay(&dir, ReplayFrom::LatestCheckpoint).unwrap();
    assert_eq!(rec.plan.checkpoint.as_ref().map(|c| c.seq), Some(reload_seq));
    assert_eq!(rec.events, 1, "only the post-cutover line replays");
    assert_eq!(rec.monitor.spec().name, "HasNext");
    assert_eq!(rec.refired().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&prefix).unwrap();
}
