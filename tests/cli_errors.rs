//! `rvmon` error handling: malformed specs, bad arguments, and unreadable
//! paths must produce clean nonzero exits with spanned diagnostics — never
//! a panic (which would surface as exit code 101 and a `panicked at`
//! backtrace on stderr).

use std::process::Command;

use rv_monitor::core::MAX_PARAMS;

fn rvmon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rvmon"))
}

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs rvmon with `args` and returns (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = rvmon().args(args).output().expect("run rvmon");
    (
        out.status.code().expect("rvmon terminated by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every file in `specs/bad/` must fail every spec-consuming subcommand
/// with exit 1 and a spanned `error:` diagnostic — not a panic.
#[test]
fn bad_specs_produce_spanned_diagnostics_not_panics() {
    let dir = repo_path("specs/bad");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("specs/bad exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rv"))
        .collect();
    assert!(entries.len() >= 6, "bad-spec corpus went missing: {entries:?}");
    for path in &entries {
        let p = path.to_str().expect("utf-8 path");
        for cmd in ["check", "analyze", "fmt", "dfa", "chaos"] {
            let (code, _out, err) = run(&[cmd, p]);
            assert_eq!(code, 1, "rvmon {cmd} {p}: expected exit 1, got {code}\nstderr: {err}");
            assert!(err.contains("error:"), "rvmon {cmd} {p}: no diagnostic on stderr: {err}");
            // A spanned diagnostic leads with file:line:col.
            assert!(
                err.contains(&format!("{p}:")),
                "rvmon {cmd} {p}: diagnostic not anchored to the file: {err}"
            );
            assert!(!err.contains("panicked"), "rvmon {cmd} {p} panicked: {err}");
        }
    }
}

#[test]
fn unreadable_spec_path_is_a_usage_error() {
    let (code, _out, err) = run(&["check", "specs/definitely_not_here.rv"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("cannot read"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn usage_errors_exit_2() {
    let good = repo_path("specs/unsafe_iter.rv");
    for args in [
        vec![],
        vec!["check"],
        vec!["frobnicate", good.as_str()],
        vec!["check", good.as_str(), "trailing-arg"],
        vec!["trace", good.as_str()],
        vec!["chaos", good.as_str(), "--seed", "not-a-number"],
        vec!["chaos", good.as_str(), "--unknown-flag"],
        vec!["chaos", good.as_str(), "--shards", "4"],
    ] {
        let (code, _out, err) = run(&args);
        assert_eq!(code, 2, "rvmon {args:?}: expected exit 2, got {code}\nstderr: {err}");
        assert!(!err.contains("panicked"), "rvmon {args:?} panicked: {err}");
    }
}

#[test]
fn trace_rejects_unknown_events_and_objects_cleanly() {
    let spec = repo_path("specs/unsafe_iter.rv");
    let dir = std::env::temp_dir();
    let bad_event = dir.join("rvmon_cli_errors_bad_event.events");
    std::fs::write(&bad_event, "zap o1\n").expect("write events file");
    let (code, _out, err) = run(&["trace", spec.as_str(), bad_event.to_str().expect("utf-8")]);
    assert_eq!(code, 1, "stderr: {err}");
    assert!(err.contains("error:"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");

    let bad_obj = dir.join("rvmon_cli_errors_bad_obj.events");
    std::fs::write(&bad_obj, "!free ghost\n").expect("write events file");
    let (code, _out, err) = run(&["trace", spec.as_str(), bad_obj.to_str().expect("utf-8")]);
    assert_eq!(code, 1, "stderr: {err}");
    assert!(err.contains("unknown object"), "stderr: {err}");

    // A second free of a still-live object is a rejected line in every
    // command that drives a trace, and `run` journals nothing for it.
    let double_free = dir.join("rvmon_cli_errors_double_free.events");
    std::fs::write(&double_free, "create c i\nnext i\n!free i\n!free i\n").expect("write");
    let events = double_free.to_str().expect("utf-8");
    let journal = dir.join(format!("rvmon_cli_errors_double_free_{}", std::process::id()));
    let journal = journal.to_str().expect("utf-8");
    for args in [
        vec!["trace", spec.as_str(), events],
        vec!["explain", spec.as_str(), events],
        vec!["serve", spec.as_str(), events, "--once"],
        vec!["timeline", spec.as_str(), events],
        vec!["run", spec.as_str(), events, "--journal", journal],
    ] {
        let (code, _out, err) = run(&args);
        assert_eq!(code, 1, "rvmon {args:?}: stderr: {err}");
        assert!(err.contains(&format!("{events}:4: ")), "rvmon {args:?}: stderr: {err}");
        assert!(err.contains("double free of object `i`"), "rvmon {args:?}: stderr: {err}");
    }
    let (code, out, err) = run(&["recover", journal]);
    assert_eq!(code, 0, "the journal of the rejected run recovers: {err}");
    assert!(out.contains("stats: E=2 "), "{out}");
    std::fs::remove_dir_all(journal).expect("remove journal");
}

/// A spec that declares more parameters than a binding holds is refused
/// at compile time, at the first parameter past the limit, by every
/// command — `trace` used to accept such a spec from `check` and then
/// panic on the first slot past the binding's last.
#[test]
fn a_spec_wider_than_a_binding_is_a_spanned_diagnostic() {
    let spec = repo_path("specs/bad/too_many_params.rv");
    let source = std::fs::read_to_string(&spec).expect("read spec");
    // Every parameter of the fixture is declared `Object x`; the compiler
    // points at the first one past the limit.
    let first_excess = source.match_indices("Object ").nth(MAX_PARAMS).expect("a wide fixture").0;
    let events = std::env::temp_dir().join("rvmon_cli_errors_wide.events");
    std::fs::write(&events, "start a1\nlast k1\n").expect("write events file");
    let events = events.to_str().expect("utf-8");
    for args in [vec!["check", spec.as_str()], vec!["trace", spec.as_str(), events]] {
        let (code, out, err) = run(&args);
        assert_eq!(code, 1, "rvmon {args:?}: stdout: {out} stderr: {err}");
        assert!(
            err.contains(&format!(
                "{spec}:1:{}: error: spec declares 9 parameters",
                first_excess + 1
            )),
            "rvmon {args:?}: stderr: {err}"
        );
        assert!(err.contains(&format!("at most {MAX_PARAMS}")), "rvmon {args:?}: stderr: {err}");
        assert!(!err.contains("panicked"), "rvmon {args:?}: stderr: {err}");
    }
}

/// The boundary: a spec with exactly `MAX_PARAMS` parameters, and an event
/// that binds all of them, checks and traces cleanly and fires its match.
#[test]
fn a_spec_as_wide_as_a_binding_checks_and_traces() {
    let params: Vec<String> = (0..MAX_PARAMS).map(|p| format!("p{p}")).collect();
    let declared: Vec<String> = params.iter().map(|p| format!("Object {p}")).collect();
    let source = format!(
        "Full({}) {{\n    event all({});\n    event first(p0);\n    ere: all first\n    \
         @match {{ report \"all bound\"; }}\n}}\n",
        declared.join(", "),
        params.join(", ")
    );
    let dir = std::env::temp_dir();
    let spec = dir.join(format!("rvmon_cli_errors_full_{}.rv", std::process::id()));
    std::fs::write(&spec, source).expect("write spec");
    let objects: Vec<String> = (0..MAX_PARAMS).map(|p| format!("o{p}")).collect();
    let events = dir.join(format!("rvmon_cli_errors_full_{}.events", std::process::id()));
    std::fs::write(&events, format!("all {}\nfirst o0\n", objects.join(" "))).expect("write");
    let (spec_s, events_s) = (spec.to_str().expect("utf-8"), events.to_str().expect("utf-8"));
    for args in [vec!["check", spec_s], vec!["trace", spec_s, events_s]] {
        let (code, out, err) = run(&args);
        assert_eq!(code, 0, "rvmon {args:?}: stdout: {out} stderr: {err}");
        assert!(!err.contains("panicked"), "rvmon {args:?}: stderr: {err}");
    }
    let (_, out, _) = run(&["trace", spec_s, events_s]);
    let last = format!("p{}=", MAX_PARAMS - 1);
    assert!(
        out.lines().any(|l| l.contains(r#""kind":"trigger""#) && l.contains(&last)),
        "the match over every slot is reported: {out}"
    );
    std::fs::remove_file(&spec).expect("remove spec");
    std::fs::remove_file(&events).expect("remove events");
}

/// Every file in `dir` with its contents, sorted by name.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read journal dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read journal file"))
        })
        .collect();
    files.sort();
    files
}

/// `stats:` line of `rvmon recover` after journaling `events` into `dir`
/// with the extra `run` flags. A finished journal ends in a checkpoint,
/// so recovering it replays no event and writes nothing: two `recover`s
/// in a row must leave every file as `run` left it.
fn journal_and_recover(dir: &str, events: &str, flags: &[&str]) -> String {
    let spec = repo_path("specs/unsafe_iter.rv");
    let mut args = vec!["run", spec.as_str(), events, "--journal", dir];
    args.extend_from_slice(flags);
    let (code, _out, err) = run(&args);
    assert_eq!(code, 0, "rvmon {args:?}: {err}");
    let journaled = dir_contents(std::path::Path::new(dir));
    let mut stats = Vec::new();
    for pass in 1..=2 {
        let (code, out, err) = run(&["recover", dir]);
        assert_eq!(code, 0, "rvmon recover {dir} pass {pass}: {err}");
        assert!(out.contains("replayed 0 event(s)"), "pass {pass}: {out}");
        let names: Vec<&str> = journaled.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            dir_contents(std::path::Path::new(dir)) == journaled,
            "rvmon recover {dir} pass {pass} changed the directory (it held {names:?})"
        );
        stats.push(out.lines().find(|l| l.starts_with("stats: ")).expect("stats line").to_owned());
    }
    assert_eq!(stats[0], stats[1], "rvmon recover {dir}");
    stats.pop().expect("two passes")
}

/// A run journaled into a directory that holds an earlier, checkpointed
/// run must recover exactly as from a fresh directory: none of the earlier
/// run's checkpoints or segments may survive into the new journal.
#[test]
fn a_reused_journal_directory_recovers_like_a_fresh_one() {
    let tmp = std::env::temp_dir().join(format!("rvmon_cli_errors_reuse_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    let path = |name: &str| tmp.join(name).to_str().expect("utf-8").to_owned();
    // Every `create`/`update`/`next` triple is one UnsafeIter match.
    let trace = |n: usize| -> String {
        (0..n).map(|k| format!("create c{k} i{k}\nupdate c{k}\nnext i{k}\n")).collect()
    };
    std::fs::write(path("a.events"), trace(40)).expect("write");
    std::fs::write(path("b.events"), trace(60)).expect("write");
    let fresh = journal_and_recover(&path("fresh"), &path("b.events"), &[]);
    assert!(fresh.contains("E=180 ") && fresh.contains("triggers=60"), "{fresh}");
    journal_and_recover(&path("reused"), &path("a.events"), &["--checkpoint-every", "2"]);
    let reused = journal_and_recover(&path("reused"), &path("b.events"), &[]);
    assert_eq!(reused, fresh, "rvmon run into a reused directory");
    std::fs::remove_dir_all(&tmp).expect("remove scratch dir");
}

/// A scratch journal directory for one test, emptied first.
fn scratch_journal(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rvmon_cli_errors_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("utf-8").to_owned()
}

/// A crash that tears a line's `Trigger` record leaves the line durable
/// but the report undelivered. `rvmon recover` refires it and journals
/// it, so a later recovery — even a full replay with every checkpoint
/// gone — counts it as delivered instead of delivering it again.
#[test]
fn recover_journals_the_report_a_torn_trigger_lost() {
    use rv_monitor::core::{read_journal, Record};

    let spec = repo_path("specs/unsafe_iter.rv");
    let events = repo_path("examples/unsafe_iter.events");
    let dir = scratch_journal("torn_trigger");
    let flags = ["--journal", dir.as_str(), "--checkpoint-every", "1000000"];
    let mut args = vec!["run", spec.as_str(), events.as_str()];
    args.extend_from_slice(&flags);
    let (code, _out, err) = run(&args);
    assert_eq!(code, 0, "rvmon run: {err}");
    let segment = std::path::Path::new(&dir).join("journal-00000000");
    let full = std::fs::read(&segment).expect("read segment");
    // The shortest prefix whose durable records include the trigger:
    // one byte less tears exactly that record.
    let probe = std::path::PathBuf::from(scratch_journal("torn_trigger_probe"));
    std::fs::create_dir_all(&probe).expect("probe dir");
    let has_trigger = |len: usize| {
        std::fs::write(probe.join("journal-00000000"), &full[..len]).expect("write probe");
        let scan = read_journal(&probe).expect("read probe");
        scan.records.iter().any(|r| matches!(r.record, Record::Trigger { .. }))
    };
    assert!(has_trigger(full.len()), "the example fires one report");
    let (mut lo, mut hi) = (0, full.len());
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if has_trigger(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    std::fs::remove_dir_all(&probe).expect("remove probe");
    std::fs::write(&segment, &full[..lo]).expect("tear the trigger");

    let (code, out, err) = run(&["recover", &dir]);
    assert_eq!(code, 0, "rvmon recover: {err}");
    assert!(out.contains("truncated torn tail"), "{out}");
    assert!(out.contains("suppressed 0 already-delivered"), "{out}");
    for entry in std::fs::read_dir(&dir).expect("read journal dir") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|n| n.to_string_lossy().starts_with("checkpoint-")) {
            std::fs::remove_file(path).expect("remove checkpoint");
        }
    }
    let (code, out, err) = run(&["recover", &dir]);
    assert_eq!(code, 0, "rvmon recover after removing checkpoints: {err}");
    assert!(out.contains("no usable checkpoint"), "{out}");
    assert!(out.contains("suppressed 1 already-delivered"), "the refired report is durable: {out}");
    std::fs::remove_dir_all(&dir).expect("remove journal");
}

/// The chaos subcommand is seed-reproducible: identical invocations give
/// byte-identical reports, and a different seed gives a different report.
#[test]
fn chaos_subcommand_is_deterministic_per_seed() {
    let spec = repo_path("specs/unsafe_iter.rv");
    let (c1, out1, err1) = run(&["chaos", spec.as_str(), "--seed", "11", "--events", "128"]);
    assert_eq!(c1, 0, "stderr: {err1}");
    let (c2, out2, _) = run(&["chaos", spec.as_str(), "--seed", "11", "--events", "128"]);
    assert_eq!(c2, 0);
    assert_eq!(out1, out2, "same seed must reproduce the identical report");
    let (c3, out3, _) = run(&["chaos", spec.as_str(), "--seed", "12", "--events", "128"]);
    assert_eq!(c3, 0);
    assert_ne!(out1, out3, "different seeds must diverge");
    assert!(out1.contains("OK"), "report should mark passing runs: {out1}");
}
