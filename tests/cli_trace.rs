//! End-to-end test of `rvmon trace`: feed the shipped UNSAFEITER demo
//! through the real binary and check the emitted JSONL trace and metrics
//! snapshot — including that the snapshot carries the engine's own
//! E/M/FM/CM once, under `"engine"`, and no count twice.
//!
//! The workspace is serde-free, so the assertions use small string-level
//! extractors over the known (hand-rolled, stable) JSON shapes.

use std::process::Command;

fn rvmon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rvmon"))
}

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `"key":<u64>` from the object that starts at the first
/// occurrence of `section` in `json`.
fn field_u64(json: &str, section: &str, key: &str) -> u64 {
    let start = json.find(section).unwrap_or_else(|| panic!("no `{section}` in: {json}"));
    let after = &json[start + section.len()..];
    let needle = format!("\"{key}\":");
    let at = after.find(&needle).unwrap_or_else(|| panic!("no `{key}` after `{section}`"));
    let digits: String =
        after[at + needle.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("`{key}` is not a u64 in: {json}"))
}

/// The keys of the flat object that starts at the first occurrence of
/// `section` in `json`.
fn object_keys<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
    let start = json.find(section).unwrap_or_else(|| panic!("no `{section}` in: {json}"));
    let after = &json[start + section.len()..];
    let body = &after[1..after.find('}').expect("flat object")];
    body.split(',').map(|kv| kv.split('"').nth(1).expect("quoted key")).collect()
}

#[test]
fn trace_subcommand_emits_jsonl_and_matching_metrics() {
    let out = rvmon()
        .args([
            "trace",
            &repo_path("specs/unsafe_iter.rv"),
            &repo_path("examples/unsafe_iter.events"),
        ])
        .output()
        .expect("run rvmon");
    assert!(out.status.success(), "rvmon trace failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");

    // One trace section and one metrics section for the single block.
    assert!(stdout.contains("# block 1 trace"), "missing trace header:\n{stdout}");
    assert!(stdout.contains("# block 1 metrics"), "missing metrics header:\n{stdout}");

    let mut in_trace = false;
    let mut metrics_line = None;
    let mut kinds: Vec<String> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("# block 1 trace") {
            in_trace = true;
        } else if line.starts_with("# block 1 metrics") {
            in_trace = false;
        } else if in_trace {
            // Every trace line is a self-contained JSON object with the
            // envelope fields and a kind tag.
            assert!(line.starts_with('{') && line.ends_with('}'), "bad JSONL: {line}");
            for envelope in ["\"seq\":", "\"t_ns\":", "\"event_index\":", "\"kind\":\""] {
                assert!(line.contains(envelope), "missing {envelope}: {line}");
            }
            let kind = line.split("\"kind\":\"").nth(1).unwrap();
            kinds.push(kind[..kind.find('"').unwrap()].to_string());
        } else if line.starts_with('{') {
            metrics_line = Some(line.to_string());
        }
    }

    // The demo script drives the full lifecycle: dispatch, creation, a
    // @match trigger, then object death → dead key → flag → collection
    // under a sweep.
    for expected in
        ["event", "created", "trigger", "dead_key", "flagged", "collected", "sweep_started"]
    {
        assert!(kinds.iter().any(|k| k == expected), "no `{expected}` record in {kinds:?}");
    }

    // Human-readable rendering: the flagged record names the dead
    // parameter and the aliveness cause from the coenable-set policy.
    assert!(
        stdout.contains("\"cause\":\"aliveness\""),
        "expected an aliveness-flag record:\n{stdout}"
    );

    // E / M / FM / CM come from the engine, and the demo produces real
    // activity, not a vacuous all-zero snapshot.
    let metrics = metrics_line.expect("metrics snapshot line");
    for key in ["events", "monitors_created", "monitors_flagged", "monitors_collected", "triggers"]
    {
        assert!(field_u64(&metrics, "\"engine\":", key) > 0, "`{key}` is 0: {metrics}");
    }
    // Each count is kept once: the registry's own `"counters"` share no key
    // with the engine's.
    let engine = object_keys(&metrics, "\"engine\":");
    for key in object_keys(&metrics, "\"counters\":") {
        assert!(!engine.contains(&key), "`{key}` is counted twice: {metrics}");
    }
    // The snapshot also embeds the simulated-heap stats.
    assert!(field_u64(&metrics, "\"heap\":", "allocations") > 0);
}

/// Runs `rvmon trace` on the shipped demo with `extra` flags and returns
/// `(trace_lines, header)` for block 1.
fn traced(extra: &[&str]) -> (Vec<String>, String) {
    let mut args = vec![
        "trace".to_string(),
        repo_path("specs/unsafe_iter.rv"),
        repo_path("examples/unsafe_iter.events"),
    ];
    args.extend(extra.iter().map(ToString::to_string));
    let out = rvmon().args(&args).output().expect("run rvmon");
    assert!(out.status.success(), "rvmon trace failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut header = String::new();
    let mut lines = Vec::new();
    let mut in_trace = false;
    for line in stdout.lines() {
        if line.starts_with("# block 1 trace") {
            header = line.to_string();
            in_trace = true;
        } else if line.starts_with("# block 1 metrics") {
            in_trace = false;
        } else if in_trace {
            lines.push(line.to_string());
        }
    }
    (lines, header)
}

#[test]
fn trace_kind_filter_keeps_only_that_kind_and_accounts_the_rest() {
    let (all, plain_header) = traced(&[]);
    assert!(!plain_header.contains("filtered out"), "no filter, no filter count: {plain_header}");
    let (kept, header) = traced(&["--kind", "flagged"]);
    assert!(!kept.is_empty(), "the demo flags a monitor");
    for line in &kept {
        assert!(line.contains("\"kind\":\"flagged\""), "foreign record passed the filter: {line}");
    }
    assert!(
        header.contains(&format!("({} records", kept.len())),
        "header counts kept records: {header}"
    );
    assert!(
        header.contains(&format!("{} filtered out", all.len() - kept.len())),
        "header accounts for the filtered remainder: {header}"
    );
}

#[test]
fn trace_event_filter_matches_dispatch_and_flag_records() {
    let (kept, _) = traced(&["--event", "next"]);
    assert!(!kept.is_empty(), "the demo dispatches `next`");
    for line in &kept {
        let named = |field: &str| {
            line.split(field).nth(1).and_then(|r| r.split('"').next()).is_some_and(|v| v == "next")
        };
        assert!(
            named("\"name\":\"") || named("\"last_event\":\""),
            "record does not reference `next`: {line}"
        );
    }
    // Exact-match semantics: `nex` is not an event name and matches nothing.
    let (none, _) = traced(&["--event", "nex"]);
    assert!(none.is_empty(), "event filter must be exact, got: {none:?}");
}

#[test]
fn trace_binding_filter_composes_with_kind() {
    // Bindings render as `param=#index g generation`; every created/flagged/
    // collected record for an iterator binds `i=`.
    let (kept, _) = traced(&["--kind", "created", "--binding-contains", "i="]);
    assert!(!kept.is_empty(), "the demo creates iterator monitors");
    for line in &kept {
        assert!(line.contains("\"kind\":\"created\""), "kind filter leaked: {line}");
        let bound = line
            .split("\"binding\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .is_some_and(|v| v.contains("i="));
        assert!(bound, "binding filter leaked: {line}");
    }
    // A substring matching no rendered binding filters everything.
    let (none, header) = traced(&["--binding-contains", "zebra="]);
    assert!(none.is_empty(), "impossible binding must filter all: {none:?}");
    assert!(header.contains("(0 records"), "header shows zero kept: {header}");
}

#[test]
fn trace_filter_flags_require_values() {
    for flag in ["--kind", "--event", "--binding-contains"] {
        let out = rvmon()
            .args([
                "trace",
                &repo_path("specs/unsafe_iter.rv"),
                &repo_path("examples/unsafe_iter.events"),
                flag,
            ])
            .output()
            .expect("run rvmon");
        assert_eq!(out.status.code(), Some(2), "{flag} without a value exits 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: rvmon trace"), "{flag}: unexpected stderr: {stderr}");
    }
}

#[test]
fn trace_subcommand_requires_an_events_file() {
    let out =
        rvmon().args(["trace", &repo_path("specs/unsafe_iter.rv")]).output().expect("run rvmon");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: rvmon trace"), "unexpected stderr: {stderr}");
}

#[test]
fn trace_subcommand_rejects_unknown_events() {
    let dir = std::env::temp_dir().join("rvmon-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.events");
    std::fs::write(&bad, "create c1 i1\nzap c1\n").unwrap();
    let out = rvmon()
        .args(["trace", &repo_path("specs/unsafe_iter.rv"), bad.to_str().unwrap()])
        .output()
        .expect("run rvmon");
    assert_eq!(out.status.code(), Some(1), "bad event names exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("zap"), "error should name the bad event: {stderr}");
}
