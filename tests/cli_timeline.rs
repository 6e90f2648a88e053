//! Structural validation of `rvmon timeline` — the Chrome trace-event
//! (Perfetto-loadable) exporter — through the real binary: the output
//! must be well-formed JSON with a `traceEvents` array, timestamps must
//! be monotone per lane, and every duration span must be a balanced
//! `B`/`E` pair that nests properly (never closing a span that is not
//! the innermost open one).

use std::process::Command;

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// One exported trace event, pulled out of the JSON by the hand-rolled
/// scanner below (the workspace is serde-free by design).
#[derive(Debug)]
struct Ev {
    name: String,
    ph: String,
    ts: f64,
    tid: u64,
}

/// Extracts the string/number value of `"key":` within one event object.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &obj[obj.find(&tag)? + tag.len()..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}', ']']).next()
    }
}

/// Splits the `traceEvents` array into per-event objects and parses the
/// fields the assertions need. Panics (with context) on malformed JSON —
/// that *is* the test.
fn parse_events(json: &str) -> Vec<Ev> {
    let start = json.find("\"traceEvents\":[").expect("traceEvents array") + 15;
    let mut depth = 0usize;
    let mut obj_start = None;
    let mut events = Vec::new();
    let mut end = None;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = Some(start + i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    let obj = &json[obj_start.expect("object start")..=start + i];
                    events.push(Ev {
                        name: field(obj, "name").expect("name").to_owned(),
                        ph: field(obj, "ph").expect("ph").to_owned(),
                        ts: field(obj, "ts").map_or(0.0, |v| v.parse().expect("numeric ts")),
                        tid: field(obj, "tid").expect("tid").parse().expect("numeric tid"),
                    });
                }
            }
            ']' if depth == 0 => {
                end = Some(start + i);
                break;
            }
            _ => {}
        }
    }
    assert!(end.is_some(), "traceEvents array must close");
    events
}

fn run_timeline(extra: &[&str]) -> std::process::Output {
    let mut args = vec![
        "timeline".to_owned(),
        repo_path("specs/unsafe_iter.rv"),
        repo_path("examples/unsafe_iter.events"),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    Command::new(env!("CARGO_BIN_EXE_rvmon")).args(&args).output().expect("run rvmon timeline")
}

#[test]
fn timeline_emits_structurally_valid_chrome_trace_json() {
    let out = run_timeline(&[]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).expect("UTF-8 output");
    let json = json.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "not a JSON object");
    assert!(json.contains("\"displayTimeUnit\":\"ms\""), "no display unit: {json}");

    let events = parse_events(json);
    assert!(!events.is_empty(), "empty trace");

    // Exactly one thread-name metadata event per lane, before any span.
    let lanes: Vec<u64> = events.iter().filter(|e| e.ph == "M").map(|e| e.tid).collect();
    assert!(!lanes.is_empty(), "no lane metadata");
    for e in events.iter().filter(|e| e.ph == "M") {
        assert_eq!(e.name, "thread_name", "unexpected metadata event: {e:?}");
    }

    // Per lane: timestamps monotone, B/E balanced, and every E closes
    // the innermost open B (proper nesting, which Perfetto requires).
    // GC cycles arrive as standalone `X` complete events.
    for &lane in &lanes {
        let mut last_ts = f64::MIN;
        let mut stack: Vec<&str> = Vec::new();
        let mut spans = 0usize;
        for e in events.iter().filter(|e| e.tid == lane && e.ph != "M") {
            assert!(
                e.ts >= last_ts,
                "lane {lane}: timestamps must be monotone ({} after {last_ts})",
                e.ts
            );
            last_ts = e.ts;
            match e.ph.as_str() {
                "B" => stack.push(&e.name),
                "E" => {
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!("lane {lane}: E for `{}` with no span open", e.name)
                    });
                    assert_eq!(open, e.name, "lane {lane}: E must close the innermost B");
                    spans += 1;
                }
                "X" => assert!(e.name.starts_with("gc:"), "lane {lane}: stray X: {e:?}"),
                other => panic!("lane {lane}: unexpected phase `{other}`"),
            }
        }
        assert!(stack.is_empty(), "lane {lane}: unclosed spans: {stack:?}");
        assert!(spans > 0, "lane {lane}: no spans at all");
    }

    // The demo trace exercises the hot path, a monitor sweep and a heap
    // collection — all three span families must be on the timeline.
    assert!(events.iter().any(|e| e.name == "index_lookup"), "no hot-path spans");
    assert!(
        events.iter().any(|e| e.ph == "X" && e.name.starts_with("gc:monitor_sweep")),
        "no sweep cycle"
    );
    assert!(events.iter().any(|e| e.ph == "X" && e.name.starts_with("gc:heap")), "no heap cycle");
}

/// A heap collection is drawn where its `!gc` line ran: one on the
/// trace's first line precedes every engine span and the later sweep.
#[test]
fn timeline_draws_each_heap_collection_where_its_line_ran() {
    let events = std::env::temp_dir().join(format!("rvmon-timeline-gc-{}", std::process::id()));
    std::fs::write(&events, "!gc\ncreate c1 i1\nnext i1\n!sweep\n").expect("write events");
    let out = Command::new(env!("CARGO_BIN_EXE_rvmon"))
        .args(["timeline", &repo_path("specs/unsafe_iter.rv"), events.to_str().expect("utf-8")])
        .output()
        .expect("run rvmon timeline");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let events_json = parse_events(&String::from_utf8(out.stdout).expect("UTF-8 output"));
    let ts = |name: &str| {
        events_json.iter().find(|e| e.name.starts_with(name)).map(|e| e.ts).expect(name)
    };
    let first_span = events_json.iter().find(|e| e.ph == "B").expect("an engine span").ts;
    assert!(ts("gc:heap") < first_span, "heap GC drawn after the first event: {events_json:?}");
    assert!(ts("gc:heap") < ts("gc:monitor_sweep"), "heap GC drawn after the sweep");
    std::fs::remove_file(&events).ok();
}

#[test]
fn timeline_out_flag_writes_the_file_and_reports_it() {
    let dir = std::env::temp_dir().join(format!("rvmon-timeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("trace.json");
    let out = run_timeline(&["--out", file.to_str().expect("utf-8 tmpdir")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote Chrome trace"), "no confirmation: {stdout}");
    let written = std::fs::read_to_string(&file).expect("trace file");
    assert!(!parse_events(&written).is_empty(), "file holds no events");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeline_usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_rvmon"))
        .args(["timeline", &repo_path("specs/unsafe_iter.rv")])
        .output()
        .expect("run rvmon");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: rvmon timeline"));
}
