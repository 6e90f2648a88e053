//! `rvmon` — command-line front end for the RV spec language.
//!
//! ```text
//! rvmon check   <spec.rv>   parse + compile, report diagnostics
//! rvmon analyze <spec.rv>   print coenable sets, parameter lifts, ALIVENESS
//! rvmon fmt     <spec.rv>   pretty-print the spec in canonical form
//! rvmon dfa     <spec.rv>   dump the compiled automaton of each block
//! rvmon prune   <spec.rv> <ev1,ev2,…>
//!                           instrumentation plan, given the events the
//!                           target program can emit
//! rvmon trace   <spec.rv> <events-file> [--kind K] [--event E]
//!               [--binding-contains S]
//!                           replay a textual event trace through the
//!                           monitoring engine, dumping JSONL lifecycle
//!                           records and a JSON metrics snapshot (the
//!                           registry's own counters and histograms, with
//!                           E/M/FM/CM read once from the embedded
//!                           `"engine"` stats); the filter flags keep
//!                           only records of kind K (event, created,
//!                           flagged, …), records that reference event
//!                           E, or records whose binding rendering
//!                           contains S
//! rvmon explain <spec.rv> <events-file> [--binding SUBSTR] [--summary]
//!                           monitor provenance: replay the trace with a
//!                           provenance ledger on every block, printing
//!                           the full life story (created / flagged with
//!                           cause / collected, with sweep attribution)
//!                           of each monitor whose binding contains
//!                           SUBSTR, and/or the Fig. 10 E/M/FM/CM row
//!                           re-derived from the per-instance records —
//!                           always cross-checked against the engine's
//!                           own statistics as an accounting identity
//!                           (exit 1 on mismatch)
//! rvmon serve   <spec.rv> <events-file> [--port N] [--once]
//!                           run the trace with metrics + phase-profiler
//!                           observers attached, then serve the merged
//!                           Prometheus text exposition over a std-only
//!                           HTTP endpoint on 127.0.0.1 (port 0 — the
//!                           default — picks an ephemeral port, printed
//!                           on stdout; --once answers one request and
//!                           exits, for smoke tests)
//! rvmon top     <journal-dir>
//!                           one-shot cost table for a journaled run:
//!                           re-execute the journal with profiler
//!                           observers and print per-phase span counts,
//!                           p50/p95/p99 and totals of the engine's
//!                           phases, plus the E/M/FM/CM counters; on an
//!                           rvmond root, one table per tenant
//! rvmon chaos   <spec.rv> [--seed N] [--events M]
//!                           deterministic fault-injection differential:
//!                           every property block under every GC policy on
//!                           a chaos heap, checked against the reference
//!                           oracle (seed-reproducible; default seed 1,
//!                           512 events)
//! rvmon run     <spec.rv> <events-file> --journal DIR
//!                           [--checkpoint-every N]
//!                           like `trace`, but crash-consistent: the trace
//!                           is journaled through the writer rvmond's
//!                           tenants use, as session 1 numbered by line —
//!                           every line, first-mention object name, GC
//!                           cycle and goal report is written ahead to a
//!                           checksummed journal in DIR, with a full
//!                           engine checkpoint every N events (default
//!                           256)
//! rvmon recover <journal-dir>
//!                           crash recovery, as rvmond recovers a
//!                           tenant: restore the latest usable
//!                           checkpoint, truncate the torn journal tail,
//!                           replay the durable suffix (suppressing goal
//!                           reports already delivered), journal the
//!                           reports replay refired, and write a fresh
//!                           checkpoint if replay re-executed any event
//! rvmon replay  <journal-dir>
//!                           audit a journal by re-executing it from
//!                           sequence 0, printing triggers and statistics
//! rvmon gc-log  <journal-dir>
//!                           GC observatory: decode the journal's GC-cycle
//!                           telemetry records into a per-cycle table
//!                           (kind, reason, pause, scanned/reclaimed,
//!                           occupancy before→after), per-kind totals,
//!                           and an MMU (minimum mutator utilization)
//!                           summary at several window sizes
//! rvmon timeline <spec.rv> <events-file> [--out FILE]
//!                           run the trace with span-log observers and
//!                           export one Chrome trace-event JSON timeline
//!                           (Perfetto-loadable): one lane per property
//!                           block carrying its phase spans and GC
//!                           cycles; written to FILE or stdout
//! rvmon timeline --daemon <dump.rvfr> [--out FILE]
//!                           convert an rvmond flight-recorder dump into
//!                           the same Chrome trace-event JSON: one lane
//!                           per tenant carrying its request stage spans,
//!                           plus GC cycles, rejects, restarts and
//!                           reloads as instant/complete events
//! rvmon flight  <dump.rvfr>
//!                           render an rvmond flight-recorder dump
//!                           (written on tenant failure, circuit-break,
//!                           or SIGQUIT) as a black-box narrative: the
//!                           event tail plus per-trace stage breakdowns
//! ```
//!
//! The `trace` event file is line-oriented: `event obj…` dispatches an
//! event (objects are named and allocated on first mention), `!free obj`
//! lets an object become garbage, `!gc` runs a heap collection, `!sweep`
//! runs a monitor GC sweep; `#` starts a comment.
//!
//! Exit status: 0 on success, 1 on diagnostics, 2 on usage/IO errors.

use std::process::ExitCode;

use rv_monitor::core::{EngineStats, PhaseProfiler, RecoverError, Recovered, RetryPolicy};
use rv_monitor::logic::{AnyFormalism, Formalism as _};
use rv_monitor::spec::{compile, parse, print, CompiledSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `recover`, `replay`, `top`, and `gc-log` operate on a journal
    // directory, not a spec file — dispatch them before the spec-reading
    // path below.
    // `netchaos` is a pure network tool — no spec file, no journal.
    if args.first().map(String::as_str) == Some("netchaos") {
        return netchaos(&args[1..]);
    }
    // `flight` and `timeline --daemon` operate on a flight-recorder dump
    // file, not a spec — dispatch them before the spec-reading path too.
    if args.first().map(String::as_str) == Some("flight") {
        return flight(&args[1..]);
    }
    if args.len() >= 2 && args[0] == "timeline" && args[1] == "--daemon" {
        return timeline_daemon(&args[2..]);
    }
    if let Some(cmd @ ("recover" | "replay" | "top" | "gc-log")) = args.first().map(String::as_str)
    {
        let [_, dir] = args.as_slice() else {
            eprintln!("usage: rvmon {cmd} <journal-dir>");
            return ExitCode::from(2);
        };
        let dir = std::path::Path::new(dir);
        return match cmd {
            "recover" => recover(dir),
            "replay" => replay(dir),
            "gc-log" => gc_log(dir),
            _ => top(dir),
        };
    }
    let (cmd, path, rest) = match args.as_slice() {
        [cmd, path, rest @ ..] => (cmd.as_str(), path.as_str(), rest),
        _ => {
            eprintln!(
                "usage: rvmon <check|analyze|fmt|dfa|prune|trace|explain|serve|timeline|chaos|run> \
                 <spec-file> [emitted-events|events-file|--seed N --events M|--journal DIR] \
                 | rvmon <recover|replay|top|gc-log> <journal-dir>"
            );
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvmon: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let extra = rest.first().map(String::as_str);
    match cmd {
        "check" | "analyze" | "fmt" | "dfa" if !rest.is_empty() => {
            eprintln!("usage: rvmon {cmd} <spec-file>");
            ExitCode::from(2)
        }
        "check" => check(path, &source),
        "analyze" => analyze(path, &source),
        "fmt" => fmt(path, &source),
        "dfa" => dfa(path, &source),
        "prune" => prune(path, &source, extra),
        "trace" => trace(path, &source, rest),
        "explain" => explain(path, &source, rest),
        "serve" => serve(path, &source, rest),
        "timeline" => timeline(path, &source, rest),
        "chaos" => chaos(path, &source, rest),
        "run" => run(path, &source, rest),
        other => {
            eprintln!("rvmon: unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

/// `rvmon netchaos` — a deterministic seeded TCP fault-injection proxy
/// between a wire client and an rvmond ingest listener. Prints the
/// proxied listen address on stdout (scrape it like rvmond's banner),
/// runs until `--duration-ms` elapses or stdin reaches EOF, then prints
/// the fault counters as JSON.
fn netchaos(rest: &[String]) -> ExitCode {
    use rv_monitor::core::{ChaosProfile, ChaosProxy};

    let usage = || {
        eprintln!(
            "usage: rvmon netchaos --upstream HOST:PORT [--profile k=v,...] [--duration-ms N]\n\
             profile keys: drop dup corrupt truncate reset partition delay (permille), \
             delay_ms, seed"
        );
        ExitCode::from(2)
    };
    let mut upstream: Option<&str> = None;
    let mut profile = ChaosProfile::default();
    let mut duration_ms: u64 = 0;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--upstream" => match it.next() {
                Some(v) => upstream = Some(v),
                None => return usage(),
            },
            "--profile" => match it.next().map(|s| ChaosProfile::parse(s)) {
                Some(Ok(p)) => profile = p,
                Some(Err(e)) => {
                    eprintln!("rvmon: bad chaos profile: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--duration-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => duration_ms = n,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(upstream) = upstream else {
        return usage();
    };
    let mut proxy = match ChaosProxy::start(upstream, profile) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rvmon: cannot start netchaos proxy: {e}");
            return ExitCode::from(2);
        }
    };
    println!("netchaos listening on {} -> {upstream}", proxy.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if duration_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(duration_ms));
    } else {
        // Foreground mode: live until the parent closes our stdin.
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).map_or(false, |n| n > 0) {
            sink.clear();
        }
    }
    proxy.shutdown();
    println!("{}", proxy.stats().to_json());
    ExitCode::SUCCESS
}

/// The deterministic fault-injection differential: every property block of
/// the spec, under every GC policy, driven over a seed-reproducible random
/// workload on a chaos heap and compared against the Figure 5 oracle.
fn chaos(path: &str, source: &str, rest: &[String]) -> ExitCode {
    use rv_monitor::core::{run_block, GcPolicy};

    let mut seed: u64 = 1;
    let mut events: usize = 512;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let value = |v: Option<&String>| v.and_then(|s| s.parse::<u64>().ok());
        match arg.as_str() {
            "--seed" => match value(it.next()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("rvmon: error: --seed takes a numeric argument");
                    return ExitCode::from(2);
                }
            },
            "--events" => match value(it.next()) {
                Some(n) => events = n as usize,
                None => {
                    eprintln!("rvmon: error: --events takes a numeric argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("usage: rvmon chaos <spec-file> [--seed N] [--events M]; got `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut failures = 0u32;
    for block in 0..spec.properties.len() {
        for policy in [GcPolicy::None, GcPolicy::AllParamsDead, GcPolicy::CoenableLazy] {
            match run_block(&spec, block, policy, seed, events) {
                Ok(out) if out.verdicts_match() => println!(
                    "block {} {policy:?} seed {seed}: OK — {} event(s), {} trigger(s), \
                     {} doom(s), {} forced collect(s), {} spike(s)",
                    block + 1,
                    out.trace_len,
                    out.engine_triggers.len(),
                    out.chaos.dooms,
                    out.chaos.forced_collects,
                    out.chaos.spikes
                ),
                Ok(out) => {
                    failures += 1;
                    eprintln!(
                        "block {} {policy:?} seed {seed}: error: VERDICT MISMATCH — \
                         engine reported {:?} but the oracle expected {:?}",
                        block + 1,
                        out.engine_triggers,
                        out.oracle_triggers
                    );
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("block {} {policy:?} seed {seed}: error: {e}", block + 1);
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("rvmon chaos: {failures} failing run(s)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Drives a textual event trace through `monitor` — the shared core of
/// `trace`, `explain`, `serve` and `timeline`, in the grammar of
/// [`rv_monitor::core::line`].
///
/// Errors carry the `file:line: error: message` rendering ready to print.
fn drive_trace<O: rv_monitor::core::EngineObserver>(
    monitor: &mut rv_monitor::core::PropertyMonitor<O>,
    heap: &mut rv_monitor::heap::Heap,
    events_path: &str,
    events: &str,
) -> Result<(), String> {
    use rv_monitor::core::{line, Line, ObjectTable};

    let mut objects = ObjectTable::new(heap);
    for (lineno, raw) in events.lines().enumerate() {
        let report_err =
            |msg: &dyn std::fmt::Display| format!("{events_path}:{}: error: {msg}", lineno + 1);
        match line::parse(raw, monitor.spec()).map_err(|e| report_err(&e))? {
            None => {}
            Some(Line::Gc) => {
                heap.collect();
            }
            Some(Line::Sweep) => {
                for engine in monitor.engines_mut() {
                    engine.full_sweep(heap);
                }
            }
            Some(Line::Free(names)) => {
                objects.free(heap, &names).map_err(|e| report_err(&e))?;
            }
            Some(Line::Event(event, names)) => {
                let params = &monitor.spec().event_params[event.as_usize()];
                let binding = objects.bind(heap, params, &names, |_, _| {});
                monitor
                    .try_process(heap, event, binding)
                    .map_err(|e| report_err(&format!("engine error: {e}")))?;
            }
        }
    }
    Ok(())
}

/// Replays a textual event trace against the compiled spec with a
/// `TraceRecorder` and a `MetricsRegistry` attached to every property
/// block, then dumps what they observed, with each block's `EngineStats`
/// embedded in its snapshot — optionally keeping only the
/// records that pass the `--kind` / `--event` / `--binding-contains`
/// filters (conjunctive when combined).
fn trace(path: &str, source: &str, rest: &[String]) -> ExitCode {
    use rv_monitor::core::{EngineConfig, MetricsRegistry, PropertyMonitor, TraceRecorder};
    use rv_monitor::heap::{Heap, HeapConfig};

    let usage = || {
        eprintln!(
            "usage: rvmon trace <spec-file> <events-file> [--kind K] [--event E] \
             [--binding-contains S]"
        );
        ExitCode::from(2)
    };
    let mut events_path: Option<&str> = None;
    let mut kind: Option<&str> = None;
    let mut event: Option<&str> = None;
    let mut binding_contains: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kind" => match it.next() {
                Some(v) => kind = Some(v.as_str()),
                None => return usage(),
            },
            "--event" => match it.next() {
                Some(v) => event = Some(v.as_str()),
                None => return usage(),
            },
            "--binding-contains" => match it.next() {
                Some(v) => binding_contains = Some(v.as_str()),
                None => return usage(),
            },
            other if events_path.is_none() && !other.starts_with("--") => {
                events_path = Some(other);
            }
            _ => return usage(),
        }
    }
    let Some(events_path) = events_path else {
        return usage();
    };
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let events = match std::fs::read_to_string(events_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvmon: cannot read {events_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let alphabet = spec.alphabet.clone();
    let event_def = spec.event_def.clone();
    let config = EngineConfig::default();
    let mut monitor = PropertyMonitor::with_observers(spec, &config, |_| {
        (
            TraceRecorder::new(65_536).with_names(alphabet.clone(), event_def.clone()),
            MetricsRegistry::new(),
        )
    });

    let mut heap = Heap::new(HeapConfig::manual());
    if let Err(msg) = drive_trace(&mut monitor, &mut heap, events_path, &events) {
        eprintln!("{msg}");
        return ExitCode::from(1);
    }
    // Final sweep so CM reflects everything the engines let go of.
    monitor.finish(&heap);

    // The filters work on the rendered JSONL: every record carries its
    // `"kind"` tag, event references appear as `"name"`/`"last_event"`,
    // and bindings as `"binding"`/`"key"` — stable, hand-rolled shapes.
    let filters_on = kind.is_some() || event.is_some() || binding_contains.is_some();
    let keep = |line: &str| -> bool {
        if let Some(k) = kind {
            if !line.contains(&format!("\"kind\":\"{k}\"")) {
                return false;
            }
        }
        if let Some(e) = event {
            let named = |field: &str| {
                line.split(field).nth(1).and_then(|r| r.split('"').next()).is_some_and(|v| v == e)
            };
            if !(named("\"name\":\"") || named("\"last_event\":\"")) {
                return false;
            }
        }
        if let Some(s) = binding_contains {
            let within = |field: &str| {
                line.split(field)
                    .nth(1)
                    .and_then(|r| r.split('"').next())
                    .is_some_and(|v| v.contains(s))
            };
            if !(within("\"binding\":\"") || within("\"key\":\"")) {
                return false;
            }
        }
        true
    };

    let heap_stats = heap.stats();
    for (i, engine) in monitor.engines_mut().iter_mut().enumerate() {
        let stats = engine.stats();
        let (recorder, metrics) = engine.observer_mut();
        let lines: Vec<String> =
            recorder.records().iter().map(|r| recorder.record_json(r)).collect();
        let kept: Vec<&String> = lines.iter().filter(|l| keep(l)).collect();
        if filters_on {
            println!(
                "# block {} trace ({} records, {} dropped, {} filtered out)",
                i + 1,
                kept.len(),
                recorder.dropped(),
                lines.len() - kept.len()
            );
        } else {
            println!(
                "# block {} trace ({} records, {} dropped)",
                i + 1,
                lines.len(),
                recorder.dropped()
            );
        }
        for line in kept {
            println!("{line}");
        }
        println!("# block {} metrics", i + 1);
        println!("{}", metrics.snapshot_json(&stats, Some(&heap_stats)));
    }
    ExitCode::SUCCESS
}

/// `rvmon explain` — monitor provenance. Replays the events file with a
/// [`ProvenanceLedger`](rv_monitor::core::ProvenanceLedger) on every
/// property block, then prints the life story of each monitor whose
/// binding rendering contains the `--binding` substring and/or the
/// Fig. 10 E/M/FM/CM row re-derived from the per-instance records
/// (`--summary`; also the default with no flags). Either way, the
/// re-derived row is cross-checked against the engine's own statistics:
/// a mismatch is an accounting bug and exits 1.
fn explain(path: &str, source: &str, rest: &[String]) -> ExitCode {
    use rv_monitor::core::{EngineConfig, PropertyMonitor, ProvenanceLedger};
    use rv_monitor::heap::{Heap, HeapConfig};

    let usage = || {
        eprintln!("usage: rvmon explain <spec-file> <events-file> [--binding SUBSTR] [--summary]");
        ExitCode::from(2)
    };
    let mut events_path: Option<&str> = None;
    let mut binding: Option<&str> = None;
    let mut summary = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--binding" => match it.next() {
                Some(v) => binding = Some(v.as_str()),
                None => return usage(),
            },
            "--summary" => summary = true,
            other if events_path.is_none() && !other.starts_with("--") => {
                events_path = Some(other);
            }
            _ => return usage(),
        }
    }
    let Some(events_path) = events_path else {
        return usage();
    };
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let events = match std::fs::read_to_string(events_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvmon: cannot read {events_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let alphabet = spec.alphabet.clone();
    let event_def = spec.event_def.clone();
    let config = EngineConfig::default();
    let mut monitor = PropertyMonitor::with_observers(spec, &config, |_| {
        ProvenanceLedger::new().with_names(alphabet.clone(), event_def.clone())
    });
    let mut heap = Heap::new(HeapConfig::manual());
    if let Err(msg) = drive_trace(&mut monitor, &mut heap, events_path, &events) {
        eprintln!("{msg}");
        return ExitCode::from(1);
    }
    monitor.finish(&heap);

    let mut mismatches = 0u32;
    for (i, engine) in monitor.engines().iter().enumerate() {
        let stats = engine.stats();
        let ledger = engine.observer();
        let s = ledger.summary();
        if summary || binding.is_none() {
            println!(
                "block {}: E={} M={} FM={} CM={} ({} still live)",
                i + 1,
                s.events,
                s.created,
                s.flagged,
                s.collected,
                s.created - s.collected
            );
        }
        if let Some(needle) = binding {
            let hits = ledger.find(needle);
            if hits.is_empty() {
                println!("block {}: no monitor instance matches `{needle}`", i + 1);
            }
            for r in hits {
                print!("{}", ledger.story(r));
            }
        }
        // The accounting identity: per-instance records must re-derive
        // the engine's own E/M/FM/CM exactly (ISSUE acceptance check).
        let engine_row = (
            stats.events,
            stats.monitors_created,
            stats.monitors_flagged,
            stats.monitors_collected,
        );
        let ledger_row = (s.events, s.created, s.flagged, s.collected);
        if ledger_row != engine_row {
            mismatches += 1;
            eprintln!(
                "block {}: error: provenance accounting mismatch — ledger E/M/FM/CM {ledger_row:?} \
                 vs engine {engine_row:?}",
                i + 1
            );
        }
    }
    if mismatches > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// `rvmon serve` — run the events file with a `MetricsRegistry` and a
/// `PhaseProfiler` on every property block, then serve the merged
/// Prometheus text exposition over a std-only HTTP endpoint
/// (`std::net::TcpListener`; any path answers `text/plain; version=0.0.4`,
/// except `/healthz`, which answers a plain-text liveness summary).
fn serve(path: &str, source: &str, rest: &[String]) -> ExitCode {
    use std::io::Write as _;

    use rv_monitor::core::expo::{respond, Endpoint};
    use rv_monitor::core::{
        prometheus_text, EngineConfig, MetricsRegistry, PhaseProfiler, PropertyMonitor,
    };
    use rv_monitor::heap::{Heap, HeapConfig};

    let usage = || {
        eprintln!("usage: rvmon serve <spec-file> <events-file> [--port N] [--once]");
        ExitCode::from(2)
    };
    let mut events_path: Option<&str> = None;
    let mut port: u16 = 0;
    let mut once = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => match it.next().and_then(|s| s.parse::<u16>().ok()) {
                Some(n) => port = n,
                None => return usage(),
            },
            "--once" => once = true,
            other if events_path.is_none() && !other.starts_with("--") => {
                events_path = Some(other);
            }
            _ => return usage(),
        }
    }
    let Some(events_path) = events_path else {
        return usage();
    };
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let events = match std::fs::read_to_string(events_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvmon: cannot read {events_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec_name = spec.name.clone();
    let config = EngineConfig::default();
    let mut monitor = PropertyMonitor::with_observers(spec, &config, |i| {
        (
            MetricsRegistry::new(),
            PhaseProfiler::new().with_label(&format!("{spec_name}/block{}", i + 1)),
        )
    });
    let mut heap = Heap::new(HeapConfig::manual());
    if let Err(msg) = drive_trace(&mut monitor, &mut heap, events_path, &events) {
        eprintln!("{msg}");
        return ExitCode::from(1);
    }
    monitor.finish(&heap);

    // Merge the per-block registries into one; profilers stay per-block
    // (the exposition labels each by property).
    let mut merged = MetricsRegistry::new();
    let mut profilers = Vec::new();
    for engine in monitor.engines() {
        let (metrics, profiler) = engine.observer();
        merged.merge_from(metrics);
        profilers.push(profiler.clone());
    }
    let stats = monitor.stats();
    let body = prometheus_text(&stats, &merged, &profilers);
    // `/healthz` liveness: the engine finished the trace, so report what
    // it processed — a scraper that sees this body knows the monitor is
    // alive and did real work, without parsing the full exposition.
    let health = format!(
        "ok\nblocks {}\nevents {}\ntriggers {}\nmonitors_live {}\n",
        monitor.engines().len(),
        stats.events,
        stats.triggers,
        stats.monitors_created - stats.monitors_collected
    );

    let bound = std::net::TcpListener::bind(("127.0.0.1", port))
        .and_then(|listener| Ok((listener.local_addr()?, listener)));
    let (addr, listener) = match bound {
        Ok(bound) => bound,
        Err(e) => {
            eprintln!("rvmon: cannot bind 127.0.0.1:{port}: {e}");
            return ExitCode::from(2);
        }
    };
    // The actual port goes to stdout (flushed) so harnesses that asked
    // for port 0 can scrape it before connecting.
    println!(
        "serving metrics on http://{addr}/metrics{}",
        if once { " (one request)" } else { "" }
    );
    let _ = std::io::stdout().flush();
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        // A peer reaped without an answer does not spend `--once`.
        let answered = respond(&mut stream, |endpoint| match endpoint {
            Endpoint::Healthz => health.as_str(),
            Endpoint::Metrics => body.as_str(),
        });
        if answered && once {
            break;
        }
    }
    ExitCode::SUCCESS
}

/// `rvmon timeline` — run the events file with a [`SpanLog`] observer on
/// every property block, then export the whole run as one Chrome
/// trace-event JSON timeline (loadable in Perfetto or `chrome://tracing`):
/// one lane per block, carrying its engine phase spans and GC cycles
/// (monitor sweeps, plus the heap's own collections on the first lane).
///
/// [`SpanLog`]: rv_monitor::core::SpanLog
fn timeline(path: &str, source: &str, rest: &[String]) -> ExitCode {
    use rv_monitor::core::{chrome_trace_json, EngineConfig, PropertyMonitor, SpanLog};
    use rv_monitor::heap::{Heap, HeapConfig};

    let usage = || {
        eprintln!("usage: rvmon timeline <spec-file> <events-file> [--out FILE]");
        ExitCode::from(2)
    };
    let mut events_path: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out_path = Some(v.as_str()),
                None => return usage(),
            },
            other if events_path.is_none() && !other.starts_with("--") => {
                events_path = Some(other);
            }
            _ => return usage(),
        }
    }
    let Some(events_path) = events_path else {
        return usage();
    };
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let events = match std::fs::read_to_string(events_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvmon: cannot read {events_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec_name = spec.name.clone();
    let config = EngineConfig::default();
    let mut monitor = PropertyMonitor::with_observers(spec, &config, |_| SpanLog::new());
    let mut heap = Heap::new(HeapConfig::manual());
    if let Err(msg) = drive_trace(&mut monitor, &mut heap, events_path, &events) {
        eprintln!("{msg}");
        return ExitCode::from(1);
    }
    // Heap collections accumulated over the trace land on the first lane
    // (the heap is shared, so exactly one lane may consume its log).
    monitor.observe_heap_cycles(&mut heap);
    monitor.finish(&heap);

    let lanes: Vec<(String, &SpanLog)> = monitor
        .engines()
        .iter()
        .enumerate()
        .map(|(i, e)| (format!("{spec_name}/block{}", i + 1), e.observer()))
        .collect();
    let dropped: u64 = lanes.iter().map(|(_, log)| log.dropped()).sum();
    if dropped > 0 {
        eprintln!("rvmon: note: {dropped} span(s) beyond the per-lane cap were dropped");
    }
    let trace_json = chrome_trace_json(&lanes);
    match out_path {
        Some(file) => {
            if let Err(e) = std::fs::write(file, &trace_json) {
                eprintln!("rvmon: cannot write {file}: {e}");
                return ExitCode::from(2);
            }
            let spans: usize = lanes.iter().map(|(_, log)| log.spans().len()).sum();
            println!(
                "wrote Chrome trace ({} byte(s), {} lane(s), {} span(s)) to {file}",
                trace_json.len(),
                lanes.len(),
                spans
            );
        }
        None => println!("{trace_json}"),
    }
    ExitCode::SUCCESS
}

/// `rvmon flight` — renders an rvmond flight-recorder dump (the
/// `flight-*.rvfr` black box written on tenant failure, circuit-break,
/// or SIGQUIT) as a human narrative: dump metadata, the bounded event
/// tail, and per-request stage breakdowns for the captured exemplars.
fn flight(rest: &[String]) -> ExitCode {
    use rv_monitor::core::FlightDump;

    let [path] = rest else {
        eprintln!("usage: rvmon flight <dump.rvfr>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rvmon: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match FlightDump::parse(&text) {
        Ok(dump) => {
            print!("{}", dump.render_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rvmon: {path} is not a flight dump: {e}");
            ExitCode::from(2)
        }
    }
}

/// `rvmon timeline --daemon` — converts a flight-recorder dump into the
/// same Chrome trace-event JSON the spec-driven `timeline` emits: one
/// lane per tenant carrying its request stage spans, with GC cycles,
/// rejects, restarts, reloads and state changes as timeline events.
fn timeline_daemon(rest: &[String]) -> ExitCode {
    use rv_monitor::core::FlightDump;

    let usage = || {
        eprintln!("usage: rvmon timeline --daemon <dump.rvfr> [--out FILE]");
        ExitCode::from(2)
    };
    let mut dump_path: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out_path = Some(v.as_str()),
                None => return usage(),
            },
            other if dump_path.is_none() && !other.starts_with("--") => {
                dump_path = Some(other);
            }
            _ => return usage(),
        }
    }
    let Some(dump_path) = dump_path else {
        return usage();
    };
    let text = match std::fs::read_to_string(dump_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rvmon: cannot read {dump_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let dump = match FlightDump::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("rvmon: {dump_path} is not a flight dump: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_json = dump.chrome_trace();
    match out_path {
        Some(file) => {
            if let Err(e) = std::fs::write(file, &trace_json) {
                eprintln!("rvmon: cannot write {file}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "wrote Chrome trace ({} byte(s), {} event(s), {} trace(s)) to {file}",
                trace_json.len(),
                dump.events.len(),
                dump.traces.len()
            );
        }
        None => println!("{trace_json}"),
    }
    ExitCode::SUCCESS
}

/// `rvmon top` — one-shot cost table for a journaled run: re-executes
/// the journal from sequence 0 with a phase profiler per block and
/// prints per-phase span counts, p50/p95/p99 and totals, plus the
/// E/M/FM/CM counters.
fn top(dir: &std::path::Path) -> ExitCode {
    use rv_monitor::core::journal::AUX_GC_CYCLE;
    use rv_monitor::core::{GcCycleRecord, Record};

    // A daemon root has no journal of its own — each tenant subdirectory
    // carries one. Attribute costs per tenant instead of erroring out
    // (or, worse, folding every tenant into one row).
    if !dir.join("journal-00000000").exists() {
        let mut tenants: Vec<(String, std::path::PathBuf)> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.join("journal-00000000").exists())
                    .filter_map(|p| {
                        p.file_name().map(|n| (n.to_string_lossy().into_owned(), p.clone()))
                    })
                    .collect()
            })
            .unwrap_or_default();
        tenants.sort();
        if !tenants.is_empty() {
            return top_daemon(dir, &tenants);
        }
    }

    let (rec, merged) = match profiled_replay(dir, "block", "ALL") {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let scan = &rec.plan.scan;
    println!(
        "rvmon top — {} event(s) replayed from {} durable record(s) in {}",
        rec.events,
        scan.records.len(),
        dir.display()
    );
    print_phase_header("");
    print_phases(&merged, "");
    println!("{}", fig10_counts(&rec.monitor.stats()));
    // The journaled GC telemetry, if the run recorded any — one line
    // here, the full per-cycle table under `rvmon gc-log`.
    let gc: Vec<GcCycleRecord> = scan
        .records
        .iter()
        .filter_map(|sr| match &sr.record {
            Record::Aux { tag, bytes } if *tag == AUX_GC_CYCLE => GcCycleRecord::from_bytes(bytes),
            _ => None,
        })
        .collect();
    if !gc.is_empty() {
        let pause: u64 = gc.iter().map(|c| c.pause_ns).sum();
        let reclaimed: u64 = gc.iter().map(|c| c.reclaimed).sum();
        println!(
            "gc: {} journaled cycle(s), {} ns total pause, {} reclaimed — `rvmon gc-log` \
             has the table",
            gc.len(),
            pause,
            reclaimed
        );
    }
    ExitCode::SUCCESS
}

/// Reports `msg` as an error and returns exit code 2, the code for a
/// usage, IO or corrupt-artifact failure.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("rvmon: error: {msg}");
    ExitCode::from(2)
}

/// Replays `dir` from sequence 0 with one phase profiler per block
/// (labelled `{block_label}N`), finishes the run, and merges the
/// profilers into one labelled `label`.
fn profiled_replay(
    dir: &std::path::Path,
    block_label: &str,
    label: &str,
) -> Result<(Recovered<PhaseProfiler>, PhaseProfiler), RecoverError> {
    use rv_monitor::core::{recover, EngineConfig, ReplayFrom};

    let mut rec = recover(dir, ReplayFrom::Start, &EngineConfig::default(), |i| {
        PhaseProfiler::new().with_label(&format!("{block_label}{}", i + 1))
    })?;
    rec.monitor.finish(&rec.heap);
    let mut merged = PhaseProfiler::new().with_label(label);
    for engine in rec.monitor.engines() {
        merged.merge_from(engine.observer());
    }
    Ok((rec, merged))
}

/// Prints the header of the `rvmon top` phase table, led by `prefix`.
fn print_phase_header(prefix: &str) {
    println!(
        "{prefix}{:<18} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "phase", "spans", "p50 ns", "p95 ns", "p99 ns", "total ns"
    );
}

/// Prints one `rvmon top` row, led by `prefix`, per phase with spans.
fn print_phases(merged: &PhaseProfiler, prefix: &str) {
    use rv_monitor::core::Phase;

    for p in Phase::ALL {
        let h = merged.phase(p);
        if h.count() == 0 {
            continue;
        }
        println!(
            "{prefix}{:<18} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>14}",
            p.label(),
            h.count(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.sum()
        );
    }
}

/// The Figure 10 counts and the trigger total, as `rvmon top` prints them.
fn fig10_counts(stats: &EngineStats) -> String {
    format!(
        "E={} M={} FM={} CM={} triggers={}",
        stats.events,
        stats.monitors_created,
        stats.monitors_flagged,
        stats.monitors_collected,
        stats.triggers
    )
}

/// `rvmon top` over a daemon root: one cost table per tenant, each row
/// tagged with the tenant name, from a per-tenant replay. A tenant's
/// journal-append cost is rvmond's own `journal_append` stage, not an
/// engine phase.
fn top_daemon(root: &std::path::Path, tenants: &[(String, std::path::PathBuf)]) -> ExitCode {
    println!("rvmon top — daemon root {} with {} tenant(s)", root.display(), tenants.len());
    print_phase_header(&format!("{:<12} ", "tenant"));
    let mut failures = 0usize;
    for (name, dir) in tenants {
        let result = (|| -> Result<(), String> {
            let (rec, merged) =
                profiled_replay(dir, &format!("{name}/block"), name).map_err(|e| e.to_string())?;
            let scan = &rec.plan.scan;
            print_phases(&merged, &format!("{name:<12} "));
            println!(
                "{name:<12} {} ({} event(s) from {} record(s))",
                fig10_counts(&rec.monitor.stats()),
                rec.events,
                scan.records.len()
            );
            Ok(())
        })();
        if let Err(msg) = result {
            eprintln!("rvmon: tenant `{name}`: {msg}");
            failures += 1;
        }
    }
    if failures == tenants.len() {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// `rvmon run` — the journaled twin of `trace`: the trace goes through the
/// journal writer rvmond's tenants use ([`JournaledMonitor`]), so every
/// line and goal report is written ahead to a checksummed journal before
/// it takes effect, and a full engine checkpoint is written every
/// `--checkpoint-every` events, so `rvmon recover` can resurrect the run
/// after a crash at any byte.
///
/// [`JournaledMonitor`]: rv_monitor::core::JournaledMonitor
fn run(path: &str, source: &str, rest: &[String]) -> ExitCode {
    match run_inner(path, source, rest) {
        Ok(code) => code,
        Err((code, msg)) => {
            eprintln!("rvmon: error: {msg}");
            ExitCode::from(code)
        }
    }
}

/// The `rvmon run` exit for a rejected trace line.
fn line_error(events_path: &str, lineno: usize, e: impl std::fmt::Display) -> (u8, String) {
    (1, format!("{events_path}:{}: {e}", lineno + 1))
}

fn run_inner(path: &str, source: &str, rest: &[String]) -> Result<ExitCode, (u8, String)> {
    use rv_monitor::core::journal::DEFAULT_SEGMENT_BYTES;
    use rv_monitor::core::{
        EngineConfig, Ingest, JournaledMonitor, WriteError, DEFAULT_CHECKPOINT_EVERY,
    };

    let mut events_path: Option<&str> = None;
    let mut journal_dir: Option<&str> = None;
    let mut checkpoint_every = DEFAULT_CHECKPOINT_EVERY;
    let usage = || {
        (
            2u8,
            "usage: rvmon run <spec-file> <events-file> --journal DIR [--checkpoint-every N]"
                .to_owned(),
        )
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal_dir = Some(it.next().ok_or_else(usage)?.as_str()),
            "--checkpoint-every" => {
                checkpoint_every = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(usage)?;
            }
            other if events_path.is_none() && !other.starts_with("--") => {
                events_path = Some(other);
            }
            _ => return Err(usage()),
        }
    }
    let (Some(events_path), Some(journal_dir)) = (events_path, journal_dir) else {
        return Err(usage());
    };
    let journal_dir = std::path::Path::new(journal_dir);
    let events = std::fs::read_to_string(events_path)
        .map_err(|e| (2, format!("cannot read {events_path}: {e}")))?;
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return Ok(code),
    };
    let failed = |lineno: usize, e: WriteError| match e {
        WriteError::Journal(msg) => (2u8, msg),
        engine @ WriteError::Engine(_) => line_error(events_path, lineno, engine),
    };
    let mut w = JournaledMonitor::create(
        journal_dir,
        source,
        spec,
        &EngineConfig::default(),
        RetryPolicy::default(),
        DEFAULT_SEGMENT_BYTES,
    )
    .map_err(|e| failed(0, e))?;
    w.set_checkpoint_every(checkpoint_every);
    for (lineno, raw) in events.lines().enumerate() {
        if let Ingest::Bad(e) =
            w.process_line(1, lineno as u64 + 1, raw).map_err(|e| failed(lineno, e))?
        {
            return Err(line_error(events_path, lineno, e));
        }
    }
    // A final checkpoint makes `recover` on a cleanly finished run a
    // near-instant restore.
    w.finish().map_err(|e| failed(0, e))?;
    let jstats = w.journal_stats();
    println!(
        "journaled run: {} record(s), {} byte(s), {} checkpoint(s) in {}",
        jstats.records,
        jstats.bytes,
        w.checkpoints(),
        journal_dir.display()
    );
    println!("{{\"engine\":{},\"journal\":{}}}", w.monitor().stats().to_json(), jstats.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `rvmon recover` — crash recovery over a journal directory, as `rvmond`
/// recovers a tenant: [`JournaledMonitor::resume`] replays the journal,
/// repairs its torn tail and journals the reports replay refired; a
/// fresh checkpoint follows only when replay re-executed events past the
/// restored one, so recovering a recovered journal writes nothing.
///
/// [`JournaledMonitor::resume`]: rv_monitor::core::JournaledMonitor::resume
fn recover(dir: &std::path::Path) -> ExitCode {
    use rv_monitor::core::{plan_recovery, EngineConfig, JournaledMonitor};

    let plan = match plan_recovery(dir) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let (mut w, rec) =
        match JournaledMonitor::resume(dir, plan, &EngineConfig::default(), RetryPolicy::default())
        {
            Ok(r) => r,
            Err(e) => return fail(e),
        };
    let scan = &rec.plan.scan;
    for reason in &rec.plan.skipped_checkpoints {
        eprintln!("rvmon: warning: skipping checkpoint: {reason}");
    }
    if rec.events > 0 {
        if let Err(e) = w.checkpoint_now() {
            return fail(e);
        }
    }

    println!("recovered {} durable record(s) from {}", scan.records.len(), dir.display());
    match &scan.truncation {
        Some(t) => println!(
            "truncated torn tail: {} at byte {} — {} byte(s) discarded ({})",
            t.file, t.offset, t.lost_bytes, t.reason
        ),
        None => println!("journal tail was clean (no torn records)"),
    }
    match &rec.plan.checkpoint {
        Some(cp) => println!(
            "restored checkpoint generation {} (covers seq < {}), replayed {} event(s)",
            cp.generation, cp.seq, rec.events
        ),
        None => println!("no usable checkpoint — full replay of {} event(s)", rec.events),
    }
    println!("suppressed {} already-delivered goal report(s)", rec.suppressed);
    println!("stats: {}", w.monitor().stats());
    ExitCode::SUCCESS
}

/// `rvmon replay` — audit a journal by re-executing it from sequence 0,
/// across every spec reload it carries.
fn replay(dir: &std::path::Path) -> ExitCode {
    use rv_monitor::core::{recover, EngineConfig, NoopObserver, ReplayFrom};

    let config = EngineConfig::default();
    let mut rec = match recover(dir, ReplayFrom::Start, &config, |_| NoopObserver) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    rec.monitor.finish(&rec.heap);
    if let Err(e) = rec.monitor.check_invariants(&rec.heap) {
        return fail(e);
    }
    let scan = &rec.plan.scan;
    println!(
        "replayed {} event(s) from {} durable record(s) in {}: {} goal report(s)",
        rec.events,
        scan.records.len(),
        dir.display(),
        rec.fired.len()
    );
    if let Some(t) = &scan.truncation {
        println!(
            "note: torn tail at {} byte {} — {} byte(s) ignored ({})",
            t.file, t.offset, t.lost_bytes, t.reason
        );
    }
    for t in &rec.fired {
        println!("block {}: {:?} at step {} for {:?}", t.block + 1, t.verdict, t.step, t.binding);
    }
    println!("stats: {}", rec.monitor.stats());
    ExitCode::SUCCESS
}

/// `rvmon gc-log` — the GC observatory over a journaled run: decodes the
/// journal's [`AUX_GC_CYCLE`] telemetry records into a per-cycle table
/// (kind, reason, pause, scanned/reclaimed/flagged, occupancy
/// before→after), per-kind totals, and an MMU (minimum mutator
/// utilization) summary at several window sizes.
///
/// [`AUX_GC_CYCLE`]: rv_monitor::core::journal::AUX_GC_CYCLE
fn gc_log(dir: &std::path::Path) -> ExitCode {
    use rv_monitor::core::journal::AUX_GC_CYCLE;
    use rv_monitor::core::{mmu_curve, read_journal, GcCycleRecord, GcKind, Record};

    let fail = |msg: String| {
        eprintln!("rvmon: error: {msg}");
        ExitCode::from(2)
    };
    let scan = match read_journal(dir) {
        Ok(s) => s,
        Err(e) => return fail(e.to_string()),
    };
    let mut cycles: Vec<GcCycleRecord> = Vec::new();
    for sr in &scan.records {
        if let Record::Aux { tag, bytes } = &sr.record {
            if *tag == AUX_GC_CYCLE {
                match GcCycleRecord::from_bytes(bytes) {
                    Some(r) => cycles.push(r),
                    None => {
                        return fail(format!(
                            "journal record {} carries a malformed GC-cycle payload \
                             ({} byte(s))",
                            sr.seq,
                            bytes.len()
                        ))
                    }
                }
            }
        }
    }
    println!(
        "rvmon gc-log — {} GC cycle(s) among {} durable record(s) in {}",
        cycles.len(),
        scan.records.len(),
        dir.display()
    );
    if cycles.is_empty() {
        println!("no GC-cycle telemetry — a journal records one cycle per !gc heap");
        println!("collection and one per block for each !sweep");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<5} {:<14} {:<12} {:>12} {:>11} {:>9} {:>10} {:>8} {:>16}",
        "cycle",
        "kind",
        "reason",
        "end ns",
        "pause ns",
        "scanned",
        "reclaimed",
        "flagged",
        "occupancy"
    );
    for (i, c) in cycles.iter().enumerate() {
        println!(
            "{:<5} {:<14} {:<12} {:>12} {:>11} {:>9} {:>10} {:>8} {:>9}\u{2192}{}",
            i + 1,
            c.kind.label(),
            c.reason.label(),
            c.end_ns,
            c.pause_ns,
            c.scanned,
            c.reclaimed,
            c.flagged,
            c.occupancy_before,
            c.occupancy_after
        );
    }
    for kind in [GcKind::HeapCollect, GcKind::MonitorSweep] {
        let of_kind: Vec<&GcCycleRecord> = cycles.iter().filter(|c| c.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let total_pause: u64 = of_kind.iter().map(|c| c.pause_ns).sum();
        let max_pause = of_kind.iter().map(|c| c.pause_ns).max().unwrap_or(0);
        let scanned: u64 = of_kind.iter().map(|c| c.scanned).sum();
        let reclaimed: u64 = of_kind.iter().map(|c| c.reclaimed).sum();
        println!(
            "{}: {} cycle(s), {} ns total pause ({} ns max), {} scanned, {} reclaimed ({:.1}%)",
            kind.label(),
            of_kind.len(),
            total_pause,
            max_pause,
            scanned,
            reclaimed,
            if scanned == 0 { 0.0 } else { 100.0 * reclaimed as f64 / scanned as f64 }
        );
    }
    // MMU over the union of pause intervals. Heap and engine cycle clocks
    // start within the same run setup, so one merged timeline is a fair
    // utilization picture; span is the last recorded cycle end.
    let pauses: Vec<(u64, u64)> = cycles.iter().map(|c| (c.end_ns, c.pause_ns)).collect();
    let span = pauses.iter().map(|&(end, _)| end).max().unwrap_or(0);
    let mut windows: Vec<u64> =
        [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000]
            .into_iter()
            .filter(|&w| w < span)
            .collect();
    windows.push(span);
    println!("mmu (span {span} ns):");
    for (w, u) in mmu_curve(&pauses, span, &windows) {
        println!("  window {w:>12} ns: {:.3}", u);
    }
    ExitCode::SUCCESS
}

/// The §6 instrumentation-pruning analysis: which probes are needed given
/// the events the program can emit at all.
fn prune(path: &str, source: &str, emitted: Option<&str>) -> ExitCode {
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut set = rv_monitor::logic::EventSet::EMPTY;
    match emitted {
        None => set = spec.alphabet.universe(),
        Some(list) => {
            for name in list.split(',').filter(|n| !n.is_empty()) {
                match spec.alphabet.lookup(name) {
                    Some(e) => set = set.with(e),
                    None => {
                        eprintln!("rvmon: `{name}` is not an event of {}", spec.name);
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    println!("program emits: {}", set.display(&spec.alphabet));
    for (i, prop) in spec.properties.iter().enumerate() {
        let rv_monitor::logic::AnyFormalism::Dfa(d) = &prop.formalism else {
            println!("block {}: CFG — pruning analysis is finite-state only", i + 1);
            continue;
        };
        let plan = rv_monitor::logic::instrument::plan(d, prop.goal, set);
        if !plan.can_trigger {
            println!("block {}: can never trigger — remove ALL instrumentation for it", i + 1);
        } else {
            println!("block {}: instrument {}", i + 1, plan.required.display(&spec.alphabet));
        }
    }
    ExitCode::SUCCESS
}

fn compile_or_report(path: &str, source: &str) -> Result<CompiledSpec, ExitCode> {
    match CompiledSpec::from_source(source) {
        Ok(spec) => Ok(spec),
        Err(diag) => {
            let (line, col) = diag.span.line_col(source);
            eprintln!(
                "{path}:{line}:{col}: error: {}{}",
                diag.message,
                diag_squiggle(source, &diag)
            );
            Err(ExitCode::from(1))
        }
    }
}

/// A one-line context snippet under the diagnostic.
fn diag_squiggle(source: &str, diag: &rv_monitor::spec::Diagnostic) -> String {
    let start = diag.span.start.min(source.len());
    let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[start..].find('\n').map_or(source.len(), |i| start + i);
    format!("\n    {}", &source[line_start..line_end])
}

fn check(path: &str, source: &str) -> ExitCode {
    match compile_or_report(path, source) {
        Ok(spec) => {
            println!(
                "{path}: ok — spec `{}`, {} parameter(s), {} event(s), {} property block(s)",
                spec.name,
                spec.param_classes.len(),
                spec.alphabet.len(),
                spec.properties.len()
            );
            for (i, prop) in spec.properties.iter().enumerate() {
                let gc = if prop.coenable.is_some() {
                    "coenable GC available"
                } else {
                    "coenable GC unavailable for this goal (falls back to all-params-dead)"
                };
                println!("  block {}: {:?}, goal {}, {gc}", i + 1, prop.kind, prop.goal);
            }
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn analyze(path: &str, source: &str) -> ExitCode {
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!("=== {} ===", spec.name);
    for (i, prop) in spec.properties.iter().enumerate() {
        println!("-- block {} ({:?}, goal {}) --", i + 1, prop.kind, prop.goal);
        let Some(co) = &prop.coenable else {
            println!("(no coenable sets for this goal)");
            continue;
        };
        print!("{}", co.display(&spec.alphabet));
        // Coenable sets are only computed together with ALIVENESS, but a
        // bad spec should degrade to a message, not a panic.
        let Some(aliveness) = prop.aliveness.as_ref() else {
            println!("(coenable sets present but ALIVENESS missing — internal inconsistency)");
            continue;
        };
        for e in spec.alphabet.iter() {
            let masks: Vec<String> = aliveness
                .masks(e)
                .iter()
                .map(|ps| {
                    let names: Vec<String> = ps
                        .iter()
                        .map(|p| format!("live_{}", spec.event_def.param_name(p)))
                        .collect();
                    if names.is_empty() {
                        "true".into()
                    } else {
                        names.join(" ∧ ")
                    }
                })
                .collect();
            println!(
                "ALIVENESS({}) = {}",
                spec.alphabet.name(e),
                if masks.is_empty() { "false".into() } else { masks.join(" ∨ ") }
            );
        }
    }
    ExitCode::SUCCESS
}

fn fmt(path: &str, source: &str) -> ExitCode {
    match parse(source) {
        Ok(ast) => {
            // Validate before printing so `fmt` never launders a broken spec.
            if let Err(diag) = compile(&ast) {
                {
                    let (line, col) = diag.span.line_col(source);
                    eprintln!("{path}:{line}:{col}: error: {}", diag.message);
                }
                return ExitCode::from(1);
            }
            print!("{}", print(&ast));
            ExitCode::SUCCESS
        }
        Err(diag) => {
            {
                let (line, col) = diag.span.line_col(source);
                eprintln!("{path}:{line}:{col}: error: {}", diag.message);
            }
            ExitCode::from(1)
        }
    }
}

fn dfa(path: &str, source: &str) -> ExitCode {
    let spec = match compile_or_report(path, source) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for (i, prop) in spec.properties.iter().enumerate() {
        println!("-- block {} ({:?}) --", i + 1, prop.kind);
        match &prop.formalism {
            AnyFormalism::Dfa(d) => print!("{d}"),
            AnyFormalism::Cfg(c) => {
                let g = c.grammar();
                println!("reduced grammar with {} production(s):", g.productions().len());
                for p in g.productions() {
                    let rhs: Vec<String> = p
                        .rhs
                        .iter()
                        .map(|s| match s {
                            rv_monitor::logic::cfg::Symbol::T(e) => {
                                spec.alphabet.name(*e).to_owned()
                            }
                            rv_monitor::logic::cfg::Symbol::Nt(n) => {
                                g.nonterminal_names()[*n as usize].clone()
                            }
                        })
                        .collect();
                    println!(
                        "  {} -> {}",
                        g.nonterminal_names()[p.lhs as usize],
                        if rhs.is_empty() { "epsilon".into() } else { rhs.join(" ") }
                    );
                }
                let mut st = c.initial_state();
                let _ = &mut st;
                println!("(monitored by an incremental Earley recognizer)");
            }
        }
        let _ = prop.formalism.alphabet();
    }
    ExitCode::SUCCESS
}
