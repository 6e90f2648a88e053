//! `rvbench` — the repository benchmark: end-to-end metrics for the
//! in-process RV engine and the `rvmond` daemon, and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! rvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!         [--rvmond PATH] [--out DIR] [--inject-mismatch]
//! ```
//!
//! Workloads: `engine-bloat`, `engine-avrora`, `daemon-durable`,
//! `daemon-lossy`. With `--trace 0` the last stdout line is a JSON object
//! carrying every end-to-end metric; with `--trace 1` every per-layer
//! metric. Metrics of a layer the workload does not exercise read 0.
//! `--inject-mismatch` corrupts the recorded reference values, so the
//! correctness gate must fail the run (exit 1). Spans, per-tenant disk use
//! and the run environment are written to
//! `DIR/<workload>-seed<N>-trace<T>.json`.

mod daemon;
mod engine;
mod layers;
mod monitor;
mod report;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rv_core::obs::json_escape as escape;
use rv_workloads::Profile;

use crate::report::{fnv1a, Gate, Metrics, Spans};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("overhead_pct", "%"),
    ("peak_kib", "KiB"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("logic.step_ns", "ns"),
    ("engine.hit_ns_p50", "ns"),
    ("engine.hit_share", "ratio"),
    ("engine.miss_ns_p50", "ns"),
    ("engine.create_ns_p50", "ns"),
    ("engine.create_ns_p99", "ns"),
    ("engine.create_share", "ratio"),
    ("engine.busy_s", "s"),
    ("engine.monitors_created", "count"),
    ("engine.monitors_flagged", "count"),
    ("engine.monitors_collected", "count"),
    ("engine.peak_live_monitors", "count"),
    ("engine.collected_per_flagged", "ratio"),
    ("engine.phase.index_lookup_ms", "ms"),
    ("engine.phase.disable_check_ms", "ms"),
    ("engine.phase.transition_ms", "ms"),
    ("engine.phase.dead_key_expunge_ms", "ms"),
    ("engine.phase.aliveness_ms", "ms"),
    ("sweep.ms", "ms"),
    ("sweep.reclaimed", "count"),
    ("heap.gc_ms", "ms"),
    ("heap.collections", "count"),
    ("workloads.bare_ms", "ms"),
    ("service.wire_read_us_p50", "us"),
    ("service.wire_read_us_p99", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.engine_us_p50", "us"),
    ("service.engine_us_p99", "us"),
    ("service.journal_append_us_p50", "us"),
    ("service.journal_append_us_p99", "us"),
    ("service.journal_fsync_us_p50", "us"),
    ("service.journal_fsync_us_p99", "us"),
    ("journal.fsyncs", "count"),
    ("client.send_ns_p50", "ns"),
    ("client.sync_us_p50", "us"),
    ("client.sync_us_p99", "us"),
    ("client.sync_samples", "count"),
    ("journal.bytes", "bytes"),
    ("journal.files", "count"),
    ("snapshot.checkpoints", "count"),
    ("snapshot.bytes", "bytes"),
    ("disk_mib", "MiB"),
    ("recover_s", "s"),
    ("recover.read_journal_ms", "ms"),
    ("recover.load_checkpoint_ms", "ms"),
    ("recover.replayed_events", "count"),
    ("client.reconnects", "count"),
    ("client.resent_lines", "count"),
    ("client.useful_send_ratio", "ratio"),
    ("netchaos.faults", "count"),
    ("batch.samples", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_frac", "ratio"),
];

/// One run's settings.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub inject_mismatch: bool,
    pub out_dir: PathBuf,
    pub rvmond: Option<PathBuf>,
    pub epoch: Instant,
}

impl RunCfg {
    /// The generator seed for a workload whose built-in seed is `base`:
    /// seed 0 keeps the built-in one.
    pub fn workload_seed(&self, base: u64) -> u64 {
        base.wrapping_add(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What a workload run hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub gate: Gate,
    pub spans: Spans,
    /// Extra `"key":value` JSON members for the trace file.
    pub detail: Vec<String>,
}

impl Outcome {
    pub fn new(cfg: &RunCfg) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            gate: Gate::default(),
            spans: Spans::new(cfg.epoch),
            detail: Vec::new(),
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("rvbench: {msg}");
    eprintln!(
        "usage: rvbench --workload engine-bloat|engine-avrora|daemon-durable|daemon-lossy \
         [--seed N] [--seconds S] [--trace 0|1] [--rvmond PATH] [--out DIR] [--inject-mismatch]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        traced: false,
        inject_mismatch: false,
        out_dir: PathBuf::from(".bench_out"),
        rvmond: None,
        epoch: Instant::now(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => {
                let v = value()?;
                cfg.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                cfg.seconds = match v.parse::<u64>() {
                    Ok(n) if n > 0 => Duration::from_secs(n),
                    _ => return Err(format!("bad --seconds {v}")),
                };
            }
            "--trace" => {
                let v = value()?;
                cfg.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}")),
                };
            }
            "--rvmond" => cfg.rvmond = Some(PathBuf::from(value()?)),
            "--out" => cfg.out_dir = PathBuf::from(value()?),
            "--inject-mismatch" => cfg.inject_mismatch = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => return usage(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        return usage(&format!("cannot create {}: {e}", cfg.out_dir.display()));
    }

    let outcome = match cfg.workload.as_str() {
        "engine-bloat" => {
            engine::EngineWorkload { profile: Profile::bloat(), scale: 1.0 }.run(&cfg)
        }
        "engine-avrora" => {
            engine::EngineWorkload { profile: Profile::avrora(), scale: 10.0 }.run(&cfg)
        }
        "daemon-durable" | "daemon-lossy" => {
            let Some(bin) = cfg.rvmond.clone() else {
                return usage("daemon workloads need --rvmond PATH");
            };
            let workload = if cfg.workload == "daemon-durable" {
                daemon::DaemonWorkload::durable(bin)
            } else {
                daemon::DaemonWorkload::lossy(bin)
            };
            match workload.run(&cfg) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("rvbench: {}: {e}", cfg.workload);
                    return ExitCode::from(1);
                }
            }
        }
        "" => return usage("--workload is required"),
        other => return usage(&format!("unknown workload {other}")),
    };

    let mut metrics = outcome.metrics;
    let table = if cfg.traced {
        let frac = outcome.gate.failed as f64 / outcome.gate.attempted.max(1) as f64;
        metrics.push("failed_frac", frac, "ratio");
        PER_LAYER
    } else {
        END_TO_END
    };
    let metrics = assemble(table, metrics);
    let correct = outcome.gate.correct();
    for f in &outcome.gate.failures {
        eprintln!("rvbench: CHECK FAILED: {f}");
    }
    let env = env_json(&cfg);
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.gate.attempted.max(1),
        outcome.gate.failed,
        metrics.to_json()
    );
    let failures: Vec<String> =
        outcome.gate.failures.iter().map(|f| format!("\"{}\"", escape(f))).collect();
    let mut detail = outcome.detail;
    detail.push(format!("\"self_times\":{}", outcome.spans.self_times_json()));
    detail.push(format!("\"spans\":{}", outcome.spans.to_json()));
    let file = cfg.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.traced)
    ));
    let doc = format!(
        "{{\"env\":{env},\"result\":{result},\"failures\":[{}],{}}}\n",
        failures.join(","),
        detail.join(",\n")
    );
    if let Err(e) = std::fs::write(&file, doc) {
        eprintln!("rvbench: cannot write {}: {e}", file.display());
    }
    println!("{{\"env\":{env}}}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Orders `got` by `table`. A metric of a layer this workload does not
/// exercise reads 0.
fn assemble(table: &[(&str, &'static str)], got: Metrics) -> Metrics {
    let mut got = got.0;
    let mut out = Metrics::default();
    for &(name, unit) in table {
        match got.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = got.swap_remove(i);
                assert_eq!(m.unit, unit, "unit of {name}");
                out.0.push(m);
            }
            None => out.push(name, 0.0, unit),
        }
    }
    let names: Vec<&str> = got.iter().map(|m| m.name.as_str()).collect();
    assert!(names.is_empty(), "metrics missing from the table: {names:?}");
    out
}

/// The run environment: cores, CPU, compiler, source revision, seed.
fn env_json(cfg: &RunCfg) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let command_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"nproc\":{nproc},\
         \"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"source_digest\":\"{:016x}\"}}",
        escape(&cfg.workload),
        cfg.seed,
        cfg.seconds.as_secs(),
        cfg.traced,
        escape(&cpu),
        escape(&command_line("rustc", &["--version"])),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        source_digest()
    )
}

/// FNV-1a over the sources the benchmark builds, so a result names the
/// code it measured even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml" || e == "lock") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "rvbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "rvbench/Cargo.toml"].map(PathBuf::from));
    files.sort();
    let mut h = 0;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h = fnv1a(h, f.to_string_lossy().as_bytes());
            h = fnv1a(h, &bytes);
        }
    }
    h
}
