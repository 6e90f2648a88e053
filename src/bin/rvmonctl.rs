//! `rvmonctl` — operator control for a running rvmond.
//!
//! Speaks the same framed wire protocol as loadgen, through
//! [`ResilientClient`] only, so control operations inherit the
//! reconnect + idempotency machinery: a `reload` interrupted by a
//! dropped connection retries with the same token and can never
//! double-apply. `status` and `slo` make one attempt (5 s read
//! timeout) and print the tenant's STATS reply; with `--spec` their
//! attach carries that spec, so it also creates the tenant, or starts
//! over one whose journal kept no durable record.
//!
//! ```text
//! rvmonctl reload --addr HOST:PORT --tenant NAME --spec FILE [--token N]
//! rvmonctl status --addr HOST:PORT --tenant NAME [--spec FILE]
//! rvmonctl slo    --addr HOST:PORT --tenant NAME [--spec FILE]
//! ```

use std::process::ExitCode;

use rv_monitor::core::obs::{json_number_field, json_object_field};
use rv_monitor::core::{
    content_token, ClientStats, ReconnectPolicy, ResilientClient, Stage, TenantOptions,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvmonctl reload --addr HOST:PORT --tenant NAME --spec FILE [--token N]\n\
         \x20      rvmonctl status --addr HOST:PORT --tenant NAME [--spec FILE]\n\
         \x20      rvmonctl slo    --addr HOST:PORT --tenant NAME [--spec FILE]"
    );
    ExitCode::from(2)
}

struct Args {
    addr: String,
    tenant: String,
    spec: Option<String>,
    token: Option<u64>,
}

fn parse_args(rest: &[String]) -> Option<Args> {
    let mut out = Args { addr: String::new(), tenant: String::new(), spec: None, token: None };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = it.next()?.clone(),
            "--tenant" => out.tenant = it.next()?.clone(),
            "--spec" => out.spec = Some(it.next()?.clone()),
            "--token" => out.token = Some(it.next()?.parse().ok()?),
            _ => return None,
        }
    }
    if out.addr.is_empty() || out.tenant.is_empty() {
        return None;
    }
    Some(out)
}

/// The `--spec` file's source (empty without `--spec`).
fn read_spec(args: &Args) -> Result<String, ExitCode> {
    let Some(spec_path) = args.spec.as_deref() else {
        return Ok(String::new());
    };
    std::fs::read_to_string(spec_path).map_err(|e| {
        eprintln!("rvmonctl: cannot read {spec_path}: {e}");
        ExitCode::from(2)
    })
}

fn cmd_reload(args: &Args) -> ExitCode {
    if args.spec.is_none() {
        return usage();
    }
    let source = match read_spec(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // The default token matches rvmond's SIGHUP path: same file, same
    // token, no-op.
    let token = args.token.unwrap_or_else(|| content_token(&args.tenant, &source));
    // Attach with an empty spec: rvmonctl never creates tenants, and an
    // empty attach skips the spec-hash check so it works mid-upgrade.
    let mut client = match ResilientClient::connect(
        &args.addr,
        &args.tenant,
        "",
        TenantOptions::default(),
        token,
        ReconnectPolicy::default(),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rvmonctl: cannot attach to `{}` at {}: {e}", args.tenant, args.addr);
            return ExitCode::FAILURE;
        }
    };
    match client.reload(token, &source) {
        Ok(version) => {
            println!("reloaded tenant `{}` to spec v{version} (token {token})", args.tenant);
            let _: ClientStats = client.bye();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rvmonctl: reload failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One attempt: an attach carrying `spec` (empty: attach only), then
/// STATS.
fn fetch_stats(args: &Args, spec: &str) -> std::io::Result<String> {
    let policy = ReconnectPolicy { max_attempts: 1, ..ReconnectPolicy::default() };
    let opts = TenantOptions::default();
    // The session id is moot: this client sends no lines.
    let mut client = ResilientClient::connect(&args.addr, &args.tenant, spec, opts, 1, policy)?;
    let reply = client.server_stats_json()?;
    let _: ClientStats = client.bye();
    Ok(reply)
}

fn cmd_status(args: &Args) -> ExitCode {
    let spec = match read_spec(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match fetch_stats(args, &spec) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rvmonctl: status failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `rvmonctl slo` — renders the tenant's SLO budget and per-stage
/// latency attribution from the same STATS reply `status` dumps raw.
fn cmd_slo(args: &Args) -> ExitCode {
    let spec = match read_spec(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let json = match fetch_stats(args, &spec) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("rvmonctl: slo failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(slo) = json_object_field(&json, "slo") else {
        eprintln!("rvmonctl: STATS reply carries no slo section (old server?)");
        return ExitCode::FAILURE;
    };
    let num = |key: &str| json_number_field(slo, key).unwrap_or(0.0);
    println!("tenant {}", args.tenant);
    println!("  latency objective: p{:.0} <= {:.0}us", num("latency_goal") * 100.0, {
        num("latency_target_us")
    });
    println!(
        "  latency budget:    {:.4} remaining (burn {:.2}x)",
        num("latency_budget_remaining"),
        num("latency_burn_rate")
    );
    println!("  availability:      goal {:.4}", num("availability_goal"));
    println!(
        "  avail budget:      {:.4} remaining (burn {:.2}x)",
        num("availability_budget_remaining"),
        num("availability_burn_rate")
    );
    println!("  requests:          good {:.0} bad {:.0}", num("good_total"), num("bad_total"));
    if let Some(stages) = json_object_field(&json, "stages") {
        println!("  {:<16} {:>9} {:>9} {:>9} {:>9}", "stage", "count", "p50us", "p99us", "maxus");
        for stage in Stage::ALL.map(Stage::label) {
            let f = |suffix: &str| {
                json_number_field(stages, &format!("{stage}_{suffix}")).unwrap_or(0.0)
            };
            println!(
                "  {:<16} {:>9.0} {:>9.1} {:>9.1} {:>9.1}",
                stage,
                f("count"),
                f("p50_us"),
                f("p99_us"),
                f("max_us")
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(parsed) = parse_args(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "reload" => cmd_reload(&parsed),
        "status" => cmd_status(&parsed),
        "slo" => cmd_slo(&parsed),
        _ => usage(),
    }
}
