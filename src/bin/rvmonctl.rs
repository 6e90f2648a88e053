//! `rvmonctl` — operator control for a running rvmond.
//!
//! Speaks the same framed wire protocol as loadgen, through
//! [`ResilientClient`], so control operations inherit the reconnect +
//! idempotency machinery: a `reload` interrupted by a dropped
//! connection retries with the same token and can never double-apply.
//!
//! ```text
//! rvmonctl reload --addr HOST:PORT --tenant NAME --spec FILE [--token N]
//! rvmonctl status --addr HOST:PORT --tenant NAME
//! rvmonctl slo    --addr HOST:PORT --tenant NAME
//! ```

use std::net::TcpStream;
use std::process::ExitCode;

use rv_monitor::core::obs::{json_number_field, json_object_field};
use rv_monitor::core::service::{
    FRAME_BYE, FRAME_HELLO, FRAME_OK, FRAME_REJECT, FRAME_STATS, FRAME_STATS_REPLY,
};
use rv_monitor::core::{
    read_frame, write_frame, ClientStats, ReconnectPolicy, ResilientClient, TenantOptions,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvmonctl reload --addr HOST:PORT --tenant NAME --spec FILE [--token N]\n\
         \x20      rvmonctl status --addr HOST:PORT --tenant NAME\n\
         \x20      rvmonctl slo    --addr HOST:PORT --tenant NAME"
    );
    ExitCode::from(2)
}

/// FNV-1a over tenant + spec text — the default reload idempotency
/// token, matching rvmond's SIGHUP path: same file, same token, no-op.
fn content_token(tenant: &str, source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes().chain([0u8]).chain(source.trim().bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h | 1
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

fn cmd_reload(args: &Args) -> ExitCode {
    let Some(spec_path) = args.spec.as_deref() else {
        return usage();
    };
    let source = match std::fs::read_to_string(spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvmonctl: cannot read {spec_path}: {e}");
            return ExitCode::from(2);
        }
    };
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

/// One shot, raw frames: HELLO (empty attach) then STATS.
fn fetch_stats(args: &Args) -> std::io::Result<String> {
    let mut s = TcpStream::connect(&args.addr)?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let hello =
        rv_monitor::core::service::encode_hello(&args.tenant, "", &TenantOptions::default());
    write_frame(&mut s, FRAME_HELLO, &hello)?;
    match read_frame(&mut s)? {
        Some((FRAME_OK, _)) => {}
        Some((FRAME_REJECT, p)) => {
            let code = p.get(..2).and_then(|b| b.try_into().ok()).map_or(0, u16::from_le_bytes);
            let msg = String::from_utf8_lossy(p.get(2..).unwrap_or(&[])).into_owned();
            return Err(std::io::Error::other(format!("reject {code}: {msg}")));
        }
        _ => return Err(std::io::Error::other("unexpected HELLO reply")),
    }
    write_frame(&mut s, FRAME_STATS, &[])?;
    let reply = loop {
        match read_frame(&mut s)? {
            Some((FRAME_STATS_REPLY, p)) => break String::from_utf8_lossy(&p).into_owned(),
            Some(_) => {}
            None => return Err(std::io::Error::other("closed before STATS_REPLY")),
        }
    };
    let _ = write_frame(&mut s, FRAME_BYE, &[]);
    Ok(reply)
}

fn cmd_status(args: &Args) -> ExitCode {
    match fetch_stats(args) {
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
    let json = match fetch_stats(args) {
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
        for stage in [
            "wire_read",
            "admission",
            "queue_wait",
            "engine",
            "journal_append",
            "journal_fsync",
            "trigger_delivery",
        ] {
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
