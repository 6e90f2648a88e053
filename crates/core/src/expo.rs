//! The one exposition stack that `rvmon serve` and `rvmond` share.
//!
//! [`Exposition`] writes the Prometheus text format (`version=0.0.4`): a
//! family is declared once, which writes its `# HELP`/`# TYPE`, and its
//! [`Family`] writer escapes every label value. Engine families are named
//! `rvmon_*`, daemon families `rvmond_*`. [`respond`] answers one HTTP
//! request: `/healthz` gets the liveness body, any other path the
//! exposition.

use std::fmt::{Display, Write as _};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use crate::obs::{Histogram, HISTOGRAM_BUCKETS};

/// The Prometheus metric type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic count; the family name ends in `_total`.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Power-of-two buckets from an [`obs::Histogram`](Histogram).
    Histogram,
}

/// A Prometheus text exposition under construction; starts empty.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

/// One declared metric family; writes that family's samples.
#[derive(Debug)]
pub struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

impl Exposition {
    /// Declares the family `name`: writes its `# HELP` and `# TYPE`
    /// lines and returns the writer for its samples.
    pub fn family<'a>(&'a mut self, name: &'a str, help: &str, kind: Kind) -> Family<'a> {
        debug_assert!(kind != Kind::Counter || name.ends_with("_total"), "counter {name}");
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        };
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        Family { out: &mut self.out, name }
    }

    /// The finished text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

impl Family<'_> {
    /// Writes the sample `name{labels} value` (bare `name value` when
    /// `labels` is empty). `value` prints with its own `Display`, so a
    /// caller picks the precision, e.g. `format_args!("{v:.4}")`.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl Display) {
        self.series("", labels, value);
    }

    /// Writes one histogram series: the non-empty finite buckets and
    /// `+Inf`, all cumulative, then `_sum` and `_count`. An empty
    /// histogram writes nothing.
    pub fn histogram(&mut self, labels: &[(&str, &str)], h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        let mut cumulative: u64 = 0;
        for (i, &c) in h.bucket_counts().iter().enumerate().take(HISTOGRAM_BUCKETS) {
            cumulative = cumulative.saturating_add(c);
            if c > 0 {
                let le = (1u64 << i).to_string();
                self.series("_bucket", &[labels, &[("le", &le)]].concat(), cumulative);
            }
        }
        self.series("_bucket", &[labels, &[("le", "+Inf")]].concat(), h.count());
        self.series("_sum", labels, h.sum());
        self.series("_count", labels, h.count());
    }

    /// Writes one sample line, escaping every label value.
    fn series(&mut self, suffix: &str, labels: &[(&str, &str)], value: impl Display) {
        let _ = write!(self.out, "{}{suffix}", self.name);
        for (i, (key, v)) in labels.iter().enumerate() {
            let v = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            let _ = write!(self.out, "{}{key}=\"{v}\"", if i == 0 { '{' } else { ',' });
        }
        let close = if labels.is_empty() { "" } else { "}" };
        let _ = writeln!(self.out, "{close} {value}");
    }
}

/// Which body a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`: the plain-text liveness summary.
    Healthz,
    /// Any other path: the Prometheus exposition.
    Metrics,
}

/// Read and write timeout on every accepted peer: both binaries answer
/// serially, so a stalled peer holds the endpoint at most this long.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// Answers one HTTP request on `stream` with the body `route` returns
/// for the requested [`Endpoint`], as `200` with `Content-Length`, then
/// closes the connection. A peer that errors or times out before its
/// request head is complete, or closes without sending a byte, is
/// dropped unanswered. Returns whether a response was sent.
pub fn respond<B: AsRef<str>>(stream: &mut TcpStream, route: impl FnOnce(Endpoint) -> B) -> bool {
    let endpoint = read_head(stream);
    if let Some(endpoint) = endpoint {
        let content_type = match endpoint {
            Endpoint::Healthz => "text/plain; charset=utf-8",
            Endpoint::Metrics => "text/plain; version=0.0.4; charset=utf-8",
        };
        let body = route(endpoint);
        let body = body.as_ref();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
    }
    let _ = stream.shutdown(Shutdown::Both);
    endpoint.is_some()
}

/// Sets the peer timeouts, reads the request head up to the blank line
/// (or EOF, or 4 KiB) and routes its path; `None` when the peer sent
/// nothing or failed first.
fn read_head(stream: &mut TcpStream) -> Option<Endpoint> {
    stream.set_read_timeout(Some(PEER_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(PEER_TIMEOUT)).ok()?;
    let mut buf = [0u8; 4096];
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(read) => n += read,
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf[..n]);
    let path = head.lines().next().and_then(|line| line.split_whitespace().nth(1));
    (n > 0).then_some(if path == Some("/healthz") { Endpoint::Healthz } else { Endpoint::Metrics })
}

#[cfg(test)]
#[path = "../../../tests/common/lint.rs"]
pub(crate) mod lint;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_write_help_type_and_escaped_samples() {
        let mut expo = Exposition::default();
        expo.family("x_total", "Things", Kind::Counter).sample(&[], 3);
        // Backslash escapes first, so the later escapes are not doubled.
        let labels = [("a", r"b\c"), ("q", "say \"hi\"\nbye"), ("o", "\\\"\n")];
        expo.family("y", "Odd labels", Kind::Gauge).sample(&labels, format_args!("{:.2}", 0.5));
        let text = expo.finish();
        assert_eq!(
            text,
            "# HELP x_total Things\n# TYPE x_total counter\nx_total 3\n\
             # HELP y Odd labels\n# TYPE y gauge\n\
             y{a=\"b\\\\c\",q=\"say \\\"hi\\\"\\nbye\",o=\"\\\\\\\"\\n\"} 0.50\n"
        );
        lint::lint_exposition(&text);
    }

    #[test]
    fn histograms_are_cumulative_and_skip_empty_buckets() {
        let mut h = Histogram::default();
        for v in [1, 3, 3, 100] {
            h.record(v);
        }
        let mut expo = Exposition::default();
        let mut f = expo.family("h_ns", "H", Kind::Histogram);
        f.histogram(&[("k", "v")], &h);
        f.histogram(&[("k", "empty")], &Histogram::default());
        expo.family("bare_ns", "Bare", Kind::Histogram).histogram(&[], &h);
        let text = expo.finish();
        assert!(!text.contains("empty"), "{text}");
        assert!(text.contains("h_ns_bucket{k=\"v\",le=\"4\"} 3\n"), "{text}");
        assert!(text.contains("h_ns_bucket{k=\"v\",le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("h_ns_sum{k=\"v\"} 107\nh_ns_count{k=\"v\"} 4\n"), "{text}");
        assert!(text.contains("bare_ns_bucket{le=\"+Inf\"} 4\nbare_ns_sum 107\n"), "{text}");
        lint::lint_exposition(&text);
    }
}
