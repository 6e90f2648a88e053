//! Result assembly: named metrics, order statistics, the correctness
//! gate, in-memory spans, and the small hand-rolled JSON helpers.

use std::fmt::Write as _;
use std::time::Instant;

use rv_core::obs::json_escape as escape;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_owned(), value, unit });
    }

    /// The metrics as one JSON object `{"name":{"value":v,"unit":u},…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(&m.name),
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (never expected) render as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Median of unsorted samples (0 when empty), interpolating between
/// the middle two.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quantile of integer samples (sorted in place), as `f64`.
pub fn quantile_u64(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (samples[lo] as f64, samples[hi] as f64);
    a + (b - a) * (pos - lo as f64)
}

/// The correctness gate: every check names the operations it vouches
/// for, and a failing check counts them as failed.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Counts `ops` operations as attempted.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts `ops` already-attempted operations as failed when `ok` is false.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One closed span: a named interval and the span that caused it.
#[derive(Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory for the traced run, written out at the end.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` (and any span left open inside it).
    pub fn exit(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_ns = end.saturating_sub(self.spans[top].start_ns);
            if top == id {
                break;
            }
        }
    }

    /// Records an already-timed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        let start_ns = self.ns(start);
        let dur_ns = self.ns(end).saturating_sub(start_ns);
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            dur_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Moves `other`'s spans (same epoch) under the innermost open span.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Per span name: count, total duration and total self time (duration
    /// minus the union of its children's intervals), in milliseconds.
    pub fn self_times_json(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].start_ns + self.spans[c].dur_ns))
                .collect();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let e = by_name.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(covered);
        }
        let rows: Vec<String> = by_name
            .iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "\"{}\":{{\"count\":{n},\"total_ms\":{},\"self_ms\":{}}}",
                    escape(name),
                    num(*total as f64 / 1e6),
                    num(*own as f64 / 1e6)
                )
            })
            .collect();
        format!("{{{}}}", rows.join(","))
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"parent\":{}}}",
                    escape(&s.name),
                    num(s.start_ns as f64 / 1e3),
                    num(s.dur_ns as f64 / 1e3),
                    s.parent.map_or("null".to_owned(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// The balanced `{...}` value of `"key":` in a flat JSON document.
pub fn json_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":{{");
    let start = json.find(&needle)? + needle.len() - 1;
    let mut depth = 0usize;
    for (i, b) in json[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The first bare numeric field `"key":<number>` in `json`.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
