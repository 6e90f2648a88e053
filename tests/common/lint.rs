//! The exposition lint shared by every test that reads Prometheus text:
//! the `rvmon serve` scrape, `Service::prometheus`, and the writer's own
//! unit tests.

use std::collections::{HashMap, HashSet};

/// Panics unless `text` is a well-formed Prometheus text exposition:
///
/// * comment lines are `# HELP name …` or `# TYPE name counter|gauge|histogram`,
///   each family has exactly one of each, and counters end in `_total`;
/// * every sample is `name value` or `name{k="v",…} value` with escaped
///   label values and a numeric value;
/// * every sample's family (a histogram's `_bucket`/`_sum`/`_count` series
///   belong to the histogram) has its `# HELP` and `# TYPE` before the
///   sample;
/// * no series appears twice;
/// * histogram buckets are cumulative and `+Inf` equals `_count`.
pub fn lint_exposition(text: &str) {
    let mut helps = HashSet::new();
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut series = HashSet::new();
    // Per histogram series (labels without `le`): the last bucket count,
    // and the `+Inf` count once seen.
    let mut buckets: HashMap<String, u64> = HashMap::new();
    let mut infs: HashMap<String, u64> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            assert!(helps.insert(name), "duplicate # HELP for `{name}`");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad type `{kind}` for `{name}`"
            );
            assert!(
                kind != "counter" || name.ends_with("_total"),
                "counter without _total: {name}"
            );
            assert!(types.insert(name, kind).is_none(), "duplicate # TYPE for `{name}`");
            continue;
        }
        assert!(!line.starts_with('#'), "bad comment line: {line}");
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample: {line}"));
        assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line}");
        assert!(series.insert(key), "duplicate series `{key}`");
        let (name, labels) = parse_series(key).unwrap_or_else(|| panic!("bad series: {line}"));
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).filter(|f| types.get(f) == Some(&"histogram")))
            .unwrap_or(name);
        assert!(types.contains_key(family), "sample before its # TYPE: {line}");
        assert!(helps.contains(family), "sample before its # HELP: {line}");
        if family == name {
            assert!(types[family] != "histogram", "bare histogram sample: {line}");
            continue;
        }
        let le = labels.iter().find(|(k, _)| *k == "le").map(|(_, v)| v.as_str());
        let rest: Vec<String> =
            labels.iter().filter(|(k, _)| *k != "le").map(|(k, v)| format!("{k}={v:?}")).collect();
        let id = format!("{family}{{{}}}", rest.join(","));
        match (&name[family.len()..], le) {
            ("_bucket", Some(le)) => {
                let count: u64 = value.parse().expect("bucket counts are integers");
                let prev = buckets.insert(id.clone(), count).unwrap_or(0);
                assert!(count >= prev, "non-cumulative buckets: {line}");
                if le == "+Inf" {
                    infs.insert(id, count);
                }
            }
            ("_count", None) => {
                let inf = infs.get(&id).unwrap_or_else(|| panic!("_count before +Inf: {line}"));
                assert_eq!(value.parse::<u64>().ok(), Some(*inf), "+Inf != _count: {line}");
            }
            ("_sum", None) => {}
            _ => panic!("bad histogram sample: {line}"),
        }
    }
    assert!(!series.is_empty(), "empty exposition");
}

/// Splits `name{k="v",…}` into the name and its unescaped labels;
/// `None` when the syntax is off.
fn parse_series(key: &str) -> Option<(&str, Vec<(&str, String)>)> {
    let Some((name, mut rest)) = key.split_once('{') else {
        return valid_name(key).then_some((key, Vec::new()));
    };
    if !valid_name(name) {
        return None;
    }
    let mut labels = Vec::new();
    loop {
        let (label, tail) = rest.split_once("=\"")?;
        if !valid_name(label) {
            return None;
        }
        let mut value = String::new();
        let mut chars = tail.char_indices();
        let end = loop {
            match chars.next()? {
                (i, '"') => break i,
                (_, '\\') => value.push(match chars.next()?.1 {
                    '\\' => '\\',
                    '"' => '"',
                    'n' => '\n',
                    _ => return None,
                }),
                (_, '\n') => return None,
                (_, c) => value.push(c),
            }
        };
        labels.push((label, value));
        rest = &tail[end + 1..];
        if rest == "}" {
            return Some((name, labels));
        }
        rest = rest.strip_prefix(',')?;
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}
