//! The benchmark's schema: workloads, metric names and units, and the result
//! line. `BENCHMARK.json` at the repository root restates these tables; the
//! tests below pin the two against each other.

use std::fmt::Write as _;

/// One reported metric. `better` and `bound` are read only by the schema
/// tests, which pin them against `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    /// Metric name, as printed in the result line.
    pub name: &'static str,
    /// Unit, as printed in the result line.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which an end-to-end metric may get
    /// worse (`None` for per-layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "registry-sweep",
        "24 pinned registry instances at their pinned windows, clause sharing on: broad shallow search",
    ),
    (
        "deep-window",
        "secure-cached and secure-uncached scanned from k=1 under a fixed conflict budget: deep frames",
    ),
    (
        "certify",
        "certified scans of proofs and witnesses, then every certificate checked independently",
    ),
];

/// Metrics of an untraced run, reported for every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("window_cached", "k", "higher", 0.1),
    e2e("window_uncached", "k", "higher", 0.1),
];

/// Metrics of a traced run, reported for every workload (zero where a
/// layer does no work on that workload).
pub const PER_LAYER: &[Metric] = &[
    layer("core.model.build_s", "s", "lower"),
    layer("bmc.compile.slots", "count", "lower"),
    layer("rtl.coi.signals", "count", "lower"),
    layer("core.session.query_s", "s", "lower"),
    layer("core.engine.overhead_s", "s", "lower"),
    layer("core.session.other_s", "s", "lower"),
    layer("core.session.bounds", "count", "higher"),
    layer("core.session.bounds_unknown", "count", "lower"),
    layer("bmc.encode.s", "s", "lower"),
    layer("bmc.encode.vars", "count", "lower"),
    layer("bmc.encode.clauses", "count", "lower"),
    layer("bmc.trial.s", "s", "lower"),
    layer("sat.simplify.s", "s", "lower"),
    layer("sat.simplify.runs", "count", "lower"),
    layer("sat.simplify.eliminated_vars", "count", "higher"),
    layer("sat.search.s", "s", "lower"),
    layer("sat.search.conflicts", "count", "lower"),
    layer("sat.search.propagations", "count", "lower"),
    layer("sat.search.decisions", "count", "lower"),
    layer("sat.search.restarts", "count", "lower"),
    layer("sat.search.arena_collections", "count", "lower"),
    layer("sat.search.props_per_s", "1/s", "higher"),
    layer("core.share.imports", "count", "higher"),
    layer("core.certify.s", "s", "lower"),
    layer("core.certify.check_s", "s", "lower"),
    layer("core.certify.cert_bytes", "bytes", "lower"),
    layer("sat.drat.log_events", "count", "lower"),
    layer("sat.drat.trim_ratio", "ratio", "lower"),
    layer("sat.drat.check_s", "s", "lower"),
    layer("sim.replay.check_s", "s", "lower"),
    layer("obs.trace_overhead_pct", "%", "lower"),
];

/// A measured value: times and ratios as floats, counters as integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured real number, printed with all its digits.
    Real(f64),
    /// An exact counter.
    Count(u64),
}

#[cfg(test)]
impl Value {
    /// The value as a float.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Real(x) => x,
            Value::Count(n) => n as f64,
        }
    }
}

/// Renders the final result line. `values` must hold one value per metric of
/// `metrics`, in the same order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &[Value],
) -> String {
    assert_eq!(metrics.len(), values.len(), "one value per metric");
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (m, v)) in metrics.iter().zip(values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = match v {
            Value::Real(x) if x.is_finite() => format!("{x:?}"),
            Value::Real(_) => "null".to_string(),
            Value::Count(n) => n.to_string(),
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Just enough JSON to read `BENCHMARK.json` and the result line.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
                other => panic!("not an object: {other:?}"),
            }
        }
        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(m) => m.keys().map(String::as_str).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
        fn num(&self) -> f64 {
            match self {
                Json::Num(x) => *x,
                other => panic!("not a number: {other:?}"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at);
        skip_ws(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing input");
        value
    }

    fn skip_ws(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(b: &[u8], at: &mut usize, lit: &str) {
        assert!(
            b[*at..].starts_with(lit.as_bytes()),
            "expected {lit} at {at}"
        );
        *at += lit.len();
    }

    fn parse_value(b: &[u8], at: &mut usize) -> Json {
        skip_ws(b, at);
        match b[*at] {
            b'{' => {
                *at += 1;
                let mut map = BTreeMap::new();
                skip_ws(b, at);
                if b[*at] == b'}' {
                    *at += 1;
                    return Json::Obj(map);
                }
                loop {
                    skip_ws(b, at);
                    let Json::Str(key) = parse_value(b, at) else {
                        panic!("object key must be a string")
                    };
                    skip_ws(b, at);
                    expect(b, at, ":");
                    let value = parse_value(b, at);
                    assert!(map.insert(key, value).is_none(), "duplicate key");
                    skip_ws(b, at);
                    if b[*at] == b',' {
                        *at += 1;
                    } else {
                        expect(b, at, "}");
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                *at += 1;
                let mut items = Vec::new();
                skip_ws(b, at);
                if b[*at] == b']' {
                    *at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(parse_value(b, at));
                    skip_ws(b, at);
                    if b[*at] == b',' {
                        *at += 1;
                    } else {
                        expect(b, at, "]");
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                *at += 1;
                let start = *at;
                while b[*at] != b'"' {
                    assert_ne!(b[*at], b'\\', "escapes are not used in the schema");
                    *at += 1;
                }
                *at += 1;
                Json::Str(String::from_utf8(b[start..*at - 1].to_vec()).unwrap())
            }
            b't' => {
                expect(b, at, "true");
                Json::Bool(true)
            }
            b'f' => {
                expect(b, at, "false");
                Json::Bool(false)
            }
            b'n' => {
                expect(b, at, "null");
                Json::Null
            }
            _ => {
                let start = *at;
                while *at < b.len()
                    && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *at += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*at])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    fn assert_metrics_match(listed: &Json, table: &[Metric]) {
        let listed = listed.arr();
        assert_eq!(listed.len(), table.len());
        for (entry, metric) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").str(), metric.name);
            assert_eq!(entry.get("unit").str(), metric.unit);
            assert_eq!(entry.get("better").str(), metric.better);
            match metric.bound {
                Some(bound) => {
                    assert_eq!(entry.keys(), ["better", "bound", "name", "unit"]);
                    assert_eq!(entry.get("bound").num(), bound);
                }
                None => assert_eq!(entry.keys(), ["better", "name", "unit"]),
            }
        }
    }

    #[test]
    fn benchmark_json_restates_the_schema() {
        let json = benchmark_json();
        assert_eq!(
            json.keys(),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names: Vec<&str> = json
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected);
        for (entry, (_, why)) in json.get("workloads").arr().iter().zip(WORKLOADS) {
            assert_eq!(entry.keys(), ["name", "why"]);
            assert_eq!(entry.get("why").str(), *why);
        }
        assert_metrics_match(json.get("end_to_end"), END_TO_END);
        assert_metrics_match(json.get("per_layer"), PER_LAYER);
        let paths: Vec<&str> = json.get("paths").arr().iter().map(Json::str).collect();
        assert_eq!(paths, ["upecbench"]);
        let command: Vec<&str> = json.get("command").arr().iter().map(Json::str).collect();
        assert!(command.contains(&"upecbench/Cargo.toml"), "{command:?}");
    }

    #[test]
    fn schema_obeys_its_own_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(largest <= 0.25);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let values: Vec<Value> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i % 2 == 0 {
                    Value::Real(0.125 + i as f64)
                } else {
                    Value::Count(i as u64)
                }
            })
            .collect();
        let line = result_line(true, 7, 0, END_TO_END, &values);
        assert!(!line.contains('\n'));
        let json = parse(&line);
        assert_eq!(json.keys(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(json.get("correct"), &Json::Bool(true));
        assert_eq!(json.get("attempted").num(), 7.0);
        let metrics = json.get("metrics");
        assert_eq!(metrics.keys().len(), END_TO_END.len());
        for (m, v) in END_TO_END.iter().zip(&values) {
            let entry = metrics.get(m.name);
            assert_eq!(entry.get("unit").str(), m.unit);
            assert_eq!(entry.get("value").num(), v.as_f64());
        }
    }
}
