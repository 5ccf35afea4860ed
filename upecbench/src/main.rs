//! `upecbench` — the UPEC engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path upecbench/Cargo.toml -- \
//!     --workload <registry-sweep|deep-window|certify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark measures the engine from outside: it times calls to the
//! public `upec` API (`ScenarioInstance::build_model`,
//! `UpecEngine::run_instances`, `UpecEngine::check_certified`,
//! `CertifiedResult::check_all`) and reads the counters those calls return.
//! With `--trace 1` it additionally installs an `obs::MemorySink`, folds the
//! spans the crates emit into per-layer self times, and reports those
//! instead of the end-to-end metrics. Every verdict is checked against its
//! pinned expectation; the last line of standard output is one JSON object
//! with the result. See `upecbench/README.md` for the metric map.

mod fold;
mod schema;

use obs::SpanRecord;
use schema::{Metric, Value, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::{BTreeSet, HashMap};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use upec::scenarios::{self, ScenarioInstance};
use upec::{
    BoundStatus, BoundSummary, EngineOptions, InstanceResult, ScanVerdict, UpecEngine, UpecModel,
    VerdictCertificate,
};

/// Conflict budget of each `deep-window` scenario scan.
const DEEP_BUDGET: u64 = 300_000;
/// Scan ceiling of `deep-window`; the budget runs out long before it.
const DEEP_MAX_WINDOW: usize = 40;
/// The `certify` mix: DRAT proofs (`secure-uncached`, `secure-arch-only`,
/// the early bounds of `cache-footprint`), P-alert witnesses
/// (`secure-cached`, `cache-footprint`, `meltdown`) and L-alert witnesses
/// (`meltdown-timing`, `orc`).
const CERTIFY_IDS: &[&str] = &[
    "secure-uncached",
    "secure-cached",
    "secure-arch-only",
    "cache-footprint",
    "meltdown-timing",
    "orc",
    "meltdown",
];
/// Set-up is timed in two batches, one before and one after the measured
/// passes, so that its median spans the run rather than one moment of it.
/// Each batch repeats set-up at least [`SETUP_MIN_REPS`] times and for at
/// least [`SETUP_BATCH_TIME`].
const SETUP_MIN_REPS: usize = 5;
const SETUP_BATCH_TIME: Duration = Duration::from_millis(500);
/// Spans charged as query layers by the self-time fold.
const QUERY_ROOT: &str = "upec.check_bound";
const LAYERS: &[&str] = &[
    QUERY_ROOT,
    "bmc.encode",
    "bmc.trial_solve",
    "sat.simplify",
    "sat.search",
];
/// The named layers of a traced query must match the query's own measured
/// runtime within this share (plus [`FOLD_SLACK`] for tiny queries).
const FOLD_TOLERANCE: f64 = 0.10;
const FOLD_SLACK: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RegistrySweep,
    DeepWindow,
    Certify,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "registry-sweep" => Some(Self::RegistrySweep),
            "deep-window" => Some(Self::DeepWindow),
            "certify" => Some(Self::Certify),
            _ => None,
        }
    }

    /// The workload's instances in seed order (seed 0: registry order).
    fn plan(self, seed: u64) -> Vec<ScenarioInstance> {
        let by_id = |id: &str| scenarios::instance_by_id(id).expect("registered instance");
        let mut plan: Vec<ScenarioInstance> = match self {
            Self::RegistrySweep => scenarios::instances()
                .into_iter()
                .filter(|i| i.spec.id != "pmp-lock")
                .collect(),
            Self::DeepWindow => ["secure-cached", "secure-uncached"]
                .into_iter()
                .map(|id| ScenarioInstance {
                    max_window: DEEP_MAX_WINDOW,
                    ..by_id(id)
                })
                .collect(),
            Self::Certify => CERTIFY_IDS.iter().map(|id| by_id(id)).collect(),
        };
        permute(&mut plan, seed);
        plan
    }

    fn engine(self) -> UpecEngine {
        let options = EngineOptions::new().with_threads(1);
        UpecEngine::new(match self {
            Self::RegistrySweep | Self::Certify => options,
            Self::DeepWindow => options
                .with_clause_sharing(false)
                .with_scenario_budget(sat::Budget::conflicts(DEEP_BUDGET)),
        })
    }
}

/// Fisher–Yates shuffle driven by `rtl::SplitMix64`; seed 0 keeps the order.
fn permute<T>(items: &mut [T], seed: u64) {
    if seed == 0 {
        return;
    }
    let mut rng = rtl::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_u64_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Attempted and failed operations, with a note per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// The miters of a workload, built before the timed part.
struct Setup {
    models: Vec<(UpecModel, BTreeSet<String>)>,
    build_s: f64,
    total_s: f64,
}

fn setup(plan: &[ScenarioInstance]) -> Setup {
    let start = Instant::now();
    let mut build = Duration::ZERO;
    let models = plan
        .iter()
        .map(|instance| {
            let t = Instant::now();
            let model = {
                let mut span = obs::span("bench.build_model");
                span.attr_str("id", &instance.id());
                instance.build_model()
            };
            build += t.elapsed();
            let commitment = instance.commitment_set(&model);
            (model, commitment)
        })
        .collect();
    Setup {
        models,
        build_s: build.as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Everything one pass of a workload measures from outside.
#[derive(Default)]
struct Unit {
    wall_s: f64,
    query_s: f64,
    bounds: u64,
    bounds_unknown: u64,
    encode_vars: u64,
    encode_clauses: u64,
    window_cached: u64,
    window_uncached: u64,
    certify_s: f64,
    check_s: f64,
    cert_bytes: u64,
    /// Runtime of each scanned bound, by (instance id, window).
    runtimes: HashMap<(String, u64), Duration>,
    /// Trimmed DRAT events of each proof certificate, by (instance id, window).
    proof_events: HashMap<(String, u64), u64>,
}

fn decided(status: BoundStatus) -> bool {
    matches!(
        status,
        BoundStatus::Proven | BoundStatus::PAlert | BoundStatus::LAlert
    )
}

/// Deepest `k` such that bounds `1..=k` are all decided.
fn decided_prefix<'a>(bounds: impl Iterator<Item = &'a BoundSummary>) -> u64 {
    let mut k = 0;
    for b in bounds {
        if b.bound as u64 != k + 1 || !decided(b.status) {
            break;
        }
        k += 1;
    }
    k
}

impl Unit {
    /// Records the per-bound counters every workload shares.
    fn add_bounds(&mut self, id: &str, bounds: &[BoundSummary]) {
        for b in bounds {
            self.query_s += b.runtime.as_secs_f64();
            self.runtimes
                .insert((id.to_string(), b.bound as u64), b.runtime);
            if decided(b.status) {
                self.bounds += 1;
            } else {
                self.bounds_unknown += 1;
            }
        }
        if let Some(deepest) = bounds
            .iter()
            .filter(|b| decided(b.status))
            .max_by_key(|b| b.bound)
        {
            self.encode_vars += deepest.variables as u64;
            self.encode_clauses += deepest.clauses as u64;
        }
    }

    fn set_window(&mut self, id: &str, window: u64) {
        match id {
            "secure-cached" => self.window_cached = window,
            "secure-uncached" => self.window_uncached = window,
            _ => {}
        }
    }
}

fn run_unit(
    workload: Workload,
    plan: &[ScenarioInstance],
    setup: &Setup,
    tally: &mut Tally,
) -> Unit {
    let engine = workload.engine();
    let mut unit = Unit::default();
    match workload {
        Workload::RegistrySweep | Workload::DeepWindow => {
            let t = Instant::now();
            let results = {
                let _span = obs::span("bench.run_instances");
                engine.run_instances(plan.iter().copied())
            };
            unit.wall_s = t.elapsed().as_secs_f64();
            for r in &results {
                eprintln!("{}", r.summary());
                if workload == Workload::RegistrySweep {
                    check_pinned(r, tally);
                } else {
                    check_budgeted(r, tally);
                }
                let id = r.instance.id();
                unit.add_bounds(&id, &r.bounds);
                unit.set_window(&id, decided_prefix(r.bounds.iter()));
            }
        }
        Workload::Certify => {
            // Each instance is certified, then checked, then dropped, so the
            // peak memory is that of the largest instance, whatever the order.
            for (instance, (model, _)) in plan.iter().zip(&setup.models) {
                let id = instance.id();
                let t = Instant::now();
                let r = {
                    let mut span = obs::span("bench.check_certified");
                    span.attr_str("id", &id);
                    engine.check_certified(instance)
                };
                unit.certify_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let check = r.check_all(model);
                unit.check_s += t.elapsed().as_secs_f64();

                tally.check(r.matches_expectation(), || {
                    format!(
                        "{id}: expected {:?}, got {:?}",
                        r.instance.expected, r.verdict
                    )
                });
                for b in &r.bounds {
                    let k = b.summary.bound;
                    tally.check(decided(b.summary.status) && b.certificate.is_some(), || {
                        format!("{id}: k={k} {:?} without a certificate", b.summary.status)
                    });
                    if let Some(c) = &b.certificate {
                        unit.cert_bytes += c.size_bytes() as u64;
                        if let VerdictCertificate::Proof(p) = c {
                            unit.proof_events
                                .insert((id.clone(), k as u64), p.proof.num_events() as u64);
                        }
                    }
                }
                match check {
                    Ok(reports) => tally.passed(reports.len() as u64),
                    Err(e) => tally.check(false, || format!("{id}: certificate rejected: {e}")),
                }
                let summaries: Vec<BoundSummary> = r.bounds.iter().map(|b| b.summary).collect();
                unit.add_bounds(&id, &summaries);
                // Every certificate was checked, so the decided prefix is
                // also the certified window.
                unit.set_window(&id, decided_prefix(summaries.iter()));
            }
            unit.wall_s = unit.certify_s;
        }
    }
    unit
}

/// Checks an instance scan whose verdict is pinned by the registry.
fn check_pinned(r: &InstanceResult, tally: &mut Tally) {
    let id = r.instance.id();
    tally.check(r.matches_expectation(), || {
        format!(
            "{id}: expected {:?}, got {:?}",
            r.instance.expected, r.verdict
        )
    });
    for b in &r.bounds {
        tally.check(decided(b.status), || {
            format!("{id}: k={} is {:?}", b.bound, b.status)
        });
    }
}

/// Checks a budgeted scan of a secure design. The budget ends the scan, so
/// the aggregate verdict is Inconclusive; every decided bound must still
/// agree with the scenario: `secure-uncached` never alerts and
/// `secure-cached` only P-alerts.
fn check_budgeted(r: &InstanceResult, tally: &mut Tally) {
    let id = r.instance.id();
    let allowed = |s: BoundStatus| match id.as_str() {
        "secure-uncached" => s == BoundStatus::Proven,
        _ => s == BoundStatus::Proven || s == BoundStatus::PAlert,
    };
    tally.check(r.verdict != ScanVerdict::Insecure, || {
        format!("{id}: verdict {:?} on a secure design", r.verdict)
    });
    for b in r.bounds.iter().filter(|b| decided(b.status)) {
        tally.check(allowed(b.status), || {
            format!("{id}: k={} is {:?}", b.bound, b.status)
        });
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One batch of timed set-ups; returns the last one for the passes to use.
fn time_setups(plan: &[ScenarioInstance], times: &mut Vec<f64>) -> Setup {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let s = setup(plan);
        times.push(s.total_s);
        reps += 1;
        if reps >= SETUP_MIN_REPS && started.elapsed() >= SETUP_BATCH_TIME {
            return s;
        }
    }
}

/// Untraced run: the workload repeated while the next pass still fits in
/// `seconds`, between two batches of set-ups; medians are reported.
fn measure(
    workload: Workload,
    plan: &[ScenarioInstance],
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Value>, String> {
    let mut setup_times = Vec::new();
    let setup_state = time_setups(plan, &mut setup_times);

    let measuring = Instant::now();
    let mut walls = Vec::new();
    let mut windows = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let unit = run_unit(workload, plan, &setup_state, tally);
        longest = longest.max(t.elapsed());
        walls.push(unit.wall_s);
        windows.push((unit.window_cached, unit.window_uncached));
        if (measuring.elapsed() + longest).as_secs_f64() > seconds {
            break;
        }
    }
    // Conflict counts are deterministic on one thread, so every pass must
    // reach the same windows.
    tally.check(windows.iter().all(|w| *w == windows[0]), || {
        format!("feasible windows differ between passes: {windows:?}")
    });
    let (window_cached, window_uncached) = windows[0];
    drop(time_setups(plan, &mut setup_times));
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    eprintln!("{} pass(es), {} set-up(s)", walls.len(), setup_times.len());
    Ok(vec![
        Value::Real(median(&mut setup_times)),
        Value::Real(median(&mut walls)),
        Value::Real(rss),
        Value::Count(window_cached),
        Value::Count(window_uncached),
    ])
}

/// Traced run: one untraced pass for the overhead baseline, then one pass
/// under an `obs::MemorySink` whose spans are folded into the layer table.
fn measure_traced(workload: Workload, plan: &[ScenarioInstance], tally: &mut Tally) -> Vec<Value> {
    let baseline = run_unit(workload, plan, &setup(plan), tally);
    let sink = Arc::new(obs::MemorySink::new());
    obs::install(sink.clone());
    let s = setup(plan);
    let unit = run_unit(workload, plan, &s, tally);
    obs::uninstall();
    let spans = sink.spans();
    drop(sink);
    tally.check(
        (unit.window_cached, unit.window_uncached)
            == (baseline.window_cached, baseline.window_uncached),
        || "tracing changed the feasible windows".to_string(),
    );

    check_fold(&spans, &unit, tally);
    let layer = fold::self_times(&spans, LAYERS);
    let secs = |name: &str| layer.get(name).copied().unwrap_or(0) as f64 * 1e-9;
    let sum_attr = |span_name: &str, key: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == span_name)
            .filter_map(|s| fold::attr_u64(s, key))
            .sum()
    };
    let check_secs = |kind: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == "cert.check" && fold::attr_str(s, "kind") == Some(kind))
            .map(|s| s.duration_ns)
            .sum::<u64>() as f64
            * 1e-9
    };
    let search_s = secs("sat.search");
    let propagations = sum_attr("sat.search", "propagations");
    let (log_events, trim_ratio) = drat_sizes(&spans, &unit);
    let slots: usize = s
        .models
        .iter()
        .map(|(m, _)| m.compiled_transition().stats().scheduled_slots)
        .sum();
    let cone: usize = s
        .models
        .iter()
        .map(|(m, _)| m.compiled_transition().stats().coi.cone_signals)
        .sum();

    let values: HashMap<&str, Value> = [
        ("core.model.build_s", Value::Real(s.build_s)),
        ("bmc.compile.slots", Value::Count(slots as u64)),
        ("rtl.coi.signals", Value::Count(cone as u64)),
        ("core.session.query_s", Value::Real(unit.query_s)),
        (
            "core.engine.overhead_s",
            Value::Real(unit.wall_s - unit.query_s),
        ),
        ("core.session.other_s", Value::Real(secs(QUERY_ROOT))),
        ("core.session.bounds", Value::Count(unit.bounds)),
        (
            "core.session.bounds_unknown",
            Value::Count(unit.bounds_unknown),
        ),
        ("bmc.encode.s", Value::Real(secs("bmc.encode"))),
        ("bmc.encode.vars", Value::Count(unit.encode_vars)),
        ("bmc.encode.clauses", Value::Count(unit.encode_clauses)),
        ("bmc.trial.s", Value::Real(secs("bmc.trial_solve"))),
        ("sat.simplify.s", Value::Real(secs("sat.simplify"))),
        (
            "sat.simplify.runs",
            Value::Count(spans.iter().filter(|s| s.name == "sat.simplify").count() as u64),
        ),
        (
            "sat.simplify.eliminated_vars",
            Value::Count(sum_attr("sat.simplify", "eliminated_vars")),
        ),
        ("sat.search.s", Value::Real(search_s)),
        (
            "sat.search.conflicts",
            Value::Count(sum_attr("sat.search", "conflicts")),
        ),
        ("sat.search.propagations", Value::Count(propagations)),
        (
            "sat.search.decisions",
            Value::Count(sum_attr("sat.search", "decisions")),
        ),
        (
            "sat.search.restarts",
            Value::Count(sum_attr("sat.search", "restarts")),
        ),
        (
            "sat.search.arena_collections",
            Value::Count(sum_attr("sat.search", "arena_collections")),
        ),
        (
            "sat.search.props_per_s",
            Value::Real(if search_s > 0.0 {
                propagations as f64 / search_s
            } else {
                0.0
            }),
        ),
        (
            "core.share.imports",
            Value::Count(sum_attr("sat.search", "shared_clause_imports")),
        ),
        ("core.certify.s", Value::Real(unit.certify_s)),
        ("core.certify.check_s", Value::Real(unit.check_s)),
        ("core.certify.cert_bytes", Value::Count(unit.cert_bytes)),
        ("sat.drat.log_events", Value::Count(log_events)),
        ("sat.drat.trim_ratio", Value::Real(trim_ratio)),
        ("sat.drat.check_s", Value::Real(check_secs("proof"))),
        ("sim.replay.check_s", Value::Real(check_secs("witness"))),
        (
            "obs.trace_overhead_pct",
            Value::Real(100.0 * (unit.wall_s - baseline.wall_s) / baseline.wall_s),
        ),
    ]
    .into_iter()
    .collect();
    PER_LAYER
        .iter()
        .map(|m| {
            *values
                .get(m.name)
                .unwrap_or_else(|| panic!("no value for {}", m.name))
        })
        .collect()
}

/// The instance id and window of a traced query span.
fn query_key(tree: &fold::Tree, i: usize) -> Option<(String, u64)> {
    let window = fold::attr_u64(tree.span(i), "window")?;
    let owner = tree.find_up(i, |s| fold::attr_str(s, "id").is_some())?;
    Some((fold::attr_str(tree.span(owner), "id")?.to_string(), window))
}

/// Checks that the fold accounts for every traced query: the layers nest
/// inside the query span exactly, and the named layers match the runtime
/// the engine reported for that bound within [`FOLD_TOLERANCE`].
fn check_fold(spans: &[SpanRecord], unit: &Unit, tally: &mut Tally) {
    let tree = fold::Tree::new(spans);
    let folds = fold::query_folds(spans, QUERY_ROOT, LAYERS);
    tally.check(
        folds.len() == unit.runtimes.len() - skipped_bounds(unit),
        || {
            format!(
                "{} traced queries for {} scanned bounds",
                folds.len(),
                unit.runtimes.len()
            )
        },
    );
    for f in &folds {
        let root = tree.span(f.root);
        let key = query_key(&tree, f.root);
        let runtime = key.as_ref().and_then(|k| unit.runtimes.get(k)).copied();
        let named: u64 = f
            .layers
            .iter()
            .filter(|(name, _)| **name != QUERY_ROOT)
            .map(|(_, ns)| ns)
            .sum();
        let ok = f.overlap_ns == 0
            && f.accounted_ns() == root.duration_ns
            && runtime.is_some_and(|rt| {
                let gap = (named as f64 - rt.as_nanos() as f64).abs();
                gap <= FOLD_TOLERANCE * rt.as_nanos() as f64 + FOLD_SLACK.as_nanos() as f64
            });
        tally.check(ok, || {
            format!(
                "fold of {key:?}: layers {:?}, overlap {} ns, query {} ns, runtime {runtime:?}",
                f.layers, f.overlap_ns, root.duration_ns
            )
        });
    }
}

/// Bounds the scan recorded without running a query (budget already spent).
fn skipped_bounds(unit: &Unit) -> usize {
    unit.runtimes.values().filter(|rt| rt.is_zero()).count()
}

/// DRAT log size and trimming: the final log size of every certified
/// session, and trimmed events over logged events across proof certificates.
fn drat_sizes(spans: &[SpanRecord], unit: &Unit) -> (u64, f64) {
    let tree = fold::Tree::new(spans);
    // Largest log size seen under each query, and under each session.
    let mut at_query: HashMap<(String, u64), u64> = HashMap::new();
    let mut per_session: HashMap<String, u64> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name != "sat.proof_log" {
            continue;
        }
        let events = fold::attr_u64(span, "events").unwrap_or(0);
        let Some(key) = tree
            .find_up(i, |s| s.name == QUERY_ROOT)
            .and_then(|q| query_key(&tree, q))
        else {
            continue;
        };
        let session = per_session.entry(key.0.clone()).or_default();
        *session = (*session).max(events);
        let query = at_query.entry(key).or_default();
        *query = (*query).max(events);
    }
    let (mut trimmed, mut logged) = (0u64, 0u64);
    for (key, events) in &unit.proof_events {
        if let Some(log) = at_query.get(key) {
            trimmed += events;
            logged += log;
        }
    }
    let ratio = if logged > 0 {
        trimmed as f64 / logged as f64
    } else {
        0.0
    };
    (per_session.values().sum(), ratio)
}

fn print_table(metrics: &[Metric], values: &[Value]) {
    for (m, v) in metrics.iter().zip(values) {
        let shown = match v {
            Value::Real(x) => format!("{x:.6}"),
            Value::Count(n) => n.to_string(),
        };
        println!("{:<32} {:>16} {}", m.name, shown, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("upecbench: {e}");
            eprintln!("usage: upecbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let plan = args.workload.plan(args.seed);
    let mut tally = Tally::default();
    let (metrics, values) = if args.trace {
        (PER_LAYER, measure_traced(args.workload, &plan, &mut tally))
    } else {
        match measure(args.workload, &plan, args.seconds, &mut tally) {
            Ok(values) => (END_TO_END, values),
            Err(e) => {
                eprintln!("upecbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    print_table(metrics, &values);
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("{:<32} {failed_ratio:>16.6} ratio", "failed_ratio");
    let correct = tally.failed == 0;
    println!(
        "{}",
        schema::result_line(correct, tally.attempted, tally.failed, metrics, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_registry_order_and_other_seeds_permute() {
        let registry: Vec<String> = Workload::RegistrySweep
            .plan(0)
            .iter()
            .map(|i| i.id())
            .collect();
        assert_eq!(registry.len(), 24);
        assert!(!registry.iter().any(|id| id.starts_with("pmp-lock")));
        let expected: Vec<String> = scenarios::instances()
            .iter()
            .map(|i| i.id())
            .filter(|id| id != "pmp-lock")
            .collect();
        assert_eq!(registry, expected);
        let shuffled: Vec<String> = Workload::RegistrySweep
            .plan(7)
            .iter()
            .map(|i| i.id())
            .collect();
        assert_ne!(shuffled, registry);
        assert_eq!(
            shuffled.iter().collect::<BTreeSet<_>>(),
            registry.iter().collect::<BTreeSet<_>>()
        );
        let again: Vec<String> = Workload::RegistrySweep
            .plan(7)
            .iter()
            .map(|i| i.id())
            .collect();
        assert_eq!(shuffled, again);
    }

    #[test]
    fn every_workload_parses_and_plans() {
        for (name, _) in WORKLOADS {
            let w = Workload::parse(name).expect(name);
            assert!(!w.plan(3).is_empty());
        }
        let deep = Workload::DeepWindow.plan(0);
        assert!(deep
            .iter()
            .all(|i| i.start_window == 1 && i.max_window == DEEP_MAX_WINDOW));
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload certify --seed 4 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Certify, 4, 30.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload certify --trace 2").is_err());
        assert!(parse("--workload certify --seed").is_err());
        assert!(parse("--workload certify --bogus 1").is_err());
    }

    fn bound(k: usize, status: BoundStatus) -> BoundSummary {
        BoundSummary {
            bound: k,
            status,
            conflicts: 0,
            runtime: Duration::ZERO,
            variables: 0,
            clauses: 0,
        }
    }

    #[test]
    fn decided_prefix_stops_at_the_first_undecided_bound() {
        use BoundStatus::*;
        let b = [
            bound(1, Proven),
            bound(2, PAlert),
            bound(3, Unknown),
            bound(4, Proven),
        ];
        assert_eq!(decided_prefix(b.iter()), 2);
        assert_eq!(decided_prefix([bound(2, Proven)].iter()), 0);
        assert_eq!(decided_prefix([].iter()), 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
