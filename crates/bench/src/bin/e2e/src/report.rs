//! The three commands: one workload in this process (the `BENCHMARK.json`
//! contract), every workload round-robin in child processes, and the
//! comparison of two reports.

use std::process::{Command, ExitCode};

use crate::harness::WorkloadFns;
use crate::host::Host;
use crate::json::Json;
use crate::measure::{
    end_to_end, per_layer, per_layer_table, RunResult, ADVISORY, END_TO_END, EXACT_BOUND,
    SAME_VIRTUAL, WALL_METRICS,
};
use crate::stats::Summary;
use crate::workloads;

/// Seconds one run measures when the driver calls it (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

fn result_line(r: &RunResult) -> String {
    let failed = r.failed.min(r.attempted);
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Run one workload here and print its report, then the result line.
pub fn run_one(
    w: &WorkloadFns,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&str>,
) -> ExitCode {
    let host = Host::probe();
    let unresolved = host.wall_unresolved();
    let run = if trace {
        per_layer(w, seed, seconds, trace_out)
    } else {
        end_to_end(w, seed, seconds, unresolved.as_deref())
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("host: {}", host.to_json().render());
    print!("{}", run.text);
    if let Some(extra) = &run.extra {
        // For `e2e` without `--workload`, which collects it from its children.
        let exact = extra.exact.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        let line = Json::obj([
            (ADVISORY.0, Json::Num(extra.wall_us_per_op)),
            ("exact", Json::Obj(exact.collect())),
        ]);
        println!("{EXTRA_TAG}{}", line.render());
    }
    println!("{}", result_line(&run));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2e: {} of {} operations were wrong",
            run.failed, run.attempted
        );
        ExitCode::FAILURE
    }
}

/// Prefix of the line an end-to-end run prints with what the result line's
/// contract has no room for: the advisory wall value and the `EXACT` classes.
const EXTRA_TAG: &str = "e2e-extra: ";

/// Re-run this executable for one workload; its result line, with the
/// advisory wall value added to its metrics and the `exact` classes beside
/// them (if the run printed them).
fn child(w: &WorkloadFns, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child, so no process outlives this call.
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    // A run that found wrong results exits non-zero but still prints its
    // result line; without one the run itself broke.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut result = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .filter(|r| r.get("metrics").is_some())
        .ok_or_else(|| {
            format!(
                "{} exited with {} and no result line\n{}",
                w.name,
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let extra = stdout
        .lines()
        .find_map(|l| l.strip_prefix(EXTRA_TAG))
        .and_then(|v| Json::parse(v).ok());
    if let (Some(extra), Json::Obj(fields)) = (extra, &mut result) {
        if let Some(exact) = extra.get("exact") {
            fields.push(("exact".to_string(), exact.clone()));
        }
        let wall = extra.get(ADVISORY.0).and_then(Json::as_f64);
        let metrics = fields.iter_mut().find(|(k, _)| k == "metrics");
        if let (Some(wall), Some((_, Json::Obj(metrics)))) = (wall, metrics) {
            let value = Json::obj([("value", Json::Num(wall)), ("unit", Json::str(ADVISORY.1))]);
            metrics.push((ADVISORY.0.to_string(), value));
        }
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, `rounds` times, round-robin (so noise that lasts a while
/// lands on every workload, not on one), each run in its own process and
/// with its own seed; then one traced run per workload. Prints medians and
/// quartiles over the rounds and writes the report `--compare` reads.
pub fn run_all(seed: u64, seconds: f64, rounds: usize, out: Option<&str>) -> ExitCode {
    match all(seed, seconds, rounds, out) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(wrong) => {
            eprintln!("e2e: {wrong} operations were wrong");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `EXACT` classes of one workload over its runs: the first run's values,
/// and whether every other run (each has its own seed) read the same.
fn exact_classes(runs: &[Json]) -> (Json, bool) {
    let of = |r: &Json| r.get("exact").cloned().unwrap_or(Json::Obj(Vec::new()));
    let first = of(&runs[0]);
    let same = runs.iter().all(|r| {
        let other = of(r);
        first.as_obj().unwrap_or(&[]).iter().all(|(class, v)| {
            match (v.as_f64(), other.get(class).and_then(Json::as_f64)) {
                (Some(a), Some(b)) => (a - b).abs() <= SAME_VIRTUAL * a.abs(),
                _ => false,
            }
        })
    });
    (first, same)
}

/// Returns the number of wrong operations over all runs.
fn all(seed: u64, seconds: f64, rounds: usize, out: Option<&str>) -> Result<u64, String> {
    let host = Host::probe();
    println!("host: {}", host.to_json().render());
    // Judged once, before the first run: the runs themselves keep both cores
    // busy, so the load average a child sees is this benchmark's own.
    let unresolved = host.wall_unresolved();
    if let Some(why) = &unresolved {
        println!("wall metrics are UNRESOLVED on this host: {why}");
    }
    let count = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); workloads::ALL.len()];
    for round in 0..rounds {
        for (w, runs) in workloads::ALL.iter().zip(&mut results) {
            let seed = seed.wrapping_add(round as u64);
            eprintln!("round {} of {rounds}: {} (seed {seed})", round + 1, w.name);
            runs.push(child(w, seed, seconds, false)?);
        }
    }
    let mut layers = Vec::new();
    for w in &workloads::ALL {
        eprintln!("per-layer run: {}", w.name);
        layers.push(child(w, seed, seconds, true)?);
    }

    let mut wrong = 0.0;
    let mut doc_workloads = Vec::new();
    for ((w, runs), layer) in workloads::ALL.iter().zip(&results).zip(&layers) {
        println!("== {} ({} runs of {seconds} s)", w.name, runs.len());
        let mut metrics = Vec::new();
        for (name, unit, bound) in END_TO_END.into_iter().chain([ADVISORY]) {
            // A wall number from a host that cannot resolve it is withheld,
            // from the text and from the report `--compare` reads.
            if let Some(why) = unresolved.as_ref().filter(|_| WALL_METRICS.contains(&name)) {
                println!("  {name:<16} {:>16} {unit:<8} {why}", "unresolved");
                let fields = [("unit", Json::str(unit)), ("unresolved", Json::str(why))];
                metrics.push((name.to_string(), Json::obj(fields)));
                continue;
            }
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
            let s = Summary::of(&values).ok_or_else(|| format!("{}: no {name}", w.name))?;
            println!(
                "  {name:<16} {:>16.6} {unit:<8} q1 {:.6} q3 {:.6} spread {:.2}% (bound {:.0}%) n={}",
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0,
                bound * 100.0,
                s.n
            );
            metrics.push((
                name.to_string(),
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let attempted: f64 = runs.iter().map(|r| count(r, "attempted")).sum();
        let failed: f64 = runs.iter().map(|r| count(r, "failed")).sum();
        wrong += failed + count(layer, "failed");
        println!(
            "  {:<16} {:>16.6} ratio    {failed} of {attempted} ops wrong",
            "fail_ratio",
            failed / attempted
        );
        let (exact, same) = exact_classes(runs);
        for (class, v) in exact.as_obj().unwrap_or(&[]) {
            let v = v.as_f64().unwrap_or(f64::NAN);
            println!("  exact {class:<28} {v:>16.9} virt_us");
        }
        if !same {
            println!("  AN EXACT CLASS DIFFERS BETWEEN THE RUNS");
            wrong += 1.0;
        }
        for (name, v) in layer.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            println!(
                "  {name:<40} {:>18.6} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        doc_workloads.push(Json::obj([
            ("name", Json::str(w.name)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("end_to_end", Json::Obj(metrics)),
            ("exact_virt_us", exact),
            (
                "per_layer",
                layer.get("metrics").cloned().unwrap_or(Json::Null),
            ),
        ]));
    }
    if let Some(path) = out {
        let doc = Json::obj([
            ("schema", Json::str("e2e-report-2")),
            ("seed", Json::Num(seed as f64)),
            ("rounds", Json::Num(rounds as f64)),
            ("seconds", Json::Num(seconds)),
            ("host", host.to_json()),
            ("workloads", Json::Arr(doc_workloads)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(wrong as u64)
}

/// What a comparison says about one pairing.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    /// Worse than the bound, on a gated metric: decides the exit code.
    Breach,
    /// Worse than the bound, on the advisory metric: shown, never fatal.
    OverAdvisory,
    /// No verdict either way: a wall metric a host guard withheld, or runs
    /// that spread wider than the bound (then "within" would only be noise).
    Unresolved(String),
}

/// One row of a comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`; every end-to-end metric is lower-is-better, so
    /// positive is worse.
    pub rel: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn row(workload: &str, metric: String, a: f64, b: f64, bound: f64, gated: bool) -> Row {
    let rel = (b - a) / a;
    // NaN (a zero baseline) counts as over: it must not pass silently.
    let verdict = match (rel.is_nan() || rel > bound, gated) {
        (false, _) => Verdict::Within,
        (true, true) => Verdict::Breach,
        (true, false) => Verdict::OverAdvisory,
    };
    Row {
        workload: workload.into(),
        metric,
        a,
        b,
        rel,
        bound,
        verdict,
    }
}

/// Compare report `b` (the change, or the second set) against report `a`
/// (the parent, or the first set): one row per workload × end-to-end metric,
/// then one per `EXACT` class of the workload, held to [`EXACT_BOUND`].
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workload = |doc: &Json, name: &str| -> Result<Json, String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            })
            .cloned()
            .ok_or_else(|| format!("report has no {name}"))
    };
    let mut rows = Vec::new();
    for w in &workloads::ALL {
        let (wa, wb) = (workload(a, w.name)?, workload(b, w.name)?);
        let gated = END_TO_END.into_iter().map(|m| (m, true));
        for ((metric, _, bound), gated) in gated.chain([(ADVISORY, false)]) {
            let cell = |doc: &Json| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .cloned()
                    .ok_or_else(|| format!("report has no {} / {metric}", w.name))
            };
            let (ca, cb) = (cell(&wa)?, cell(&wb)?);
            let field = |c: &Json, key: &str| c.get(key).and_then(Json::as_f64);
            let withheld = [&ca, &cb]
                .into_iter()
                .find_map(|c| c.get("unresolved").and_then(Json::as_str));
            if let Some(why) = withheld {
                rows.push(Row {
                    verdict: Verdict::Unresolved(why.to_string()),
                    ..row(w.name, metric.into(), f64::NAN, f64::NAN, bound, gated)
                });
                continue;
            }
            let (Some(va), Some(vb)) = (field(&ca, "median"), field(&cb, "median")) else {
                return Err(format!("report has no median of {} / {metric}", w.name));
            };
            let mut r = row(w.name, metric.into(), va, vb, bound, gated);
            // Runs of one side that spread wider than the bound cannot show
            // "no worse than the bound".
            let spread = |c: &Json| Some((field(c, "q3")? - field(c, "q1")?) / field(c, "median")?);
            let widest = spread(&ca).unwrap_or(0.0).max(spread(&cb).unwrap_or(0.0));
            if r.verdict == Verdict::Within && widest > bound {
                r.verdict = Verdict::Unresolved(format!(
                    "run-to-run spread {:.1}% is wider than the bound",
                    widest * 100.0
                ));
            }
            rows.push(r);
        }
        for &class in w.exact {
            let value = |doc: &Json| {
                doc.get("exact_virt_us")
                    .and_then(|e| e.get(class))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("report has no exact class {} / {class}", w.name))
            };
            let metric = format!("exact:{class}");
            rows.push(row(
                w.name,
                metric,
                value(&wa)?,
                value(&wb)?,
                EXACT_BOUND,
                true,
            ));
        }
    }
    Ok(rows)
}

pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = match load(a).and_then(|a| load(b).and_then(|b| compare(&a, &b))) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<10} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "a (median)", "b (median)", "b vs a", "bound"
    );
    let (mut breaches, mut unresolved) = (0, 0);
    for r in &rows {
        let note = match &r.verdict {
            Verdict::Within => String::new(),
            Verdict::Breach => "BREACH".into(),
            Verdict::OverAdvisory => "over (advisory: host noise, not gated)".into(),
            Verdict::Unresolved(why) => format!("unresolved: {why}"),
        };
        println!(
            "{:<10} {:<34} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}% {note}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel * 100.0,
            r.bound * 100.0,
        );
        breaches += usize::from(r.verdict == Verdict::Breach);
        unresolved += usize::from(matches!(r.verdict, Verdict::Unresolved(_)));
    }
    if unresolved > 0 {
        eprintln!("e2e: {unresolved} pairings are unresolved: neither worse nor unchanged");
    }
    if breaches > 0 {
        eprintln!("e2e: {breaches} gated pairings are worse than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The contract this binary implements, as the content of `BENCHMARK.json`.
pub fn describe() -> Json {
    let manifest = "crates/bench/src/bin/e2e/Cargo.toml";
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    manifest,
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/e2e")]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, bound)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str("lower")),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer_table()
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(&d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Metric;

    /// Medians in `END_TO_END` order, then the advisory wall value; every
    /// `EXACT` class of every workload reads `exact`.
    fn report(values: &[(&str, [f64; 5])], exact: f64) -> Json {
        let workload = |name: &str, v: &[f64; 5]| {
            let cells = END_TO_END.iter().chain([&ADVISORY]).zip(v);
            let classes = workloads::ALL
                .iter()
                .find(|w| w.name == name)
                .unwrap()
                .exact;
            Json::obj([
                ("name", Json::str(name)),
                (
                    "end_to_end",
                    Json::Obj(
                        cells
                            .map(|(e, v)| (e.0.to_string(), Json::obj([("median", Json::Num(*v))])))
                            .collect(),
                    ),
                ),
                (
                    "exact_virt_us",
                    Json::Obj(
                        classes
                            .iter()
                            .map(|c| (c.to_string(), Json::Num(exact)))
                            .collect(),
                    ),
                ),
            ])
        };
        Json::obj([(
            "workloads",
            Json::Arr(values.iter().map(|(n, v)| workload(n, v)).collect()),
        )])
    }

    fn all(v: [f64; 5]) -> Vec<(&'static str, [f64; 5])> {
        workloads::ALL.iter().map(|w| (w.name, v)).collect()
    }

    /// Replace one cell of one workload of a report.
    fn set(doc: &mut Json, workload: usize, metric: &str, cell: Json) {
        let Json::Obj(top) = doc else { panic!() };
        let Json::Arr(ws) = &mut top[0].1 else {
            panic!()
        };
        let Json::Obj(w) = &mut ws[workload] else {
            panic!()
        };
        let Json::Obj(cells) = &mut w[1].1 else {
            panic!()
        };
        cells.iter_mut().find(|(k, _)| k == metric).unwrap().1 = cell;
    }

    #[test]
    fn compare_flags_only_what_exceeds_its_bound() {
        let a = report(&all([10.0, 10.0, 1.0, 100.0, 10.0]), 8.0);
        let same = compare(&a, &a).unwrap();
        let classes: usize = workloads::ALL.iter().map(|w| w.exact.len()).sum();
        assert!(classes > 0);
        assert_eq!(
            same.len(),
            workloads::ALL.len() * (END_TO_END.len() + 1) + classes
        );
        assert!(same
            .iter()
            .all(|r| r.rel == 0.0 && r.verdict == Verdict::Within));

        // Better everywhere: never a breach.
        let better = report(&all([5.0, 5.0, 0.5, 50.0, 5.0]), 7.0);
        assert!(compare(&a, &better)
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Within));

        // virt +4 % is inside its 5 % bound and allocs +9 % inside its 10 %;
        // rss +6 % is outside its 5 %; wall +50 % is over its advisory bound
        // without being a breach.
        let mut rows = all([10.0, 10.0, 1.0, 100.0, 10.0]);
        rows[1].1 = [10.4, 10.9, 1.0, 106.0, 15.0];
        let worse = compare(&a, &report(&rows, 8.0)).unwrap();
        let over: Vec<_> = worse
            .iter()
            .filter(|r| r.verdict != Verdict::Within)
            .collect();
        assert_eq!(over.len(), 2);
        assert!(over.iter().all(|r| r.workload == workloads::ALL[1].name));
        assert_eq!(
            (over[0].metric.as_str(), &over[0].verdict),
            ("peak_rss_mib", &Verdict::Breach)
        );
        assert!((over[0].rel - 0.06).abs() < 1e-12);
        assert_eq!(
            (over[1].metric.as_str(), &over[1].verdict),
            ("wall_us_per_op", &Verdict::OverAdvisory)
        );
    }

    #[test]
    fn compare_holds_exact_classes_to_half_a_percent() {
        let a = report(&all([10.0; 5]), 8.0);
        // +0.4 % passes, +0.6 % of a class that never moves on its own is a
        // breach although the whole workload's 5 % bound is far away.
        let near = compare(&a, &report(&all([10.0; 5]), 8.032)).unwrap();
        assert!(near.iter().all(|r| r.verdict == Verdict::Within));
        let moved = compare(&a, &report(&all([10.0; 5]), 8.048)).unwrap();
        let breaches: Vec<_> = moved
            .iter()
            .filter(|r| r.verdict == Verdict::Breach)
            .collect();
        assert!(!breaches.is_empty());
        assert!(breaches
            .iter()
            .all(|r| r.metric.starts_with("exact:") && r.bound == EXACT_BOUND));
    }

    #[test]
    fn compare_reports_withheld_and_noisy_pairings_as_unresolved() {
        let a = report(&all([10.0; 5]), 8.0);
        let mut b = report(&all([10.0, 10.0, 99.0, 10.0, 10.0]), 8.0);
        // A host guard withheld setup_s on one side: no number is compared,
        // however bad the other side's looks.
        let withheld = Json::obj([("unit", Json::str("s")), ("unresolved", Json::str("load"))]);
        for i in 0..workloads::ALL.len() {
            set(&mut b, i, "setup_s", withheld.clone());
        }
        // Runs that spread 20 % cannot show "within 5 %".
        let noisy = [("median", 10.0), ("q1", 9.0), ("q3", 11.0)].map(|(k, v)| (k, Json::Num(v)));
        set(&mut b, 0, "virt_us_per_op", Json::obj(noisy));
        let rows = compare(&a, &b).unwrap();
        let unresolved: Vec<_> = rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Unresolved(_)))
            .map(|r| (r.workload.as_str(), r.metric.as_str()))
            .collect();
        assert_eq!(unresolved.len(), workloads::ALL.len() + 1);
        assert!(unresolved.contains(&(workloads::ALL[0].name, "virt_us_per_op")));
        assert!(unresolved.iter().filter(|u| u.1 == "setup_s").count() == workloads::ALL.len());
        assert!(rows.iter().all(|r| r.verdict != Verdict::Breach));
    }

    #[test]
    fn compare_rejects_incomplete_reports_and_nan() {
        let a = report(&all([10.0; 5]), 8.0);
        let partial = report(&all([10.0; 5])[..2], 8.0);
        assert!(compare(&a, &partial).is_err());
        let zero = report(&all([0.0; 5]), 0.0);
        assert!(compare(&zero, &zero)
            .unwrap()
            .iter()
            .all(|r| r.verdict != Verdict::Within));
    }

    #[test]
    fn exact_classes_must_agree_between_runs() {
        let run = |v: f64| Json::obj([("exact", Json::obj([("pingpong_8B", Json::Num(v))]))]);
        let (first, same) = exact_classes(&[run(8.1139), run(8.1139 * (1.0 + 1e-12))]);
        assert!(same);
        assert_eq!(
            first.get("pingpong_8B").and_then(Json::as_f64),
            Some(8.1139)
        );
        assert!(!exact_classes(&[run(8.1139), run(8.1147)]).1);
        assert!(!exact_classes(&[run(8.1139), Json::Obj(Vec::new())]).1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&RunResult {
            attempted: 10,
            failed: 12,
            metrics: vec![Metric {
                name: "setup_s".into(),
                value: 0.25,
                unit: "s",
            }],
            extra: None,
            text: String::new(),
        });
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        // Failures seen by several ranks never exceed what was attempted.
        assert_eq!(j.get("failed").and_then(Json::as_f64), Some(10.0));
        assert_eq!(metric_value(&j, "setup_s"), Some(0.25));
    }

    /// `BENCHMARK.json` at the repository root is this binary's description
    /// of itself.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let mut dir = std::env::current_dir().unwrap();
        let file = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the package");
        };
        let on_disk = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        assert_eq!(on_disk, describe());
        assert!(workloads::ALL
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
