//! The mlcx scenario benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path scenario_bench/Cargo.toml -- \
//!     --workload lifetime_mix --seed 2012 --seconds 30 --trace 0
//! ```
//!
//! Runs one named workload through `Scenario::run` for `--seconds`,
//! checks its outputs, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones (host clock and modeled clock); with
//! `--trace 1` they are the per-layer split of a separate traced run.
//! Every metric printed must be declared in `BENCHMARK.json` (read from
//! the working directory) under the matching section, and every declared
//! one printed; otherwise the run fails without a result. See
//! `scenario_bench/README.md`.

mod checks;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use mlcx::WorkloadRunner;
use mlcx_bench::json::{self, Json};

use crate::checks::Outcome;
use crate::trace::Layers;
use crate::workloads::Workload;

/// The seed the README's reference figures use.
const DEFAULT_SEED: u64 = 2012;

/// `WorkloadRunner::new` timings taken beside each timed
/// `Scenario::run`: set-up is well under a millisecond on the smaller
/// workloads, so one sample per run would be mostly noise.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What one benchmark run found.
struct RunResult {
    metrics: Vec<Metric>,
    /// Host operations over every `Scenario::run` of the benchmark run.
    totals: Outcome,
    violations: Vec<String>,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenario_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let declared = declared_metrics(std::path::Path::new("BENCHMARK.json"), args.trace)?;
    let workload = Workload::named(&args.workload, args.seed).map_err(err)?;
    let result = if args.trace {
        traced(&workload, args.seconds)?
    } else {
        timed(&workload, args.seconds)?
    };
    schema_check(&declared, &result.metrics)?;
    for violation in &result.violations {
        eprintln!("check failed: {violation}");
    }
    let t = &result.totals;
    println!(
        "outcome {}: attempted {} host reads, {} host writes, {} maintenance commands; \
         failed {} (decode failures or errored reads {}, integrity violations {})",
        workload.name,
        t.reads,
        t.writes,
        t.maintenance,
        t.failed(),
        t.decode_failures,
        t.integrity_violations,
    );
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let entry = Json::Object(vec![
                ("value".into(), Json::Number(m.value)),
                ("unit".into(), Json::String(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let line = Json::Object(vec![
        ("correct".into(), Json::Bool(result.violations.is_empty())),
        ("attempted".into(), Json::Number(t.attempted() as f64)),
        ("failed".into(), Json::Number(t.failed() as f64)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let usage = "usage: --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        let bad = || format!("bad value {value:?} for {flag}; {usage}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]; {usage}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}; {usage}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(usage.into());
    }
    Ok(parsed)
}

/// The `(name, unit)` pairs the `BENCHMARK.json` at `path` declares for
/// this mode.
fn declared_metrics(path: &std::path::Path, trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {} (run from the repository root): {e}",
            path.display()
        )
    })?;
    let doc = json::parse(&text)?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Array(entries)) = doc.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} array"));
    };
    entries
        .iter()
        .map(|e| {
            let field = |key| {
                e.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {section} entry lacks a string {key:?}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Fails unless the printed metrics are exactly the declared ones, each
/// once, with the declared unit and a well-formed name and a finite value.
fn schema_check(declared: &[(String, String)], metrics: &[Metric]) -> Result<(), String> {
    let well_formed = |name: &str| {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let mut problems = Vec::new();
    for (i, m) in metrics.iter().enumerate() {
        if !well_formed(m.name) {
            problems.push(format!("metric name {:?} is not [A-Za-z0-9_.-]+", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|other| other.name == m.name) {
            problems.push(format!("metric {} printed twice", m.name));
        }
        match declared.iter().find(|(name, _)| name == m.name) {
            None => problems.push(format!(
                "metric {} is not declared in BENCHMARK.json",
                m.name
            )),
            Some((_, unit)) if unit != m.unit => problems.push(format!(
                "metric {} has unit {}, BENCHMARK.json declares {unit}",
                m.name, m.unit
            )),
            Some(_) => {}
        }
    }
    for (name, _) in declared {
        if !metrics.iter().any(|m| m.name == name) {
            problems.push(format!("declared metric {name} was not printed"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("metric schema mismatch: {}", problems.join("; ")))
    }
}

/// Facts about the workload's engine, read from a runner.
struct Probe {
    model: mlcx::SubsystemModel,
    page_bytes: usize,
    single_die: bool,
}

fn probe(workload: &Workload) -> Result<Probe, String> {
    let runner = WorkloadRunner::new(&workload.scenario).map_err(err)?;
    let geometry = runner.engine().controller().config().geometry;
    Ok(Probe {
        model: runner.engine().model().clone(),
        page_bytes: geometry.page_bytes,
        single_die: geometry.topology.total_dies() == 1,
    })
}

/// Checks one report: invariants, eq. (1) and the codec on error
/// patterns of the workload's `t` values and weights.
fn check_report(
    report: &mlcx::ScenarioReport,
    probe: &Probe,
    seed: u64,
) -> Result<(checks::Modeled, Vec<String>), String> {
    let modeled = checks::modeled(report, probe.page_bytes)?;
    let mut violations =
        checks::report_violations(report, &modeled, &probe.model, probe.single_die);
    let cases = checks::codec_cases(report, &probe.model);
    violations.extend(checks::codec_violations(&cases, seed)?);
    Ok((modeled, violations))
}

/// The untraced run: end-to-end metrics.
fn timed(workload: &Workload, seconds: f64) -> Result<RunResult, String> {
    let scenario = &workload.scenario;
    let probe = probe(workload)?;
    let reference = scenario.run().map_err(err)?;
    let (modeled, mut violations) = check_report(&reference, &probe, scenario.seed())?;
    let mut totals = Outcome::default();
    totals.add(&reference);

    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        for _ in 0..SETUP_REPS {
            let begin = Instant::now();
            let runner = WorkloadRunner::new(scenario).map_err(err)?;
            setups.push(since(begin));
            drop(runner);
        }
        let begin = Instant::now();
        let report = scenario.run().map_err(err)?;
        rates.push(report.total_commands as f64 / since(begin));
        if report != reference {
            violations.push(format!(
                "run {} differs from the first same-seed run",
                rates.len() + 1
            ));
        }
        totals.add(&report);
        if since(start) >= seconds {
            break;
        }
    }
    if let Some([q1, q2, q3]) = stats::quartiles(&rates) {
        eprintln!(
            "host_cmds_per_s over {} timed runs: quartiles {q1:.0} / {q2:.0} / {q3:.0}",
            rates.len()
        );
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let m = |name, unit, value| Metric { name, unit, value };
    Ok(RunResult {
        metrics: vec![
            m("host_cmds_per_s", "1/s", median(&rates)),
            m("setup_s", "s", median(&setups)),
            m("peak_rss_mib", "MiB", peak_rss_mib()?),
            m("model_device_s", "s", modeled.device_s),
            m("model_makespan_s", "s", modeled.makespan_s),
            m("model_energy_mj", "mJ", modeled.energy_mj),
            m("model_read_mbps", "MB/s", modeled.read_mbps),
            m("model_write_mbps", "MB/s", modeled.write_mbps),
            m("model_flow_p50_us", "us", modeled.flow_p50_us),
            m("model_flow_p99_us", "us", modeled.flow_p99_us),
            m("model_uber_nines", "nines", modeled.uber_nines),
            m("write_amp", "ratio", modeled.write_amp),
        ],
        totals,
        violations,
    })
}

/// The traced run: per-layer metrics, from as many traced rounds as fit
/// in `seconds` (at least one). Times are medians over rounds; counts
/// must repeat exactly from round to round.
fn traced(workload: &Workload, seconds: f64) -> Result<RunResult, String> {
    let probe = probe(workload)?;
    let span_cost_s = trace::span_cost_s();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut totals = Outcome::default();
    let mut violations = Vec::new();
    let mut first_report = None;
    let start = Instant::now();
    loop {
        let (layers, report) = trace::round(workload)?;
        totals.add(&report);
        if let Some(first) = &first_report {
            if &report != first {
                violations.push(format!(
                    "traced round {} differs from the first",
                    rounds.len() + 1
                ));
            }
        } else {
            let (_, found) = check_report(&report, &probe, workload.scenario.seed())?;
            violations.extend(found);
            first_report = Some(report);
        }
        if let Some(first) = rounds.first() {
            if counts(&layers) != counts(first) {
                violations.push(format!(
                    "traced round {} counted other work",
                    rounds.len() + 1
                ));
            }
        }
        rounds.push(layers);
        if since(start) >= seconds {
            break;
        }
    }
    let report = first_report.ok_or("no traced round ran")?;
    let first = &rounds[0];
    let med = |f: &dyn Fn(&Layers) -> f64| {
        stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let ftl_relocated: u64 = report
        .service_reports()
        .map(|s| s.ftl.relocated_pages)
        .sum();
    let channel_busy_s: f64 = report.phases.iter().map(|p| p.channel_busy_s).sum();
    let queue_wait_p99_us = stats::percentile(&first.queue_waits, 99.0).unwrap_or(0.0) * 1e6;
    let s = |name, value| Metric {
        name,
        unit: "s",
        value,
    };
    let n = |name, value: u64| Metric {
        name,
        unit: "count",
        value: value as f64,
    };
    Ok(RunResult {
        metrics: vec![
            s("sim.run_s", med(&|l| l.sim_run_s)),
            s(
                "sim.self_s",
                med(&|l| l.sim_run_s - l.engine_s - l.ftl_plan_s - l.scrub_plan_s),
            ),
            s("ftl.plan_s", med(&|l| l.ftl_plan_s)),
            n("ftl.relocated_pages", ftl_relocated),
            s("scrub.plan_s", med(&|l| l.scrub_plan_s)),
            n("scrub.relocations", report.total_scrub_relocations),
            n("scrub.erases", report.total_scrub_erases),
            s(
                "engine.self_s",
                med(&|l| l.engine_s - l.controller_s - l.op_derive_s),
            ),
            n("engine.commands", report.total_commands as u64),
            n("engine.op_derivations", report.op_cache_misses),
            s("engine.op_derive_s", med(&|l| l.op_derive_s)),
            Metric {
                name: "engine.queue_wait_p99_us",
                unit: "us",
                value: queue_wait_p99_us,
            },
            s(
                "controller.self_s",
                med(&|l| {
                    l.controller_s
                        - l.bch_encode_s
                        - l.bch_decode_s
                        - l.bch_code_build_s
                        - l.nand_program_s
                        - l.nand_read_s
                        - l.nand_erase_s
                }),
            ),
            s("controller.channel_busy_s", channel_busy_s),
            Metric {
                name: "controller.parallelism",
                unit: "ratio",
                value: report.achieved_parallelism(),
            },
            s("bch.encode_s", med(&|l| l.bch_encode_s)),
            n("bch.encodes", first.encodes),
            s("bch.decode_s", med(&|l| l.bch_decode_s)),
            s("bch.decode_clean_s", med(&|l| l.bch_decode_clean_s)),
            n("bch.decodes_clean", first.decodes_clean),
            s("bch.syndrome_s", med(&|l| l.bch_syndrome_s)),
            s("bch.locator_s", med(&|l| l.bch_locator_s)),
            s("bch.root_search_s", med(&|l| l.bch_root_search_s)),
            n("bch.root_search_positions", first.root_search_positions),
            n("bch.decodes_corrected", first.decodes_corrected),
            n("bch.corrected_bits", first.corrected_bits),
            n("bch.decodes_uncorrectable", first.decodes_uncorrectable),
            s("bch.code_build_s", med(&|l| l.bch_code_build_s)),
            s("nand.program_s", med(&|l| l.nand_program_s)),
            n("nand.programs", first.programs),
            s("nand.read_s", med(&|l| l.nand_read_s)),
            n("nand.reads", first.reads),
            s("nand.erase_s", med(&|l| l.nand_erase_s)),
            n("nand.erases", first.erases),
            n("nand.injected_bit_errors", first.injected_bit_errors),
            n("trace.spans", first.spans),
            s("trace.overhead_s", first.spans as f64 * span_cost_s),
        ],
        totals,
        violations,
    })
}

/// The counts of a traced round, which every round must repeat.
fn counts(l: &Layers) -> [u64; 12] {
    [
        l.commands,
        l.encodes,
        l.decodes_clean,
        l.decodes_corrected,
        l.decodes_uncorrectable,
        l.corrected_bits,
        l.root_search_positions,
        l.programs,
        l.reads,
        l.erases,
        l.injected_bit_errors,
        l.spans,
    ]
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, unit: &'static str) -> Metric {
        Metric {
            name,
            unit,
            value: 1.0,
        }
    }

    #[test]
    fn schema_check_wants_exactly_the_declared_metrics() {
        let declared = vec![
            ("a_s".to_string(), "s".to_string()),
            ("b.n".to_string(), "count".to_string()),
        ];
        assert!(schema_check(&declared, &[metric("a_s", "s"), metric("b.n", "count")]).is_ok());
        // Missing, undeclared, wrong unit, duplicated, malformed.
        assert!(schema_check(&declared, &[metric("a_s", "s")]).is_err());
        let extra = [metric("a_s", "s"), metric("b.n", "count"), metric("c", "s")];
        assert!(schema_check(&declared, &extra).is_err());
        assert!(schema_check(&declared, &[metric("a_s", "ms"), metric("b.n", "count")]).is_err());
        let twice = [
            metric("a_s", "s"),
            metric("a_s", "s"),
            metric("b.n", "count"),
        ];
        assert!(schema_check(&declared, &twice).is_err());
        let declared_bad = vec![("a s".to_string(), "s".to_string())];
        assert!(schema_check(&declared_bad, &[metric("a s", "s")]).is_err());
    }

    #[test]
    fn benchmark_json_sections_parse() {
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        assert_eq!(declared_metrics(path, false).unwrap().len(), 12);
        assert!(declared_metrics(path, true).unwrap().len() > 30);
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = args("--workload tenant_storm --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tenant_storm", 7, 3.0, true)
        );
        assert!(args("--seed 7").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }
}
