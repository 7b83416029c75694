//! The modeled end-to-end metrics of a `ScenarioReport`, and the checks
//! the benchmark makes on the report and the codec against computations
//! of its own.

use std::collections::BTreeSet;

use mlcx::xlayer::sim::ScenarioReport;
use mlcx::{AdaptiveBch, DecodeOutcome, SubsystemModel};

use crate::oracle::{flip, log10_uber_eq1, SplitMix};

/// The paper's UBER target, `log10`.
const UBER_TARGET_LOG10: f64 = -11.0;

/// The modeled (virtual-clock) metrics of one run, deterministic per
/// seed.
pub struct Modeled {
    pub device_s: f64,
    pub makespan_s: f64,
    pub energy_mj: f64,
    pub read_mbps: f64,
    pub write_mbps: f64,
    pub flow_p50_us: f64,
    pub flow_p99_us: f64,
    pub uber_nines: f64,
    pub write_amp: f64,
}

/// Host operations attempted and failed, summed over `Scenario::run`s.
#[derive(Default)]
pub struct Outcome {
    pub reads: u64,
    pub writes: u64,
    /// Garbage-collection and scrub commands.
    pub maintenance: u64,
    /// Reads that failed to decode or completed with an error (an
    /// errored write, GC or scrub command aborts `Scenario::run`).
    pub decode_failures: u64,
    pub integrity_violations: u64,
}

impl Outcome {
    /// Adds the operations of one run.
    pub fn add(&mut self, report: &ScenarioReport) {
        let reads: u64 = report.service_reports().map(|s| s.reads as u64).sum();
        let writes: u64 = report.service_reports().map(|s| s.writes as u64).sum();
        self.reads += reads;
        self.writes += writes;
        self.maintenance += report.total_commands as u64 - reads - writes;
        self.decode_failures += report.read_failures as u64;
        self.integrity_violations += report.integrity_violations;
    }

    pub fn attempted(&self) -> u64 {
        self.reads + self.writes + self.maintenance
    }

    pub fn failed(&self) -> u64 {
        self.decode_failures + self.integrity_violations
    }
}

/// The modeled metrics of `report`, for pages of `page_bytes`.
///
/// Flow latency is reported per (phase, service) cell; the run-wide
/// figures are the cells' p50 and p99 averaged with each cell weighted
/// by its command count. The UBER figure is the worst service of the
/// last traffic phase, with disturb added.
pub fn modeled(report: &ScenarioReport, page_bytes: usize) -> Result<Modeled, String> {
    let cells: Vec<_> = report.service_reports().collect();
    let reads: f64 = cells.iter().map(|s| s.read_latency.count as f64).sum();
    let read_s: f64 = cells.iter().map(|s| s.read_latency.total_s).sum();
    let writes: f64 = cells.iter().map(|s| s.write_latency.count as f64).sum();
    let write_s: f64 = cells.iter().map(|s| s.write_latency.total_s).sum();
    let flows: f64 = cells.iter().map(|s| s.flow_latency.count as f64).sum();
    let weighted = |q: &dyn Fn(&mlcx::xlayer::sim::LatencyStats) -> f64| {
        cells
            .iter()
            .map(|s| q(&s.flow_latency) * s.flow_latency.count as f64)
            .sum::<f64>()
            / flows
    };
    let host_writes: u64 = cells.iter().map(|s| s.ftl.host_writes).sum();
    let physical_writes: u64 = cells.iter().map(|s| s.ftl.physical_writes).sum();
    let last_traffic = report
        .phases
        .iter()
        .rev()
        .nth(1)
        .ok_or("report has no traffic phase before the verify sweep")?;
    let worst_uber = last_traffic
        .services
        .iter()
        .map(|s| s.model_log10_uber_disturbed)
        .fold(f64::NEG_INFINITY, f64::max);
    let mb = page_bytes as f64 / 1e6;
    Ok(Modeled {
        device_s: report.total_device_time_s,
        makespan_s: report.total_parallel_time_s,
        energy_mj: report.total_energy_j * 1e3,
        read_mbps: reads * mb / read_s,
        write_mbps: writes * mb / write_s,
        flow_p50_us: weighted(&|l| l.p50_s) * 1e6,
        flow_p99_us: weighted(&|l| l.p99_s) * 1e6,
        uber_nines: -worst_uber,
        write_amp: physical_writes as f64 / host_writes as f64,
    })
}

/// Relative closeness of two sums of the same terms added in another
/// order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Checks `report` against properties and computations made apart from
/// the program; returns every violation found.
pub fn report_violations(
    report: &ScenarioReport,
    modeled: &Modeled,
    model: &SubsystemModel,
    single_die: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    if modeled.makespan_s > modeled.device_s * (1.0 + 1e-12) {
        bad.push(format!(
            "makespan {} s exceeds device time {} s",
            modeled.makespan_s, modeled.device_s
        ));
    }
    if single_die && !close(modeled.makespan_s, modeled.device_s) {
        bad.push(format!(
            "single die, yet makespan {} s differs from device time {} s",
            modeled.makespan_s, modeled.device_s
        ));
    }
    if modeled.flow_p50_us > modeled.flow_p99_us {
        bad.push("flow p50 above flow p99".into());
    }
    if modeled.write_amp < 1.0 {
        bad.push(format!("write amplification {} below 1", modeled.write_amp));
    }
    for metric in [
        modeled.device_s,
        modeled.makespan_s,
        modeled.energy_mj,
        modeled.read_mbps,
        modeled.write_mbps,
        modeled.flow_p50_us,
        modeled.flow_p99_us,
        modeled.uber_nines,
        modeled.write_amp,
    ] {
        if !(metric.is_finite() && metric > 0.0) {
            bad.push(format!(
                "modeled metric {metric} is not finite and positive"
            ));
        }
    }

    // Per-phase sums equal the report totals.
    let phases = &report.phases;
    let commands: usize = phases.iter().map(|p| p.commands).sum();
    if commands != report.total_commands {
        bad.push(format!(
            "phase commands sum to {commands}, total {}",
            report.total_commands
        ));
    }
    let sums = [
        (
            "device time",
            phases.iter().map(|p| p.device_time_s).sum::<f64>(),
            report.total_device_time_s,
        ),
        (
            "makespan",
            phases.iter().map(|p| p.parallel_time_s).sum(),
            report.total_parallel_time_s,
        ),
        (
            "energy",
            phases.iter().map(|p| p.energy_j).sum(),
            report.total_energy_j,
        ),
        (
            "service energy",
            report.service_reports().map(|s| s.energy_j).sum(),
            report.total_energy_j,
        ),
    ];
    for (what, sum, total) in sums {
        if !close(sum, total) {
            bad.push(format!("phase {what} sums to {sum}, total {total}"));
        }
    }
    let counts = [
        (
            "op-cache misses",
            phases.iter().map(|p| p.op_cache_misses).sum::<u64>(),
            report.op_cache_misses,
        ),
        (
            "op-cache hits",
            phases.iter().map(|p| p.op_cache_hits).sum(),
            report.op_cache_hits,
        ),
        (
            "scrub relocations",
            phases.iter().map(|p| p.scrub_relocations).sum(),
            report.total_scrub_relocations,
        ),
        (
            "scrub erases",
            phases.iter().map(|p| p.scrub_erases).sum(),
            report.total_scrub_erases,
        ),
        (
            "read failures",
            report
                .service_reports()
                .map(|s| s.read_failures as u64)
                .sum(),
            report.read_failures as u64,
        ),
        (
            "integrity violations",
            report
                .service_reports()
                .map(|s| s.integrity_violations)
                .sum(),
            report.integrity_violations,
        ),
    ];
    for (what, sum, total) in counts {
        if sum != total {
            bad.push(format!("phase {what} sum to {sum}, total {total}"));
        }
    }
    let verified: usize = phases
        .last()
        .map_or(0, |p| p.services.iter().map(|s| s.reads).sum());
    if verified != report.verified_pages {
        bad.push(format!(
            "verify sweep read {verified} pages, report says {}",
            report.verified_pages
        ));
    }

    // Eq. (1): every service holds the target at the t the model picks,
    // and the benchmark's own binomial tail agrees with the program's.
    for (phase, s) in phases
        .iter()
        .flat_map(|p| p.services.iter().map(move |s| (p, s)))
    {
        let wear = s.max_wear.max(1);
        let t = model.configure(s.objective, wear).correction;
        if s.model_log10_uber > UBER_TARGET_LOG10 + 1e-9 {
            bad.push(format!(
                "{}/{}: log10 UBER {} misses the {UBER_TARGET_LOG10} target",
                phase.name, s.service, s.model_log10_uber
            ));
        }
        let n = (model.k_bits + model.ecc_m as usize * t as usize) as u64;
        let own = log10_uber_eq1(n, t, s.model_rber);
        if (own - s.model_log10_uber).abs() > 1e-6 {
            bad.push(format!(
                "{}/{}: eq. (1) gives {own} at RBER {} and t = {t}, the program {}",
                phase.name, s.service, s.model_rber, s.model_log10_uber
            ));
        }
    }
    bad
}

/// The `(t, weight)` error patterns the workload's pages carry: for every
/// (phase, service) cell, the `t` the model picks at the cell's wear,
/// with weights 1 to 4, the expected raw error count at the cell's total
/// RBER, and `t` itself (all clamped to `t`).
pub fn codec_cases(report: &ScenarioReport, model: &SubsystemModel) -> BTreeSet<(u32, usize)> {
    let mut cases = BTreeSet::new();
    for s in report.service_reports() {
        let t = model.configure(s.objective, s.max_wear.max(1)).correction;
        let n = (model.k_bits + model.ecc_m as usize * t as usize) as f64;
        let rber = s.model_rber + s.model_disturb_rber + s.model_interference_rber;
        let expected = (n * rber).round() as usize;
        for weight in [1, 2, 3, 4, expected.max(1), t as usize] {
            cases.insert((t, weight.min(t as usize)));
        }
    }
    cases
}

/// Decodes error patterns of the benchmark's own drawing and checks that
/// the codec returns exactly their positions and the original message.
pub fn codec_violations(cases: &BTreeSet<(u32, usize)>, seed: u64) -> Result<Vec<String>, String> {
    let mut codec = AdaptiveBch::date2012().map_err(|e| e.to_string())?;
    let mut rng = SplitMix::new(seed ^ 0xC0DE_C0DE);
    let mut bad = Vec::new();
    for &(t, weight) in cases {
        let code = codec.code_for(t).map_err(|e| e.to_string())?;
        for _ in 0..2 {
            let message = rng.bytes(code.message_bits() / 8);
            let parity = code.encode(&message).map_err(|e| e.to_string())?;
            let positions = rng.error_positions(code.codeword_bits(), weight);
            let (mut received, mut received_parity) = (message.clone(), parity.clone());
            for &pos in &positions {
                flip(&mut received, &mut received_parity, pos);
            }
            let outcome = code
                .decode(&mut received, &mut received_parity)
                .map_err(|e| e.to_string())?;
            let located = match outcome {
                DecodeOutcome::Corrected { positions, .. } => Some(positions),
                DecodeOutcome::Clean | DecodeOutcome::Uncorrectable => None,
            };
            if located.as_ref() != Some(&positions)
                || received != message
                || received_parity != parity
            {
                bad.push(format!(
                    "t = {t}, weight {weight}: decode located {located:?}, injected {positions:?}"
                ));
            }
        }
    }
    Ok(bad)
}
