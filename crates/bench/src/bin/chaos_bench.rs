//! Chaos-campaign probe: runs the standard self-healing campaign
//! (`neuropulsim_sim::serve::chaos`) — transient bricks, transient
//! stalls, a PCM drift ramp and a burst overload — and emits one
//! unified `neuropulsim-bench/v1` report.
//!
//! The campaign is a set of deterministic discrete-event runs fanned
//! out over the worker pool, so the entire availability report —
//! acceptance flags, per-scenario availability, time-to-readmission,
//! SLO violations, per-PE lifecycle counters — is bit-identical for any
//! `NEUROPULSIM_THREADS` and rides in `payload` (CI's determinism check
//! compares `payload` only). Host wall-clock per campaign run goes in
//! `measurements` for the perf-regression gate.
//!
//! Usage: `chaos_bench [requests] [seed]` (defaults: 1600 requests per
//! scenario, seed 0xc4a05 — the committed `BENCH_chaos.json` baseline
//! shape). `--profile` skips calibration for flamegraph runs.

use neuropulsim_bench::runner::{positional_args, Runner};
use neuropulsim_sim::json::{fixed, Json};
use neuropulsim_sim::serve::chaos::{
    run_campaign_threads, standard_campaign, CampaignReport, CampaignSpec,
};

fn main() {
    let mut args = positional_args().into_iter();
    let spec = CampaignSpec::default();
    let requests: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(spec.requests);
    let seed: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(spec.seed);
    let spec = CampaignSpec {
        requests,
        seed,
        ..spec
    };

    let scenarios = standard_campaign(spec);
    let mut runner = Runner::new("chaos_bench");
    let meta = [
        ("requests", requests.into()),
        ("seed", seed.into()),
        ("pes", spec.pes.into()),
        ("scenarios", scenarios.len().into()),
    ];

    // Paired per-rep calibration: a campaign spans four full serving
    // runs, long enough for machine-speed drift to skew a start-of-run
    // calibration and flap the 10% CI gate. The measured campaign runs
    // serially — the report is identical at any worker count, and a
    // serial run's wall time is scheduler-noise-free where a fanned-out
    // one's is whatever the slowest worker drew that rep.
    let mut report: Option<CampaignReport> = None;
    runner.measure_ratio_with_meta("chaos/campaign/standard", 15, &meta, || {
        report = Some(run_campaign_threads(&scenarios, 1));
    });
    let report = report.expect("campaign ran");

    runner.derived("accepted", report.accepted());
    runner.derived(
        "min_fault_availability",
        fixed(report.min_fault_availability(), 4),
    );
    let worst_readmission = report
        .scenarios
        .iter()
        .map(|s| s.max_readmission_cycles)
        .max()
        .unwrap_or(0);
    runner.derived("worst_readmission_cycles", worst_readmission);
    runner.payload(Json::Raw(report.to_json()));
    print!("{}", runner.to_json());
}
