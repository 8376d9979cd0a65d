//! Serving-fabric load-generator probe: drives the async inference
//! service (`neuropulsim_sim::serve`) over three fleet shapes — a single
//! PE, a healthy 4-PE fleet, and a 4-PE fleet that loses one device
//! mid-run — with the same deterministic synthetic load, and emits one
//! unified `neuropulsim-bench/v1` report.
//!
//! The serving engine is a single-threaded discrete-event simulation,
//! so everything it reports in simulated time — completion counts,
//! p50/p99/max latency cycles, sustained req/s, retry/ejection tallies —
//! is bit-identical for any `NEUROPULSIM_THREADS` and rides in
//! `payload` (CI's determinism check compares `payload` only). Host
//! wall-clock per run goes in `measurements` for the perf-regression
//! gate.
//!
//! Usage: `serve_bench [requests] [seed]` (defaults: 16000 requests,
//! seed 11). The default is sized so even the fastest scenario runs
//! several milliseconds per rep — short runs make the machine-normalized
//! wall-clock `norm` too noisy for the 10% regression gate.

use neuropulsim_bench::runner::{positional_args, Runner};
use neuropulsim_linalg::RMatrix;
use neuropulsim_sim::json::{fixed, Json, Layout};
use neuropulsim_sim::serve::{
    synthetic_load, InferenceServer, LoadSpec, PeFault, PeSpec, ServeConfig,
};

const N: usize = 8;

fn model() -> RMatrix {
    RMatrix::from_fn(N, N, |i, j| {
        0.4 * ((i as f64 - j as f64) * 0.31).sin() + if i == j { 0.3 } else { 0.0 }
    })
}

fn fleet(pes: usize, fault: Option<(usize, PeFault)>) -> Vec<PeSpec> {
    (0..pes)
        .map(|i| {
            let mut spec = PeSpec::new(0);
            if let Some((slot, f)) = fault {
                if slot == i {
                    spec.fault = f;
                }
            }
            spec
        })
        .collect()
}

fn main() {
    let mut args = positional_args().into_iter();
    let requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);

    let models = vec![model()];
    // Offered load ~1 request/cycle: ~2.6x one PE's service capacity,
    // so the single-PE run is capacity-bound (scaling is visible) while
    // a 3-of-4-healthy fleet still keeps up (degraded run drops nothing).
    let load = synthetic_load(
        &models,
        LoadSpec {
            requests,
            mean_interarrival: 1,
            seed,
        },
    );
    let cfg = ServeConfig::default();

    let mut runner = Runner::new("serve_bench");
    let meta = [
        ("requests", requests.into()),
        ("seed", seed.into()),
        ("model_n", N.into()),
    ];

    let run_scenario = |runner: &mut Runner, id: &str, specs: &[PeSpec]| {
        // Paired per-rep calibration: the probe spans hundreds of
        // milliseconds, long enough for machine-speed drift to skew a
        // start-of-run calibration, which would flap the 10% CI gate.
        let mut out = None;
        runner.measure_ratio_with_meta(id, 15, &meta, || {
            let mut srv = InferenceServer::new(models.clone(), specs, cfg);
            out = Some(srv.run(&load));
        });
        out.expect("scenario ran")
    };

    let one = run_scenario(&mut runner, "serve/fleet/pe1", &fleet(1, None));
    let four = run_scenario(&mut runner, "serve/fleet/pe4", &fleet(4, None));
    // Brick one device mid-load (arrivals span ~`requests` cycles at
    // the offered rate, so half-way through always lands in-run).
    let degraded = run_scenario(
        &mut runner,
        "serve/fleet/degraded4",
        &fleet(
            4,
            Some((
                1,
                PeFault::HardAt {
                    cycle: requests as u64 / 2,
                },
            )),
        ),
    );

    let scaling = four.report.requests_per_sec / one.report.requests_per_sec;
    runner.derived("scaling_rps_1_to_4", fixed(scaling, 3));
    runner.derived("degraded_dropped", degraded.report.dropped);
    let scenarios = Json::object(Layout::Compact)
        .field("pe1", Json::Raw(one.report.to_json()))
        .field("pe4", Json::Raw(four.report.to_json()))
        .field("degraded4", Json::Raw(degraded.report.to_json()));
    let payload = Json::object(Layout::Compact)
        .field("requests", requests)
        .field("seed", seed)
        .field("model_n", N)
        .field("scaling_rps_1_to_4", fixed(scaling, 3))
        .field("scenarios", scenarios);
    runner.payload(payload);
    print!("{}", runner.to_json());
}
