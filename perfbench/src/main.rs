//! Benchmark of neuropulsim's three end-to-end paths, on both clocks
//! and layer by layer.
//!
//! ```text
//! perfbench --workload <serve_drift|soc_guarded|snn_stdp> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` interleaves untraced repetitions with traced ones, which
//! time every call into a layer from this benchmark's own code and
//! replay the layers an outer call hides (see `replay`), and prints the
//! per-layer table. Every run checks its outputs and its determinism
//! digest, prints each metric by name with its unit, clock and sample
//! count, and ends with one JSON line. It exits nonzero when a
//! correctness or determinism leg fails.

mod harness;
mod replay;
mod serve_drift;
mod snn_stdp;
mod soc_guarded;

use harness::{Metric, RunResult};
use std::process::ExitCode;

/// End-to-end metrics of the JSON line with `--trace 0`; the wrapper
/// script adds `peak_rss_mb`, which only a parent process can measure.
const END_TO_END: &[&str] = &["setup_s", "best_items_per_s", "sim_nj_per_item"];

/// Per-layer metrics of the JSON line with `--trace 1`, with units. A
/// layer a workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("path.wall_s", "s"),
    ("path.untraced_wall_s", "s"),
    ("path.tracing_overhead_s", "s"),
    ("path.remainder_s", "s"),
    ("path.remainder_frac", "frac"),
    ("serve.steps", "count"),
    ("serve.step_s", "s"),
    ("serve.step_p99_us", "us"),
    ("serve.self_s", "s"),
    ("serve.jobs", "count"),
    ("serve.useful_job_frac", "frac"),
    ("serve.batch_fill", "vectors"),
    ("serve.retries", "count"),
    ("serve.canaries", "count"),
    ("serve.recals", "count"),
    ("serve.sim_wait_cycles_p50", "cycles"),
    ("serve.sim_wait_cycles_p99", "cycles"),
    ("accel.starts", "count"),
    ("accel.start_s", "s"),
    ("accel.recal_s", "s"),
    ("accel.ticks", "count"),
    ("accel.tick_s", "s"),
    ("accel.self_s", "s"),
    ("accel.sim_busy_cycles", "cycles"),
    ("accel.sim_nj", "nJ"),
    ("mvm.realizations", "count"),
    ("mvm.realize_s", "s"),
    ("mvm.vectors", "count"),
    ("mvm.multiply_s", "s"),
    ("mvm.macs", "count"),
    ("pcm.cell_drifts", "count"),
    ("pcm.drift_s", "s"),
    // No path calls `core::abft`: the server and the firmware verify
    // outputs with their own checksums, so these read 0.
    ("abft.checks", "count"),
    ("abft.check_s", "s"),
    ("riscv.instret", "count"),
    ("riscv.host_ns_per_instr", "ns"),
    ("riscv.block_hit_frac", "frac"),
    ("riscv.trace_hit_frac", "frac"),
    ("riscv.traces_compiled", "count"),
    ("riscv.trace_exits_guard", "count"),
    ("riscv.trace_exits_mmio", "count"),
    ("riscv.trace_exits_budget", "count"),
    ("riscv.trace_exits_invalidated", "count"),
    ("system.run_s", "s"),
    ("system.self_s", "s"),
    ("system.fast_forward_frac", "frac"),
    ("system.sim_ipc", "instr/cycle"),
    ("dma.bytes", "bytes"),
    ("guard.detections", "count"),
    ("guard.fallbacks", "count"),
    ("snn.ticks", "count"),
    ("snn.tick_s", "s"),
    ("snn.self_s", "s"),
    ("snn.events", "count"),
    ("snn.candidates", "count"),
    ("snn.catch_up_steps", "count"),
    ("snn.fired", "count"),
    ("snn.host_ns_per_event", "ns"),
    ("snn.stdp_pulses", "count"),
    ("parallel.threads", "count"),
    ("parallel.tick_s_1t", "s"),
    ("parallel.speedup", "x"),
];

struct Args {
    workload: String,
    seed: u64,
    /// Sets the number of repetitions (see `Workload::REP_S`).
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be given and positive".to_string());
    }
    Ok(args)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn print_metric(m: &Metric) {
    println!(
        "metric {:<28} {:>16} {:<8} clock={} samples={}",
        m.name,
        format!("{:.6}", m.value),
        m.unit,
        m.clock.tag(),
        m.samples
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(u64, f64, bool) -> RunResult = match args.workload.as_str() {
        "serve_drift" => harness::run::<serve_drift::ServeDrift>,
        "soc_guarded" => harness::run::<soc_guarded::SocGuarded>,
        "snn_stdp" => harness::run::<snn_stdp::SnnStdp>,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    // Set while no other thread runs; the harness changes it only for
    // its all-threads leg.
    std::env::set_var("NEUROPULSIM_THREADS", harness::TIMED_THREADS.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "run workload={} seed={} seconds={} trace={} threads={} nproc={nproc} profile={profile}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        neuropulsim::linalg::parallel::available_threads(),
    );
    let result = run(args.seed, args.seconds, args.trace);

    for m in &result.end_to_end {
        print_metric(m);
    }
    let w = &result.walls;
    println!(
        "walls  repetition wall s: min {:.6} p25 {:.6} p50 {:.6} p75 {:.6} max {:.6} n {}",
        harness::percentile(w, 0.0),
        harness::percentile(w, 25.0),
        harness::percentile(w, 50.0),
        harness::percentile(w, 75.0),
        harness::percentile(w, 100.0),
        w.len()
    );
    for (name, v) in &result.record {
        println!("record {name:<28} {v}");
    }
    println!("digest {:016x}", result.digest);

    let mut problems = result.leg.problems.clone();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(layers) = &result.layers {
        println!("layers over {} traced repetitions:", layers.reps());
        for &(name, unit) in PER_LAYER {
            let v = layers.get(name);
            println!("layer  {name:<32} {v:>16.6} {unit}");
            metrics.push((name, v, unit));
        }
        let wall = layers.get("path.wall_s");
        println!("path   traced wall {wall:.6} s =");
        for name in result.self_times.iter().chain(&["path.remainder_s"]) {
            let v = layers.get(name);
            println!("path     {name:<30} {v:>12.6} s {:>6.1}%", 100.0 * v / wall);
        }
    } else {
        for &name in END_TO_END {
            match result.end_to_end.iter().find(|m| m.name == name) {
                Some(m) => metrics.push((name, m.value, m.unit)),
                None => problems.push(format!("metric {name} was not measured")),
            }
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    problems.sort();
    problems.dedup();
    for p in &problems {
        println!("problem {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.leg.attempted,
        result.leg.failed,
        metrics
            .iter()
            .map(|&(name, v, unit)| json_metric(name, v, unit))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
