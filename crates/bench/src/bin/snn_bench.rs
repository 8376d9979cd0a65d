//! **Event-driven SNN probe** — the headline benchmark of the sparse
//! engine (`snn::sparse::EventNet`). Three campaigns in one unified
//! `neuropulsim-bench/v1` report:
//!
//! 1. **matched sizes** — event vs dense engine on identical specs and
//!    injection schedules (bit-identity is re-checked first), yielding
//!    the `speedup_vs_dense/*` derived entries;
//! 2. **million-neuron scale** — ≥1M neurons at sparse activity,
//!    yielding `ticks_per_s` at the headline activity;
//! 3. **activity ladder** — the same million-neuron network driven at
//!    0.5% / 2% / 5% firing, whose per-tick costs show the engine
//!    scales with the firing count, not with `N * M`
//!    (`scaling_tick_cost_ratio` ≈ the event ratio, far from the dense
//!    engine's flat 1.0).
//!
//! It also times the spiking substrate of experiment E6 (measurements
//! only, no payload): Yamada RK4 integration, a full PCM synapse
//! programming sweep, and WTA-layer presentations with and without
//! learning. Last comes the plastic path: `snn_tick/event_stdp/n16384`
//! times a 16384-neuron net with STDP on, and
//! `stdp_pulses_per_tick/n16384` records the programming pulses its
//! ticks apply.
//!
//! The committed `BENCH_snn.json` baseline is regenerated with
//! `cargo run --release --bin snn_bench > BENCH_snn.json`; CI fails on
//! a >10% `norm` regression and re-asserts the speedup/scaling floors.
//!
//! Usage: `snn_bench [--quick]` (`--quick` drops the million-neuron
//! campaigns to 262144 neurons for smoke runs).

use neuropulsim_bench::runner::Runner;
use neuropulsim_linalg::parallel::{available_threads, split_seed};
use neuropulsim_photonics::laser::{YamadaLaser, YamadaParams};
use neuropulsim_sim::json::{fixed, Json, Layout};
use neuropulsim_snn::encoding::latency_encode;
use neuropulsim_snn::network::SpikingLayer;
use neuropulsim_snn::sparse::{DenseNet, EventNet, NetSpec};
use neuropulsim_snn::synapse::PcmSynapse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median repetitions per measurement.
const REPS: usize = 5;
/// Ticks per measured repetition.
const TICKS: usize = 10;
/// Synaptic fan-out per neuron.
const FANOUT: usize = 16;
/// Firing threshold — high enough that propagated drive alone rarely
/// fires, so the injection schedule controls the activity level.
const THRESHOLD: f64 = 4.0;

fn spec(neurons: usize) -> NetSpec {
    let mut spec = NetSpec::random(17, neurons, FANOUT, 16, false);
    spec.threshold = THRESHOLD;
    spec
}

/// Pre-generated injection schedule: each tick kicks `k` pseudo-random
/// neurons hard enough to fire immediately.
fn schedule(spec: &NetSpec, ticks: usize, k: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
    let kick = 1.5 * spec.threshold / spec.dt;
    (0..ticks)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, t as u64));
            (0..k)
                .map(|_| (rng.gen_range(0..spec.neurons as u32), kick))
                .collect()
        })
        .collect()
}

/// Re-checks event/dense bit-identity on a matched workload before any
/// timing. Returns total spikes (identical across engines by then).
fn check_identity(n: usize, k: usize) -> u64 {
    let spec = spec(n);
    let schedule = schedule(&spec, 30, k, 23);
    let mut ev = EventNet::new(&spec);
    ev.threads = available_threads();
    let mut dn = DenseNet::new(&spec);
    let mut spikes = 0u64;
    for inj in &schedule {
        let fe = ev.tick(inj).to_vec();
        let fd = dn.tick(inj).to_vec();
        assert_eq!(fe, fd, "event vs dense fire queue diverged at n={n}");
        spikes += fe.len() as u64;
    }
    ev.flush();
    for j in 0..n {
        assert_eq!(
            ev.potentials()[j].to_bits(),
            dn.potentials()[j].to_bits(),
            "event vs dense potential bits diverged at n={n} neuron {j}"
        );
    }
    spikes
}

/// Times `iters` calls of `op` per repetition (after one warm-up call)
/// under `id`; each case picks `iters` so a repetition lasts 10 ms or more.
fn time_calls<F: FnMut()>(runner: &mut Runner, id: &str, iters: usize, mut op: F) {
    op();
    runner.measure_with_meta(id, REPS, &[("iters", iters.into())], || {
        for _ in 0..iters {
            op();
        }
    });
}

/// The E6 spiking substrate: one excitable laser, one synapse, one
/// 9-input WTA layer.
fn bench_substrate(runner: &mut Runner) {
    time_calls(runner, "yamada_rk4_10k_steps", 20, || {
        let mut laser = YamadaLaser::new(YamadaParams::default());
        laser.perturb_gain(1.0);
        std::hint::black_box(laser.run(200.0)); // 10k steps at dt = 0.02
    });
    time_calls(runner, "pcm_synapse_full_sweep", 10_000, || {
        let mut s = PcmSynapse::new();
        for _ in 0..15 {
            s.depress();
        }
        for _ in 0..15 {
            s.potentiate();
        }
        std::hint::black_box(s.weight());
    });
    let stimulus = latency_encode(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 20.0);
    for (variant, learn) in [("inference", false), ("learning", true)] {
        let mut layer = SpikingLayer::new(9, 3, &mut StdRng::seed_from_u64(1));
        let id = format!("spiking_layer_present/{variant}");
        time_calls(runner, &id, 5000, || {
            std::hint::black_box(layer.present(&stimulus, 30.0, 0.5, learn));
        });
    }
}

/// The STDP path: the matched-size spec with plasticity on, kicked at
/// about 2% per tick, so every tick programs synapses.
fn bench_stdp(runner: &mut Runner, threads: usize) {
    const N: usize = 16_384;
    let mut sp = spec(N);
    sp.plastic = true;
    let k = N / 50;
    let sched = schedule(&sp, TICKS * (REPS + 1), k, 53);
    let mut net = EventNet::new(&sp);
    net.threads = threads;
    let mut cursor = 0usize;
    for _ in 0..TICKS {
        net.tick(&sched[cursor % sched.len()]);
        cursor += 1;
    }
    let (p0, t0) = (net.synapses().programming_pulses(), net.tick_count());
    runner.measure_with_meta(
        &format!("snn_tick/event_stdp/n{N}"),
        REPS,
        &[("ticks", TICKS.into()), ("injected", k.into())],
        || {
            for _ in 0..TICKS {
                net.tick(&sched[cursor % sched.len()]);
                cursor += 1;
            }
        },
    );
    let pulses = net.synapses().programming_pulses() - p0;
    runner.derived(
        &format!("stdp_pulses_per_tick/n{N}"),
        fixed(pulses as f64 / (net.tick_count() - t0) as f64, 1),
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let big_n: usize = if quick { 1 << 18 } else { 1 << 20 };
    let mut runner = Runner::new("snn_bench");
    let threads = available_threads();

    // ---- 1. matched sizes: event vs dense, identical workloads ------
    let matched_sizes = [1024usize, 4096];
    let mut matched_payload = Vec::new();
    for &n in &matched_sizes {
        let k = (n / 50).max(1); // ~2% injected activity
        let spikes = check_identity(n, k);
        matched_payload.push(
            Json::object(Layout::Compact)
                .field("n", n)
                .field("injected_per_tick", k)
                .field("spikes_30_ticks", spikes),
        );

        let sp = spec(n);
        let sched = schedule(&sp, TICKS * (REPS + 1), k, 31);
        let mut ev = EventNet::new(&sp);
        ev.threads = threads;
        let mut dn = DenseNet::new(&sp);
        let mut ec = 0usize;
        for _ in 0..TICKS {
            ev.tick(&sched[ec % sched.len()]);
            ec += 1;
        }
        let ev_ns = runner.measure_with_meta(
            &format!("snn_tick/event/n{n}"),
            REPS,
            &[("ticks", TICKS.into()), ("injected", k.into())],
            || {
                for _ in 0..TICKS {
                    ev.tick(&sched[ec % sched.len()]);
                    ec += 1;
                }
            },
        );
        let mut dc = 0usize;
        for _ in 0..TICKS {
            dn.tick(&sched[dc % sched.len()]);
            dc += 1;
        }
        let dn_ns = runner.measure_with_meta(
            &format!("snn_tick/dense/n{n}"),
            REPS,
            &[("ticks", TICKS.into()), ("injected", k.into())],
            || {
                for _ in 0..TICKS {
                    dn.tick(&sched[dc % sched.len()]);
                    dc += 1;
                }
            },
        );
        runner.derived(&format!("speedup_vs_dense/n{n}"), fixed(dn_ns / ev_ns, 2));
    }

    // ---- 2 + 3. million-neuron scale and the activity ladder --------
    let sp = spec(big_n);
    let mut net = EventNet::new(&sp);
    net.threads = threads;
    let mut ladder_payload = Vec::new();
    let mut tick_ns_by_activity = Vec::new();
    for (label, permille) in [("act0p5", 5usize), ("act2", 20), ("act5", 50)] {
        let k = big_n * permille / 1000;
        let sched = schedule(&sp, TICKS * (REPS + 1), k, 41);
        let mut cursor = 0usize;
        for _ in 0..TICKS {
            net.tick(&sched[cursor % sched.len()]);
            cursor += 1;
        }
        let s0 = net.total_stats();
        let t0 = net.tick_count();
        let median_ns = runner.measure_with_meta(
            &format!("snn_tick/event/n{big_n}_{label}"),
            REPS,
            &[("ticks", TICKS.into()), ("injected", k.into())],
            || {
                for _ in 0..TICKS {
                    net.tick(&sched[cursor % sched.len()]);
                    cursor += 1;
                }
            },
        );
        let s1 = net.total_stats();
        let ticks_run = (net.tick_count() - t0) as f64;
        let fired_per_tick = (s1.fired - s0.fired) as f64 / ticks_run;
        let events_per_tick = (s1.events_delivered - s0.events_delivered) as f64 / ticks_run;
        let ns_per_tick = median_ns / TICKS as f64;
        tick_ns_by_activity.push(ns_per_tick);
        runner.derived(
            &format!("ticks_per_s/n{big_n}_{label}"),
            fixed(1e9 / ns_per_tick, 1),
        );
        runner.derived(
            &format!("ns_per_event/n{big_n}_{label}"),
            fixed(ns_per_tick / events_per_tick.max(1.0), 1),
        );
        ladder_payload.push(
            Json::object(Layout::Compact)
                .field("label", label)
                .field("injected_per_tick", k)
                .field("fired_per_tick", fixed(fired_per_tick, 0))
                .field("events_per_tick", fixed(events_per_tick, 0))
                .field(
                    "activity_pct",
                    fixed(100.0 * fired_per_tick / big_n as f64, 2),
                ),
        );
    }
    // Event-driven evidence: tick cost at 5% vs 0.5% activity. A dense
    // O(N*M) sweep would sit at 1.0; event-driven tracks the ~10x event
    // ratio.
    runner.derived(
        "scaling_tick_cost_ratio",
        fixed(tick_ns_by_activity[2] / tick_ns_by_activity[0], 2),
    );

    let payload = Json::object(Layout::Compact)
        .field("neurons", big_n)
        .field("fanout", FANOUT)
        .field("quick", quick)
        .field("matched_bit_identical", true)
        .field("matched", Json::array(Layout::Compact, matched_payload))
        .field("ladder", Json::array(Layout::Compact, ladder_payload));
    runner.payload(payload);
    bench_substrate(&mut runner);
    bench_stdp(&mut runner, threads);
    print!("{}", runner.to_json());
}
