//! `snn_stdp` — an SNN burst (item = tick; closed loop of ticks).
//!
//! An event-driven `EventNet` of 16384 neurons, fan-out 16 and 16 PCM
//! levels with STDP on runs 1000-tick bursts, with about 2% of the neurons
//! kicked each tick. It is the only workload whose layers can fan out
//! over threads on every tick, and the only one that writes synapses
//! (STDP pulses). Timed bursts run on one thread; the `parallel.*`
//! layer compares them with the burst at `nproc` threads.

use crate::harness::{self, percentile, Clock, Layers, Leg, Metric, Workload, WALL};
use neuropulsim::linalg::parallel::{available_threads, split_seed};
use neuropulsim::oracle::snn_ref::{RefSparseNet, RefStdp};
use neuropulsim::snn::sparse::{EventNet, NetSpec, TickStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NEURONS: usize = 16_384;
const FANOUT: usize = 16;
const LEVELS: u32 = 16;
/// Ticks per repetition. Short bursts give a run many repetitions, so
/// each tick position's fastest time is taken over many samples.
const TICKS: usize = 1_000;
/// Neurons kicked per tick (about 2%).
const KICKS: usize = NEURONS / 50;
/// Firing threshold: high enough that propagated drive alone rarely
/// fires, so the kick schedule sets the activity.
const THRESHOLD: f64 = 4.0;
/// Ticks compared bit for bit against the oracle reference.
const ORACLE_TICKS: usize = 8;

pub struct SnnStdp {
    spec: NetSpec,
    schedule: Vec<Vec<(u32, f64)>>,
    template: EventNet,
}

pub struct Rep {
    threads: usize,
    tick_ms: Vec<f64>,
    stats: TickStats,
    pulses: u64,
    energy_j: f64,
    ledger: u64,
    levels: u64,
}

impl Workload for SnnStdp {
    type Rep = Rep;
    const REP_S: f64 = 1.0;

    fn setup(seed: u64) -> Self {
        let mut spec = NetSpec::random(seed, NEURONS, FANOUT, LEVELS, true);
        spec.threshold = THRESHOLD;
        let kick = 1.5 * spec.threshold / spec.dt;
        let schedule = (0..TICKS)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(split_seed(!seed, t as u64));
                (0..KICKS)
                    .map(|_| (rng.gen_range(0..NEURONS as u32), kick))
                    .collect()
            })
            .collect();
        let template = EventNet::new(&spec);
        SnnStdp {
            spec,
            schedule,
            template,
        }
    }

    fn rep(&self, trace: Option<&mut Layers>) -> Rep {
        let t_wall = Instant::now();
        let mut net = self.template.clone();
        net.threads = available_threads();
        let mut tick_ms = Vec::with_capacity(TICKS);
        for injections in &self.schedule {
            let t0 = Instant::now();
            net.tick(injections);
            tick_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let syn = net.synapses();
        let base = self.template.synapses();
        let rep = Rep {
            threads: net.threads,
            stats: net.total_stats(),
            pulses: syn.programming_pulses() - base.programming_pulses(),
            energy_j: syn.programming_energy() - base.programming_energy(),
            ledger: harness::hash_words(net.fire_ledger().iter().map(|&t| t as u64)),
            levels: harness::hash_words(syn.levels_flat().iter().map(|&v| v as u64)),
            tick_ms,
        };
        if let Some(l) = trace {
            l.add(WALL, t_wall.elapsed().as_secs_f64());
            let s = rep.stats;
            l.add("snn.ticks", TICKS as f64);
            l.add("snn.tick_s", rep.tick_ms.iter().sum::<f64>() / 1e3);
            l.add("snn.events", s.events_delivered as f64);
            l.add("snn.candidates", s.candidates as f64);
            l.add("snn.catch_up_steps", s.catch_up_steps as f64);
            l.add("snn.fired", s.fired as f64);
            l.add("snn.stdp_pulses", rep.pulses as f64);
        }
        rep
    }

    fn items(&self, rep: &Rep) -> u64 {
        rep.tick_ms.len() as u64
    }

    fn record(&self, rep: &Rep) -> Vec<(&'static str, f64)> {
        let s = rep.stats;
        vec![
            ("ticks", rep.tick_ms.len() as f64),
            ("events", s.events_delivered as f64),
            ("candidates", s.candidates as f64),
            ("catch_up_steps", s.catch_up_steps as f64),
            ("fired", s.fired as f64),
            ("stdp_pulses", rep.pulses as f64),
            ("sim_stdp_energy_j", rep.energy_j),
            ("ledger_hash", (rep.ledger >> 11) as f64),
            ("levels_hash", (rep.levels >> 11) as f64),
        ]
    }

    fn check(&self, _rep: &Rep) -> Leg {
        Leg::default()
    }

    /// The first ticks must fire exactly as the oracle reference does on
    /// the same spec and schedule, with bit-identical fire ledgers.
    fn extra_leg(&self) -> Leg {
        let spec = &self.spec;
        let mut net = self.template.clone();
        net.threads = available_threads();
        let weights = net.synapses().table().weights().to_vec();
        let mut oracle = RefSparseNet::new(
            spec.neurons,
            spec.tau,
            spec.threshold,
            spec.refractory,
            spec.dt,
            RefStdp {
                a_plus: spec.rule.a_plus,
                a_minus: spec.rule.a_minus,
                tau_plus: spec.rule.tau_plus,
                tau_minus: spec.rule.tau_minus,
            },
            spec.plastic,
            &weights,
            &spec.edges,
            &spec.init_levels,
        );
        let mut leg = Leg::default();
        for (t, injections) in self.schedule.iter().take(ORACLE_TICKS).enumerate() {
            let fired = net.tick(injections).to_vec();
            let want = oracle.tick(injections);
            leg.attempted += 1;
            if fired != want || net.fire_ledger() != oracle.fire_ledger() {
                leg.failed += 1;
                leg.problems.push(format!(
                    "snn: tick {t} fired {} neurons, oracle {}; ledgers {}",
                    fired.len(),
                    want.len(),
                    if net.fire_ledger() == oracle.fire_ledger() {
                        "agree"
                    } else {
                        "differ"
                    }
                ));
            }
        }
        leg
    }

    fn piece_ms<'a>(&self, rep: &'a Rep) -> &'a [f64] {
        &rep.tick_ms
    }

    /// Tick percentiles are over the tick positions of a burst, each at
    /// its fastest time across the repetitions, like `best_items_per_s`.
    fn metrics(&self, rep: &Rep, ticks: &[f64]) -> Vec<Metric> {
        vec![
            Metric::new(
                "tick_p50_ms",
                percentile(ticks, 50.0),
                "ms",
                Clock::Host,
                ticks.len(),
            ),
            Metric::new(
                "tick_p99_ms",
                percentile(ticks, 99.0),
                "ms",
                Clock::Host,
                ticks.len(),
            ),
            Metric::new(
                "sim_nj_per_item",
                rep.energy_j * 1e9 / TICKS as f64,
                "nJ",
                Clock::Sim,
                TICKS,
            ),
            Metric::new(
                "sim_events_per_item",
                rep.stats.events_delivered as f64 / TICKS as f64,
                "count",
                Clock::Sim,
                TICKS,
            ),
        ]
    }

    fn finish_layers(&self, l: &mut Layers, all_threads: &Rep) {
        let tick_s = l.get("snn.tick_s");
        l.set("snn.self_s", tick_s);
        l.set(
            "snn.host_ns_per_event",
            tick_s * 1e9 / l.get("snn.events").max(1.0),
        );
        // The traced bursts run on one thread.
        let all_s = all_threads.tick_ms.iter().sum::<f64>() / 1e3;
        l.set("parallel.threads", all_threads.threads as f64);
        l.set("parallel.tick_s_1t", tick_s);
        l.set("parallel.speedup", tick_s / all_s);
    }

    fn self_times(&self) -> &'static [&'static str] {
        &["snn.self_s"]
    }
}
