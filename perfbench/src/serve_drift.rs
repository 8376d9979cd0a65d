//! `serve_drift` — a request from admission to an ABFT-verified
//! response (item = request; open loop in simulated time).
//!
//! A linear digits classifier, trained with `nn::mlp` and padded to
//! 16×16, is served by a 4-PE `InferenceServer` fleet whose PCM weights
//! drift, with drift canaries on. PE 1 is transiently bricked a quarter
//! of the way in, so ejection, recovery and probation all run. Arrivals
//! come about one per cycle, about 2.6x one PE's capacity.

use crate::harness::{self, percentile, Clock, Layers, Leg, Metric, Workload, WALL};
use crate::replay::{self, DeviceConfig, DeviceWork};
use neuropulsim::linalg::RMatrix;
use neuropulsim::nn::dataset::{synthetic_digits, DigitsConfig};
use neuropulsim::nn::mlp::{argmax, Mlp};
use neuropulsim::sim::accel::PcmDriftModel;
use neuropulsim::sim::fixed::{from_fixed, to_fixed};
use neuropulsim::sim::serve::{
    InferenceServer, PeFault, PeSpec, Request, ServeConfig, ServeOutcome, SERVE_CPU_HZ,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Mesh size the classifier is padded to.
const N: usize = 16;
const REQUESTS: usize = 20_000;
const PES: usize = 4;
/// The deployed model is fixed; `--seed` draws the traffic. How early a
/// drift canary trips depends on the model, so a per-seed model would
/// swing the recalibration count, and every metric with it.
const MODEL_SEED: u64 = 1;
const EPOCHS: usize = 60;
const LEARNING_RATE: f64 = 0.05;
/// PE 1 is bricked over `FAULT_AT..FAULT_AT + FAULT_CYCLES`.
const FAULT_AT: u64 = REQUESTS as u64 / 4;
const FAULT_CYCLES: u64 = 2_000;
/// Served features are `x - CENTER`, so they straddle zero like the
/// fleet's canary input and drift shows in canaries before in jobs.
const CENTER: f64 = 0.5;

pub struct ServeDrift {
    w: RMatrix,
    bias: Vec<f64>,
    load: Vec<Request>,
    labels: Vec<usize>,
    /// Float `W·x` of each request's quantized input.
    expected: Vec<Vec<f64>>,
    float_correct: usize,
    /// Inputs the device replays stage.
    staged: Vec<Vec<f64>>,
    cfg: ServeConfig,
    spec: PeSpec,
    template: InferenceServer,
}

pub struct Rep {
    out: ServeOutcome,
    server: InferenceServer,
    step_ms: Vec<f64>,
}

impl ServeDrift {
    fn served_correct(&self, out: &ServeOutcome) -> usize {
        let classes = self.bias.len();
        out.responses
            .iter()
            .filter(|r| {
                let logits: Vec<f64> = r.y[..classes]
                    .iter()
                    .zip(&self.bias)
                    .map(|(y, b)| y + b)
                    .collect();
                argmax(&logits) == self.labels[r.id as usize]
            })
            .count()
    }

    fn device_work(&self, rep: &Rep, slot: usize, steps: u64) -> DeviceWork {
        let dev = rep.server.pe_device(slot);
        DeviceWork {
            jobs: dev.jobs_completed,
            vectors: dev.vectors_processed,
            recals: dev.recal_count() as u64,
            ticks: steps,
            span_cycles: rep.out.report.total_cycles,
        }
    }
}

impl Workload for ServeDrift {
    type Rep = Rep;
    const REP_S: f64 = 0.2;

    fn setup(seed: u64) -> Self {
        let mut model_rng = StdRng::seed_from_u64(MODEL_SEED);
        let data = synthetic_digits(&mut model_rng, DigitsConfig::default());
        let (train, test) = data.split(0.8);
        let mut mlp = Mlp::new(&mut model_rng, &[data.dim, data.classes]);
        mlp.fit(&train, EPOCHS, LEARNING_RATE);
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = &mlp.layers()[0];
        let w = RMatrix::from_fn(N, N, |i, j| {
            if i < data.classes && j < data.dim {
                layer.weights[(i, j)]
            } else {
                0.0
            }
        });
        let mut load = Vec::with_capacity(REQUESTS);
        let mut labels = Vec::with_capacity(REQUESTS);
        let mut arrival = 0u64;
        for id in 0..REQUESTS as u64 {
            arrival += rng.gen_range(0..=2u64);
            let k = rng.gen_range(0..test.len());
            load.push(Request {
                id,
                model: 0,
                arrival,
                x: test.samples[k].iter().map(|v| v - CENTER).collect(),
            });
            labels.push(test.labels[k]);
        }
        let expected = load
            .iter()
            .map(|r| {
                let q: Vec<f64> = r.x.iter().map(|&x| from_fixed(to_fixed(x))).collect();
                w.mul_vec(&q)
            })
            .collect();
        let float_correct = load
            .iter()
            .zip(&labels)
            .filter(|(r, &l)| {
                let x: Vec<f64> = r.x.iter().map(|v| v + CENTER).collect();
                mlp.predict(&x) == l
            })
            .count();

        let spec = PeSpec {
            drift: Some(PcmDriftModel {
                nu: 0.05,
                seconds_per_cycle: 3e-4,
                initial_age_s: 1e-3,
                ..PcmDriftModel::default()
            }),
            ..PeSpec::new(0)
        };
        let mut specs = vec![spec; PES];
        specs[1].fault = PeFault::HardFor {
            cycle: FAULT_AT,
            until: FAULT_AT + FAULT_CYCLES,
        };
        let cfg = ServeConfig {
            canary_period: 200,
            // The canary input barely excites this rank-4 model's drift
            // error, so it must trip far below the job tolerance to
            // recalibrate before production jobs fail their checksum.
            drift_margin: 0.01,
            ..ServeConfig::default()
        };
        let template = InferenceServer::new(vec![w.clone()], &specs, cfg);
        // Served inputs are centred; the host folds `W·CENTER` back in.
        let bias = (0..data.classes)
            .map(|i| layer.bias[i] + CENTER * (0..data.dim).map(|j| w[(i, j)]).sum::<f64>())
            .collect();
        let staged = load.iter().take(8).map(|r| r.x.clone()).collect();
        ServeDrift {
            w,
            bias,
            load,
            labels,
            expected,
            float_correct,
            staged,
            cfg,
            spec,
            template,
        }
    }

    fn rep(&self, trace: Option<&mut Layers>) -> Rep {
        // `InferenceServer::run` is `begin` then `step` until done; the
        // steps are driven from here so each is timed on its own.
        let t_wall = Instant::now();
        let mut server = self.template.clone();
        server.begin(&self.load);
        let mut step_ms = Vec::new();
        loop {
            let t0 = Instant::now();
            let more = server.step();
            step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if !more {
                break;
            }
        }
        let out = server.finish();
        let wall_s = t_wall.elapsed().as_secs_f64();
        let rep = Rep {
            out,
            server,
            step_ms,
        };
        let Some(l) = trace else {
            return rep;
        };
        l.add(WALL, wall_s);
        let steps = rep.step_ms.len() as u64;
        l.add("serve.step_s", rep.step_ms.iter().sum::<f64>() / 1e3);
        for ms in &rep.step_ms {
            l.sample("serve.step_us", ms * 1e3);
        }

        let r = &rep.out.report;
        l.add("serve.steps", steps as f64);
        l.add("serve.jobs", r.jobs_dispatched as f64);
        let device_jobs = r.jobs_dispatched + r.canaries_run;
        let clean = r.jobs_dispatched - r.jobs_failed;
        l.add(
            "serve.useful_job_frac",
            clean as f64 / device_jobs.max(1) as f64,
        );
        l.add("serve.batch_fill", r.mean_batch_fill);
        l.add("serve.retries", r.retries as f64);
        l.add("serve.canaries", r.canaries_run as f64);
        let unloaded = rep.server.pe_device(0).job_cycles(1);
        for resp in &rep.out.responses {
            l.sample(
                "serve.sim_wait_cycles",
                resp.latency().saturating_sub(unloaded) as f64,
            );
        }
        let cfg = DeviceConfig {
            w: &self.w,
            cpu_hz: SERVE_CPU_HZ,
            wdm_channels: self.spec.wdm_channels,
            setup_cycles: self.spec.setup_cycles,
            max_batch: self.spec.wdm_channels,
            drift: self.spec.drift,
            inputs: &self.staged,
        };
        for slot in 0..PES {
            let work = self.device_work(&rep, slot, steps);
            l.add("serve.recals", work.recals as f64);
            l.add("accel.sim_nj", rep.server.pe_device(slot).energy() * 1e9);
            replay::device(l, &cfg, &work);
            replay::inner(l, &cfg, &work);
        }
        rep
    }

    fn items(&self, rep: &Rep) -> u64 {
        rep.out.report.completed as u64
    }

    fn piece_ms<'a>(&self, rep: &'a Rep) -> &'a [f64] {
        &rep.step_ms
    }

    fn record(&self, rep: &Rep) -> Vec<(&'static str, f64)> {
        let r = &rep.out.report;
        let responses = harness::hash_words(rep.out.responses.iter().flat_map(|resp| {
            [resp.id, resp.completed, resp.retries as u64]
                .into_iter()
                .chain(resp.y.iter().map(|y| y.to_bits()))
        }));
        let drops = harness::hash_words(
            rep.out
                .drops
                .iter()
                .flat_map(|&(id, reason)| [id, reason as u64]),
        );
        let mut rec = vec![
            ("completed", r.completed as f64),
            ("dropped", r.dropped as f64),
            ("sim_total_cycles", r.total_cycles as f64),
            ("sim_latency_p50_cycles", r.p50_latency_cycles as f64),
            ("sim_latency_p99_cycles", r.p99_latency_cycles as f64),
            ("sim_latency_max_cycles", r.max_latency_cycles as f64),
            ("jobs", r.jobs_dispatched as f64),
            ("jobs_failed", r.jobs_failed as f64),
            ("retries", r.retries as f64),
            ("canaries", r.canaries_run as f64),
            ("batch_fill", r.mean_batch_fill),
            ("sim_fleet_energy_j", r.fleet_energy_j),
            ("served_correct", self.served_correct(&rep.out) as f64),
            ("responses_hash", (responses >> 11) as f64),
            ("drops_hash", (drops >> 11) as f64),
        ];
        let devices: Vec<_> = (0..PES).map(|slot| rep.server.pe_device(slot)).collect();
        let per_pe = harness::hash_words(devices.iter().zip(&r.per_pe).flat_map(|(dev, life)| {
            [
                dev.jobs_completed,
                dev.vectors_processed,
                dev.recal_count() as u64,
                life.ejections as u64,
                life.readmissions as u64,
            ]
        }));
        let vectors: u64 = devices.iter().map(|dev| dev.vectors_processed).sum();
        let recals: u32 = devices.iter().map(|dev| dev.recal_count()).sum();
        let ejections: u32 = r.per_pe.iter().map(|life| life.ejections).sum();
        rec.extend([
            ("macs", (vectors * (N * N) as u64) as f64),
            ("recals", recals as f64),
            ("ejections", ejections as f64),
            ("per_pe_hash", (per_pe >> 11) as f64),
        ]);
        rec
    }

    fn check(&self, rep: &Rep) -> Leg {
        let out = &rep.out;
        let mut leg = Leg {
            attempted: REQUESTS as u64,
            failed: out.report.dropped as u64,
            problems: Vec::new(),
        };
        let mut seen = vec![0u8; REQUESTS];
        let ids = out
            .responses
            .iter()
            .map(|r| r.id)
            .chain(out.drops.iter().map(|&(id, _)| id));
        for id in ids {
            match seen.get_mut(id as usize) {
                Some(s) => *s += 1,
                None => leg.problems.push(format!("serve: unknown request id {id}")),
            }
        }
        let wrong = seen.iter().filter(|&&s| s != 1).count();
        if wrong > 0 {
            leg.problems
                .push(format!("serve: {wrong} requests did not end exactly once"));
        }
        let tol = self.cfg.checksum_tolerance * N as f64;
        let bad = out
            .responses
            .iter()
            .filter(|r| {
                let want = &self.expected[r.id as usize];
                let sum_err = (r.y.iter().sum::<f64>() - want.iter().sum::<f64>()).abs();
                let max_err =
                    r.y.iter()
                        .zip(want)
                        .map(|(y, e)| (y - e).abs())
                        .fold(0.0, f64::max);
                sum_err > tol || max_err > tol
            })
            .count();
        if bad > 0 {
            leg.problems.push(format!(
                "serve: {bad} outputs outside the checksum tolerance {tol} of the float W·x"
            ));
        }
        leg
    }

    fn metrics(&self, rep: &Rep, _best_pieces_ms: &[f64]) -> Vec<Metric> {
        let r = &rep.out.report;
        let done = r.completed.max(1) as f64;
        vec![
            Metric::new(
                "sim_latency_p50_cycles",
                r.p50_latency_cycles as f64,
                "cycles",
                Clock::Sim,
                r.completed,
            ),
            Metric::new(
                "sim_latency_p99_cycles",
                r.p99_latency_cycles as f64,
                "cycles",
                Clock::Sim,
                r.completed,
            ),
            Metric::new(
                "sim_cycles_per_item",
                r.total_cycles as f64 / done,
                "cycles",
                Clock::Sim,
                r.completed,
            ),
            Metric::new(
                "sim_nj_per_item",
                r.fleet_energy_j * 1e9 / done,
                "nJ",
                Clock::Sim,
                r.completed,
            ),
            Metric::new(
                "accuracy",
                self.served_correct(&rep.out) as f64 / REQUESTS as f64,
                "frac",
                Clock::Sim,
                REQUESTS,
            ),
            Metric::new(
                "float_accuracy",
                self.float_correct as f64 / REQUESTS as f64,
                "frac",
                Clock::None,
                REQUESTS,
            ),
        ]
    }

    fn finish_layers(&self, l: &mut Layers, _all_threads: &Rep) {
        l.set(
            "serve.step_p99_us",
            percentile(l.samples("serve.step_us"), 99.0),
        );
        let waits = l.samples("serve.sim_wait_cycles").to_vec();
        l.set("serve.sim_wait_cycles_p50", percentile(&waits, 50.0));
        l.set("serve.sim_wait_cycles_p99", percentile(&waits, 99.0));
        let accel = l.get("accel.start_s") + l.get("accel.recal_s") + l.get("accel.tick_s");
        let device_inner = l.get("pcm.drift_s") + l.get("mvm.realize_s") + l.get("mvm.multiply_s");
        l.set("accel.self_s", accel - device_inner);
        // The server verifies outputs with an inline plain checksum, not
        // through `core::abft`, so that check stays in its self time.
        l.set("serve.self_s", l.get("serve.step_s") - accel);
        l.set("parallel.threads", 1.0);
    }

    fn self_times(&self) -> &'static [&'static str] {
        &[
            "serve.self_s",
            "accel.self_s",
            "pcm.drift_s",
            "mvm.realize_s",
            "mvm.multiply_s",
        ]
    }
}
