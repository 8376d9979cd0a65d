//! Replays of the layers an outer call hides: the accelerator device
//! inside `InferenceServer::step` and `System::run`, and the mesh and
//! PCM layers inside the device.
//!
//! A replay drives the inner layer's public functions on a standalone
//! instance with the shapes, counts and simulated cadence the outer run
//! reported, and times each call from here. The outer layer's self time
//! is then its span minus the replayed inner time.

use crate::harness::Layers;
use neuropulsim::core::mvm::{MvmCore, MvmNoiseConfig};
use neuropulsim::linalg::RMatrix;
use neuropulsim::photonics::pcm::PcmCell;
use neuropulsim::sim::accel::{mmr, AccelDevice, PcmDriftModel};
use neuropulsim::sim::fixed::{from_fixed, to_fixed};
use neuropulsim::sim::ram::Ram;
use neuropulsim::sim::system::{SPM_BASE, SPM_SIZE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The device configuration the outer run used.
pub struct DeviceConfig<'a> {
    pub w: &'a RMatrix,
    pub cpu_hz: f64,
    pub wdm_channels: u32,
    pub setup_cycles: u64,
    /// Largest batch one job carries.
    pub max_batch: u32,
    pub drift: Option<PcmDriftModel>,
    /// Input vectors to stage; at least one.
    pub inputs: &'a [Vec<f64>],
}

/// The work one device did in the outer run.
#[derive(Debug, Clone, Copy)]
pub struct DeviceWork {
    /// Completed jobs (production jobs and canaries).
    pub jobs: u64,
    /// Vectors streamed through the mesh.
    pub vectors: u64,
    /// Recalibrations.
    pub recals: u64,
    /// `AccelDevice::tick` calls the outer scheduler made.
    pub ticks: u64,
    /// Simulated cycles the outer run spanned.
    pub span_cycles: u64,
}

/// Job `k`'s batch when `work.vectors` are spread evenly over the jobs.
fn batch_of(work: &DeviceWork, k: u64, max_batch: u32) -> u32 {
    let base = work.vectors / work.jobs;
    let extra = u64::from(k < work.vectors % work.jobs);
    (base + extra).clamp(1, max_batch.max(1) as u64) as u32
}

/// Whether a recalibration falls just before job `k`.
fn recal_before(work: &DeviceWork, k: u64) -> bool {
    (0..work.recals).any(|r| (r + 1) * work.jobs / (work.recals + 1) == k)
}

/// Nominal start cycle of job `k` on the outer run's cadence.
fn cadence(work: &DeviceWork, k: u64) -> u64 {
    1 + k * work.span_cycles / work.jobs
}

/// Replays `AccelDevice::start`, `tick` and `recalibrate`.
pub fn device(l: &mut Layers, cfg: &DeviceConfig, work: &DeviceWork) {
    if work.jobs == 0 {
        return;
    }
    let n = cfg.w.rows();
    let mut dev = AccelDevice::new(cfg.cpu_hz);
    dev.load_matrix(cfg.w);
    dev.wdm_channels = cfg.wdm_channels;
    dev.setup_cycles = cfg.setup_cycles;
    if let Some(model) = cfg.drift {
        dev.enable_drift(model);
    }
    let mut spm = Ram::new(SPM_BASE, SPM_SIZE);
    let in_addr = SPM_BASE + 0x100;
    let out_addr = in_addr + cfg.max_batch * n as u32 * 4;
    for v in 0..cfg.max_batch as usize {
        let x = &cfg.inputs[v % cfg.inputs.len()];
        for (j, &xj) in x.iter().enumerate() {
            spm.poke(in_addr + ((v * n + j) * 4) as u32, to_fixed(xj) as u32)
                .expect("staging window inside the scratchpad");
        }
    }
    let ticks_per_job = work.ticks / work.jobs;
    let mut now = 0u64;
    for k in 0..work.jobs {
        now = now.max(cadence(work, k));
        if recal_before(work, k) {
            l.span("accel.recal_s", || dev.recalibrate(now));
            now += dev.recal_cycles.max(1);
            l.span("accel.tick_s", || dev.tick(now));
            dev.mmr_store(mmr::CTRL, 2);
            l.add("accel.sim_busy_cycles", dev.recal_cycles.max(1) as f64);
            now += 1;
        }
        let batch = batch_of(work, k, cfg.max_batch);
        dev.mmr_store(mmr::IN_ADDR, in_addr);
        dev.mmr_store(mmr::OUT_ADDR, out_addr);
        dev.mmr_store(mmr::BATCH, batch);
        assert!(dev.mmr_store(mmr::CTRL, 1), "doorbell rings");
        let started = l.span("accel.start_s", || dev.start(now, &mut spm));
        assert!(started, "replayed job starts: error {}", dev.error_bits());
        let cycles = dev.job_cycles(batch);
        l.add("accel.starts", 1.0);
        l.add("accel.sim_busy_cycles", cycles as f64);
        let ticks = ticks_per_job.max(1);
        l.span("accel.tick_s", || {
            for i in 1..=ticks {
                dev.tick(now + i * cycles / ticks);
            }
        });
        l.add("accel.ticks", ticks as f64);
        dev.mmr_store(mmr::CTRL, 2);
        now += cycles + 1;
    }
}

/// Replays the layers inside `AccelDevice::start`: PCM drift of every
/// attenuator cell and mesh re-realization (only with a drift model,
/// as the device does), and the per-vector mesh multiply.
pub fn inner(l: &mut Layers, cfg: &DeviceConfig, work: &DeviceWork) {
    if work.jobs == 0 {
        return;
    }
    let n = cfg.w.rows();
    let core = MvmCore::new(cfg.w);
    let noise = MvmNoiseConfig::ideal();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut realized = core.realize(&noise, &mut rng);
    let xs: Vec<Vec<f64>> = (0..cfg.max_batch as usize)
        .map(|v| {
            cfg.inputs[v % cfg.inputs.len()]
                .iter()
                .map(|&x| from_fixed(to_fixed(x)))
                .collect()
        })
        .collect();
    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut age_s = cfg.drift.map_or(0.0, |m| m.initial_age_s);
    let mut programmed_at = 0u64;
    for k in 0..work.jobs {
        let now = cadence(work, k);
        if recal_before(work, k) {
            age_s = 0.0;
            programmed_at = now;
        }
        if let Some(model) = cfg.drift {
            let elapsed =
                age_s + now.saturating_sub(programmed_at) as f64 * model.seconds_per_cycle;
            let att: Vec<f64> = l.span("pcm.drift_s", || {
                core.attenuation()
                    .iter()
                    .map(|&a| {
                        let mut cell = PcmCell::new(model.material);
                        cell.set_state(1.0 - a);
                        cell.apply_drift(elapsed, model.nu);
                        (1.0 - cell.crystalline_fraction()).clamp(0.0, 1.0)
                    })
                    .collect()
            });
            l.add("pcm.cell_drifts", att.len() as f64);
            realized = l.span("mvm.realize_s", || {
                core.realize_with_attenuation(&att, &noise, &mut rng)
            });
            l.add("mvm.realizations", 1.0);
        }
        let batch = batch_of(work, k, cfg.max_batch) as usize;
        l.span("mvm.multiply_s", || {
            for (x, y) in xs.iter().zip(ys.iter_mut()).take(batch) {
                realized.multiply_noisy_into(black_box(x), y, &mut rng);
            }
        });
        l.add("mvm.vectors", batch as f64);
        l.add("mvm.macs", (batch * n * n) as f64);
    }
}
