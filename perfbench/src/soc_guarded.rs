//! `soc_guarded` — a RISC-V firmware run from load to exit (item = GeMM
//! output vector; closed loop, one firmware run at a time).
//!
//! A `System` runs the guarded offload firmware over 4096 16-element
//! vectors: DMA in, photonic PE, `wfi`, a per-vector ABFT check and
//! retry in firmware, then DMA out. Drift is off, so the device never
//! re-realizes its mesh: a drift or device optimization should leave
//! this workload unchanged.

use crate::harness::{self, Clock, Layers, Leg, Metric, Workload, WALL};
use crate::replay::{self, DeviceConfig, DeviceWork};
use neuropulsim::core::abft::fixed_checksum_tolerance;
use neuropulsim::linalg::RMatrix;
use neuropulsim::riscv::block::PerfCounters;
use neuropulsim::riscv::cpu::Halt;
use neuropulsim::sim::firmware::{accel_offload_guarded, DramLayout, GuardConfig};
use neuropulsim::sim::fixed::{from_fixed, to_fixed};
use neuropulsim::sim::guard::{read_guard_record, write_guard_operands, GuardRecord};
use neuropulsim::sim::system::{RunOutcome, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 16;
const VECTORS: usize = 4096;
/// Cycle budget of one run; a clean run needs about 5.2M.
const MAX_CYCLES: u64 = 50_000_000;

pub struct SocGuarded {
    w: RMatrix,
    x: Vec<Vec<f64>>,
    /// Q16.16 of the float `W·x` over the quantized inputs.
    golden: Vec<i32>,
    layout: DramLayout,
    template: System,
}

pub struct Rep {
    outcome: RunOutcome,
    cycles: u64,
    instret: u64,
    energy_j: f64,
    perf: PerfCounters,
    fast_forwarded: u64,
    dma_bytes: u64,
    guard: GuardRecord,
    output: Vec<i32>,
    accel_jobs: u64,
    accel_vectors: u64,
    accel_recals: u64,
    accel_energy_j: f64,
}

impl SocGuarded {
    /// Records the counters of a traced run and replays its device.
    fn trace_layers(&self, l: &mut Layers, rep: &Rep, sys: &System) {
        let p = &rep.perf;
        let dispatches = (p.trace_hits + p.block_hits + p.block_misses).max(1) as f64;
        l.add("riscv.instret", rep.instret as f64);
        l.add(
            "riscv.block_hit_frac",
            p.block_hits as f64 / (p.block_hits + p.block_misses).max(1) as f64,
        );
        l.add("riscv.trace_hit_frac", p.trace_hits as f64 / dispatches);
        l.add("riscv.traces_compiled", p.traces_compiled as f64);
        l.add("riscv.trace_exits_guard", p.trace_exit_guard as f64);
        l.add("riscv.trace_exits_mmio", p.trace_exit_mmio as f64);
        l.add("riscv.trace_exits_budget", p.trace_exit_budget as f64);
        l.add(
            "riscv.trace_exits_invalidated",
            p.trace_exit_invalidated as f64,
        );
        let cycles = rep.cycles.max(1) as f64;
        l.add(
            "system.fast_forward_frac",
            rep.fast_forwarded as f64 / cycles,
        );
        l.add("system.sim_ipc", rep.instret as f64 / cycles);
        l.add("dma.bytes", rep.dma_bytes as f64);
        l.add("guard.detections", rep.guard.detections as f64);
        l.add("guard.fallbacks", rep.guard.fallbacks as f64);
        l.add("accel.sim_nj", rep.accel_energy_j * 1e9);
        let accel = &sys.platform.accel;
        let cfg = DeviceConfig {
            w: &self.w,
            cpu_hz: sys.cpu_hz,
            wdm_channels: accel.wdm_channels,
            setup_cycles: accel.setup_cycles,
            max_batch: GuardConfig::default().block as u32,
            drift: None,
            inputs: &self.x,
        };
        let work = DeviceWork {
            jobs: rep.accel_jobs,
            vectors: rep.accel_vectors,
            recals: rep.accel_recals,
            ticks: rep.accel_jobs,
            span_cycles: rep.cycles,
        };
        replay::device(l, &cfg, &work);
        replay::inner(l, &cfg, &work);
    }
}

impl Workload for SocGuarded {
    type Rep = Rep;
    const REP_S: f64 = 0.05;

    fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = RMatrix::from_fn(N, N, |_, _| rng.gen_range(-0.5..0.5));
        let x: Vec<Vec<f64>> = (0..VECTORS)
            .map(|_| (0..N).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let golden = x
            .iter()
            .flat_map(|col| {
                let q: Vec<f64> = col.iter().map(|&v| from_fixed(to_fixed(v))).collect();
                w.mul_vec(&q).into_iter().map(to_fixed)
            })
            .collect();
        let layout = DramLayout::default();
        let cfg = GuardConfig {
            tolerance: fixed_checksum_tolerance(N),
            ..GuardConfig::default()
        };
        let mut template = System::new();
        template.platform.accel.load_matrix(&w);
        write_guard_operands(&mut template, &w, &x, layout);
        template.load_firmware_source(&accel_offload_guarded(N, VECTORS, layout, &cfg));
        SocGuarded {
            w,
            x,
            golden,
            layout,
            template,
        }
    }

    fn rep(&self, trace: Option<&mut Layers>) -> Rep {
        let t_wall = Instant::now();
        let mut sys = self.template.clone();
        let mut trace = trace;
        let report = match trace.as_deref_mut() {
            Some(l) => l.span("system.run_s", || sys.run(MAX_CYCLES)),
            None => sys.run(MAX_CYCLES),
        };
        let y = self.layout.y_addr;
        let output = (0..(VECTORS * N) as u32)
            .map(|k| sys.platform.dram.peek(y + 4 * k).unwrap_or(0) as i32)
            .collect();
        let wall_s = t_wall.elapsed().as_secs_f64();
        let accel = &sys.platform.accel;
        let rep = Rep {
            outcome: report.outcome,
            cycles: report.cycles,
            instret: report.instructions,
            energy_j: report.energy.total(),
            perf: sys.cpu.perf_counters(),
            fast_forwarded: sys.fast_forwarded_cycles,
            dma_bytes: sys.platform.dma.bytes_moved,
            guard: read_guard_record(&sys, self.layout),
            output,
            accel_jobs: accel.jobs_completed,
            accel_vectors: accel.vectors_processed,
            accel_recals: accel.recal_count() as u64,
            accel_energy_j: accel.energy(),
        };
        if let Some(l) = trace {
            l.add(WALL, wall_s);
            self.trace_layers(l, &rep, &sys);
        }
        rep
    }

    fn items(&self, _rep: &Rep) -> u64 {
        VECTORS as u64
    }

    fn record(&self, rep: &Rep) -> Vec<(&'static str, f64)> {
        let p = &rep.perf;
        let output = harness::hash_words(rep.output.iter().map(|&v| v as u32 as u64));
        vec![
            (
                "halted",
                f64::from(u8::from(rep.outcome == RunOutcome::Halted(Halt::Ecall))),
            ),
            ("sim_cycles", rep.cycles as f64),
            ("instret", rep.instret as f64),
            ("sim_energy_j", rep.energy_j),
            ("block_hits", p.block_hits as f64),
            ("block_misses", p.block_misses as f64),
            ("trace_hits", p.trace_hits as f64),
            ("traces_compiled", p.traces_compiled as f64),
            ("trace_exit_guard", p.trace_exit_guard as f64),
            ("trace_exit_mmio", p.trace_exit_mmio as f64),
            ("trace_exit_budget", p.trace_exit_budget as f64),
            ("trace_exit_invalidated", p.trace_exit_invalidated as f64),
            ("fast_forwarded_cycles", rep.fast_forwarded as f64),
            ("dma_bytes", rep.dma_bytes as f64),
            ("guard_detections", rep.guard.detections as f64),
            ("guard_recoveries", rep.guard.recoveries as f64),
            ("guard_fallbacks", rep.guard.fallbacks as f64),
            ("accel_jobs", rep.accel_jobs as f64),
            ("accel_vectors", rep.accel_vectors as f64),
            ("accel_recals", rep.accel_recals as f64),
            ("output_hash", (output >> 11) as f64),
        ]
    }

    fn check(&self, rep: &Rep) -> Leg {
        let mut problems = Vec::new();
        if rep.outcome != RunOutcome::Halted(Halt::Ecall) {
            problems.push(format!("soc: firmware ended with {:?}", rep.outcome));
        }
        let mismatches = rep
            .output
            .iter()
            .zip(&self.golden)
            .filter(|(got, want)| got != want)
            .count();
        if mismatches > 0 {
            problems.push(format!(
                "soc: {mismatches} output words differ from the golden Q16.16 GeMM"
            ));
        }
        let g = rep.guard;
        if g.detections > g.recoveries + g.fallbacks {
            problems.push(format!("soc: uncorrected guard detections: {g:?}"));
        }
        Leg {
            attempted: 1,
            failed: u64::from(!problems.is_empty()),
            problems,
        }
    }

    fn metrics(&self, rep: &Rep, _best_pieces_ms: &[f64]) -> Vec<Metric> {
        let items = VECTORS as f64;
        vec![
            Metric::new(
                "sim_cycles_per_item",
                rep.cycles as f64 / items,
                "cycles",
                Clock::Sim,
                VECTORS,
            ),
            Metric::new(
                "sim_nj_per_item",
                rep.energy_j * 1e9 / items,
                "nJ",
                Clock::Sim,
                VECTORS,
            ),
            Metric::new(
                "sim_instr_per_item",
                rep.instret as f64 / items,
                "count",
                Clock::Sim,
                VECTORS,
            ),
        ]
    }

    fn finish_layers(&self, l: &mut Layers, _all_threads: &Rep) {
        let accel = l.get("accel.start_s") + l.get("accel.recal_s") + l.get("accel.tick_s");
        l.set("accel.self_s", accel - l.get("mvm.multiply_s"));
        let system_self = l.get("system.run_s") - accel;
        l.set("system.self_s", system_self);
        l.set(
            "riscv.host_ns_per_instr",
            system_self * 1e9 / l.get("riscv.instret").max(1.0),
        );
        l.set("parallel.threads", 1.0);
    }

    fn self_times(&self) -> &'static [&'static str] {
        &["system.self_s", "accel.self_s", "mvm.multiply_s"]
    }
}
