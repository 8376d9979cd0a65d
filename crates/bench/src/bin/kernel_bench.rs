//! **Kernel throughput probe** for the photonic-core kernels behind
//! experiments E1–E3/E5. Times the hot simulator kernels (mesh
//! application, complex matmul, MVM multiply, GeMM streaming) and the
//! programming path (Haar sampling, Clements decomposition, transfer
//! matrices, SVD, Fldzhyan programming, MVM core programming, noisy
//! PCM multiply) and emits one unified `neuropulsim-bench/v1` report
//! (see `bench::runner`): median-of-N timings, machine-normalized
//! `norm` per measurement, MAC throughput in each measurement's `meta`.
//!
//! `macs_per_op` counts real multiply–accumulates (a complex MAC is
//! four real MACs); for the programming path it is the leading-order
//! count (the Jacobi SVD counts one sweep, Fldzhyan programming the
//! sweeps it takes). Iteration counts are fixed per case so runs are
//! comparable across commits; the committed `BENCH_kernels.json`
//! baseline is regenerated with
//! `cargo run --release --bin kernel_bench > BENCH_kernels.json`, and CI
//! fails on a >10% `norm` regression of any measurement.

use neuropulsim_bench::runner::Runner;
use neuropulsim_core::clements::decompose;
use neuropulsim_core::error::{HardwareModel, ShifterTech};
use neuropulsim_core::gemm::{GemmEngine, GemmMode};
use neuropulsim_core::layered::{LayeredMesh, ProgramOptions};
use neuropulsim_core::mvm::{MvmCore, MvmNoiseConfig};
use neuropulsim_linalg::decomp::svd;
use neuropulsim_linalg::random::{ginibre, haar_unitary};
use neuropulsim_linalg::{CMatrix, CVector, MatmulScratch, RMatrix};
use neuropulsim_photonics::pcm::PcmMaterial;
use neuropulsim_sim::json::{fixed, sci_digits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median repetitions per measurement.
const REPS: usize = 5;

/// Times `op` under the unified runner: one measured rep = `iters`
/// calls (inversely proportional to per-op work), median of [`REPS`],
/// with per-op and throughput figures in `meta`.
fn report<F: FnMut()>(
    runner: &mut Runner,
    bench: &str,
    variant: &str,
    n: usize,
    macs_per_op: f64,
    mut op: F,
) {
    let iters = iters_for(macs_per_op);
    for _ in 0..iters / 8 + 1 {
        op();
    }
    let id = format!("{bench}/{variant}/n{n}");
    let median_ns = runner.measure_with_meta(
        &id,
        REPS,
        &[
            ("iters", iters.into()),
            ("macs_per_op", fixed(macs_per_op, 0)),
        ],
        || {
            for _ in 0..iters {
                op();
            }
        },
    );
    // Attach derived throughput after the fact: ns per single op and
    // MACs/s from the median rep.
    let ns_per_op = median_ns / iters as f64;
    let macs_per_s = macs_per_op / (ns_per_op * 1e-9);
    runner.derived(&format!("{id}:macs_per_s"), sci_digits(macs_per_s, 4));
}

/// Picks an iteration count inversely proportional to the work per op,
/// clamped so every case finishes in well under a second.
fn iters_for(macs_per_op: f64) -> usize {
    ((2e7 / macs_per_op.max(1.0)) as usize).clamp(8, 65_536)
}

fn random_rmatrix(rows: usize, cols: usize, seed: u64) -> RMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    RMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn bench_mesh_apply(runner: &mut Runner, n: usize) {
    let mut rng = StdRng::seed_from_u64(3);
    let program = decompose(&haar_unitary(&mut rng, n));
    let x = CVector::from_reals(&vec![0.5; n]);
    // Each MZI block is a 2x2 complex update: 8 complex MACs = 32 real.
    let macs = (program.block_count() * 32) as f64;
    report(runner, "mesh_apply", "rebuild", n, macs, || {
        std::hint::black_box(program.apply(&x));
    });
    let plan = program.compile();
    let mut buf = x.clone();
    report(runner, "mesh_apply", "compiled", n, macs, || {
        buf.as_mut_slice().copy_from_slice(x.as_slice());
        plan.apply_in_place(buf.as_mut_slice());
        std::hint::black_box(buf[0]);
    });
}

fn bench_mul_mat(runner: &mut Runner, n: usize) {
    let mut rng = StdRng::seed_from_u64(8);
    let a = haar_unitary(&mut rng, n);
    let b = haar_unitary(&mut rng, n);
    let macs = (4 * n * n * n) as f64;
    report(runner, "cmatrix_mul_mat", "naive", n, macs, || {
        std::hint::black_box(a.mul_mat_naive(&b));
    });
    report(runner, "cmatrix_mul_mat", "packed", n, macs, || {
        std::hint::black_box(a.mul_mat(&b));
    });
    let mut out = CMatrix::zeros(n, n);
    let mut scratch = MatmulScratch::new();
    report(runner, "cmatrix_mul_mat", "packed_into", n, macs, || {
        a.mul_mat_into(&b, &mut out, &mut scratch);
        std::hint::black_box(out[(0, 0)]);
    });
}

fn bench_mvm_multiply(runner: &mut Runner, n: usize) {
    let core = MvmCore::new(&random_rmatrix(n, n, 2));
    let x = vec![0.3; n];
    let macs = (n * n) as f64;
    // The pre-fast-path algorithm: rebuild every 2x2 block matrix (with
    // its trigonometry) inside MeshProgram::apply on both meshes, with
    // fresh allocations throughout. Kept as the before/after baseline.
    report(runner, "mvm_multiply", "legacy", n, macs, || {
        let mut v = core.v_program().apply(&CVector::from_reals(&x));
        for (i, &a) in core.attenuation().iter().enumerate() {
            v[i] = v[i].scale(a);
        }
        let y = core.u_program().apply(&v);
        std::hint::black_box(y.iter().map(|z| z.re * core.scale()).collect::<Vec<f64>>());
    });
    report(runner, "mvm_multiply", "alloc", n, macs, || {
        std::hint::black_box(core.multiply(&x));
    });
    let mut y = vec![0.0; n];
    let mut scratch = CVector::zeros(n);
    report(runner, "mvm_multiply", "into", n, macs, || {
        core.multiply_into(&x, &mut y, &mut scratch);
        std::hint::black_box(y[0]);
    });
}

fn bench_gemm(runner: &mut Runner, n: usize) {
    let cols = 64;
    let x = random_rmatrix(n, cols, 6);
    let macs = (n * n * cols) as f64;
    for (variant, mode) in [
        ("tdm", GemmMode::Tdm),
        ("wdm8", GemmMode::Wdm { channels: 8 }),
    ] {
        let engine = GemmEngine::new(MvmCore::new(&random_rmatrix(n, n, 5)), mode);
        report(runner, "gemm_matmul", variant, n, macs, || {
            std::hint::black_box(engine.matmul(&x));
        });
        let par = format!("{variant}_par2");
        report(runner, "gemm_matmul", &par, n, macs, || {
            std::hint::black_box(engine.matmul_par(&x, 2));
        });
    }
}

fn bench_unitary_programming(runner: &mut Runner, n: usize) {
    // Element pairs touched by n(n-1)/2 rotations of two length-n rows
    // or columns.
    let pairs = (n * n * (n - 1) / 2) as f64;
    let mut rng = StdRng::seed_from_u64(1);
    let macs = (4 * n * n * n) as f64;
    report(runner, "haar_unitary", "qr", n, macs, || {
        std::hint::black_box(haar_unitary(&mut rng, n));
    });
    // Each nulling is a 2x2 complex update: 16 real MACs per pair.
    let u = haar_unitary(&mut StdRng::seed_from_u64(2), n);
    let macs = 16.0 * pairs;
    report(runner, "clements_decompose", "nulling", n, macs, || {
        std::hint::black_box(decompose(&u));
    });
    let program = decompose(&haar_unitary(&mut StdRng::seed_from_u64(4), n));
    let macs = (program.block_count() * 32 * n) as f64;
    report(runner, "mesh_transfer_matrix", "blocks", n, macs, || {
        std::hint::black_box(program.transfer_matrix());
    });
    // One Jacobi sweep: per pair a 2x2 Gram (three complex dots) plus
    // two rotations, 44 real MACs per pair.
    let m = ginibre(&mut StdRng::seed_from_u64(5), n);
    let macs = 44.0 * pairs;
    report(runner, "jacobi_svd", "sweep", n, macs, || {
        std::hint::black_box(svd(&m));
    });
    // SVD sweep plus the two Clements decompositions.
    let w = random_rmatrix(n, n, 1);
    let macs = (44.0 + 2.0 * 16.0) * pairs;
    report(runner, "mvm_core_program", "svd_clements", n, macs, || {
        std::hint::black_box(MvmCore::new(&w));
    });
}

fn bench_fldzhyan_program(runner: &mut Runner, n: usize) {
    let target = haar_unitary(&mut StdRng::seed_from_u64(6), n);
    let program = || {
        let mut mesh = LayeredMesh::universal(n);
        mesh.randomize_phases(&mut StdRng::seed_from_u64(7));
        mesh.program_unitary(
            &target,
            ProgramOptions {
                max_sweeps: 50,
                tol: 1e-10,
            },
        )
    };
    // Each sweep runs ~n coupler/phase columns over two n x n running
    // products (forward and peel-back); the seeded run is deterministic,
    // so its sweep count holds for every timed call.
    let macs = (program().sweeps * 32 * n * n * n) as f64;
    report(runner, "fldzhyan_program", "sweeps50", n, macs, || {
        std::hint::black_box(program());
    });
}

fn bench_noisy_multiply(runner: &mut Runner) {
    let n = 16;
    let core = MvmCore::new(&random_rmatrix(n, n, 3));
    let config = MvmNoiseConfig {
        hardware: HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
            material: PcmMaterial::GeSe,
            levels: 32,
        }),
        readout_sigma: 1e-3,
        attenuator_sigma: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(4);
    let instance = core.realize(&config, &mut rng);
    let x = vec![0.3; n];
    let macs = (n * n) as f64;
    report(runner, "mvm_multiply_noisy_pcm", "frozen", n, macs, || {
        std::hint::black_box(instance.multiply_noisy(&x, &mut rng));
    });
    // A PCM-shifter model samples nothing, so a fresh instance reuses
    // the meshes the core realized on its first call: it only recomposes
    // the effective matrix Re(U diag(a) V), two real MACs per term of
    // the n^3 product, before the same n x n multiply.
    let macs = (2 * n * n * n + n * n) as f64;
    report(runner, "mvm_multiply_noisy_pcm", "fresh", n, macs, || {
        std::hint::black_box(core.multiply_noisy(&x, &config, &mut rng));
    });
}

fn main() {
    let mut runner = Runner::new("kernel_bench");
    for n in [16usize, 64] {
        bench_mesh_apply(&mut runner, n);
        bench_mul_mat(&mut runner, n);
        bench_mvm_multiply(&mut runner, n);
        bench_gemm(&mut runner, n);
    }
    for n in [8usize, 16, 32] {
        bench_unitary_programming(&mut runner, n);
    }
    for n in [4usize, 6] {
        bench_fldzhyan_program(&mut runner, n);
    }
    bench_noisy_multiply(&mut runner);
    print!("{}", runner.to_json());
}
