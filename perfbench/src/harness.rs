//! The measuring loop shared by every workload: repeated set-up,
//! warm-up, timed repetitions (untraced, or interleaved with traced
//! ones), the determinism and correctness legs, and the statistics.

use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Fewest timed repetitions of each kind.
const MIN_REPS: usize = 2;
/// The span a traced repetition records around the outer run, before
/// any replay.
pub const WALL: &str = "path.wall_s";

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time of the simulator.
    Host,
    /// The modelled hardware's clock: deterministic for a seed.
    Sim,
    /// A count or ratio that reads no clock.
    None,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Host => "H",
            Clock::Sim => "S",
            Clock::None => "-",
        }
    }
}

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Samples the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, clock: Clock, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
            samples,
        }
    }
}

/// Accumulates the spans and counts of traced repetitions. Values are
/// summed over repetitions and divided by the repetition count when
/// the run ends, so every per-layer number is per repetition.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
    reps: usize,
}

impl Layers {
    /// Adds `v` to the per-repetition sum of `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Times `f` and adds its duration to `name` (seconds).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Records one sample of a distribution (for percentiles).
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Per-repetition mean of a summed value (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.total(name) / self.reps.max(1) as f64
    }

    /// Sum of `name` over the repetitions so far.
    fn total(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Overwrites `name` with a per-repetition value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.sums
            .insert(name.to_string(), v * self.reps.max(1) as f64);
    }

    /// The recorded samples of `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Traced repetitions recorded.
    pub fn reps(&self) -> usize {
        self.reps
    }
}

/// The outcome of a correctness leg.
#[derive(Debug, Default)]
pub struct Leg {
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants; any entry fails the run.
    pub problems: Vec<String>,
}

impl Leg {
    pub fn merge(&mut self, other: Leg) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// One benchmark workload: one end-to-end path of the simulator,
/// driven through the library's public API only.
pub trait Workload: Sized {
    type Rep;
    /// Nominal host seconds of one untraced repetition on the reference
    /// host (2 vCPUs). A run of `seconds` makes `seconds / REP_S`
    /// repetitions whatever the program's speed, so two builds compared
    /// at the same `seconds` take their statistics over the same number
    /// of samples.
    const REP_S: f64;
    /// Builds the inputs and the simulated system from `seed`; timed
    /// as `setup_s`.
    fn setup(seed: u64) -> Self;
    /// One repetition. With `trace`, the outer run is timed as [`WALL`],
    /// every call into a layer within it is timed from here, and then
    /// the inner layers the outer calls hide are replayed.
    fn rep(&self, trace: Option<&mut Layers>) -> Self::Rep;
    /// Items the repetition completed.
    fn items(&self, rep: &Self::Rep) -> u64;
    /// Simulated-clock metrics and work counts of a repetition; their
    /// digest must not depend on the host, the thread count or tracing.
    fn record(&self, rep: &Self::Rep) -> Vec<(&'static str, f64)>;
    /// Checks a repetition's outputs.
    fn check(&self, rep: &Self::Rep) -> Leg;
    /// A correctness leg that runs once per run, beside the repetitions.
    fn extra_leg(&self) -> Leg {
        Leg::default()
    }
    /// Host milliseconds of each piece of work the repetition timed on
    /// its own (scheduler steps, ticks), in order; empty when only the
    /// whole repetition is timed.
    fn piece_ms<'a>(&self, _rep: &'a Self::Rep) -> &'a [f64] {
        &[]
    }
    /// Workload-specific end-to-end metrics: simulated-clock ones from
    /// `rep`, host ones from `best_pieces_ms`, the fastest time of each
    /// piece position over the timed repetitions.
    fn metrics(&self, rep: &Self::Rep, best_pieces_ms: &[f64]) -> Vec<Metric>;
    /// Derives per-layer values (self times, ratios) once the traced
    /// repetitions are in; `all_threads` is the leg at `nproc` threads.
    fn finish_layers(&self, layers: &mut Layers, all_threads: &Self::Rep);
    /// The names of the self times that, with the remainder, add up to
    /// the traced wall time.
    fn self_times(&self) -> &'static [&'static str];
}

/// Everything one run of a workload produced.
pub struct RunResult {
    pub end_to_end: Vec<Metric>,
    /// Host wall time of each timed untraced repetition.
    pub walls: Vec<f64>,
    pub layers: Option<Layers>,
    pub self_times: &'static [&'static str],
    pub digest: u64,
    pub record: Vec<(&'static str, f64)>,
    pub leg: Leg,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the names and bit patterns of a record.
pub fn digest(record: &[(&'static str, f64)]) -> u64 {
    fnv1a(
        record
            .iter()
            .flat_map(|(name, v)| name.bytes().chain(v.to_bits().to_le_bytes())),
    )
}

/// FNV-1a over a sequence of words (hashes of output regions).
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Threads of every timed repetition. On a host with few cores, a
/// workload that spawns a thread per core on every tick measures the
/// host's scheduler more than the program, so the timed repetitions run
/// on one thread and a leg at `nproc` threads checks that the thread
/// count leaves the results unchanged.
pub const TIMED_THREADS: usize = 1;

/// Runs `f` once with `NEUROPULSIM_THREADS` set to `threads`, then
/// restores the variable. Called only while no other thread runs.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("NEUROPULSIM_THREADS").ok();
    std::env::set_var("NEUROPULSIM_THREADS", threads.to_string());
    let out = f();
    match saved {
        Some(v) => std::env::set_var("NEUROPULSIM_THREADS", v),
        None => std::env::remove_var("NEUROPULSIM_THREADS"),
    }
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Rounds of a run of `seconds` of workload `W`: one untraced
/// repetition each, or with `trace` one untraced and one traced.
fn repetitions<W: Workload>(seconds: f64, trace: bool) -> usize {
    let reps = (seconds / W::REP_S).round() as usize;
    (if trace { reps / 2 } else { reps }).max(MIN_REPS)
}

/// Measures workload `W` over the repetitions a run of `seconds` makes.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let rounds = repetitions::<W>(seconds, trace);
    // The set-ups are spread over the run, each replacing the workload
    // built before it, so `setup_s` samples the host over the same span
    // as the repetitions: on a shared host, speed drifts over seconds.
    let mut setups = Vec::with_capacity(SETUPS);
    let setup = |setups: &mut Vec<f64>| {
        let (w, s) = timed(|| W::setup(seed));
        setups.push(s);
        w
    };
    let mut w = setup(&mut setups);

    // Warm-up: its digest is the reference every later repetition,
    // traced or not, and the all-threads leg must reproduce.
    let warm = w.rep(None);
    let record = w.record(&warm);
    let reference = digest(&record);
    let mut leg = w.check(&warm);
    let note_digest = |w: &W, what: &str, rep: &W::Rep, leg: &mut Leg| {
        let d = digest(&w.record(rep));
        if d != reference {
            leg.problems.push(format!(
                "determinism: {what} digest {d:016x} != reference {reference:016x}"
            ));
        }
    };

    // Repetitions are dropped once checked, so memory does not grow
    // with the number of repetitions.
    let mut walls: Vec<f64> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    // Fastest time of each piece position, and of the rest of the
    // repetition, over the repetitions.
    let mut best_pieces_ms: Vec<f64> = Vec::new();
    let mut best_rest_s = f64::INFINITY;
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut layers = Layers::default();
    for round in 0..rounds {
        while setups.len() < SETUPS && round >= setups.len() * rounds / SETUPS {
            drop(w);
            w = setup(&mut setups);
        }
        let (rep, wall_s) = timed(|| w.rep(None));
        note_digest(&w, "repetition", &rep, &mut leg);
        leg.merge(w.check(&rep));
        walls.push(wall_s);
        rates.push(w.items(&rep) as f64 / wall_s);
        let pieces = w.piece_ms(&rep);
        if best_pieces_ms.is_empty() {
            best_pieces_ms = pieces.to_vec();
        }
        for (best, ms) in best_pieces_ms.iter_mut().zip(pieces) {
            *best = best.min(*ms);
        }
        best_rest_s = best_rest_s.min(wall_s - pieces.iter().sum::<f64>() / 1e3);
        drop(rep);
        if trace {
            let before = layers.total(WALL);
            let rep = w.rep(Some(&mut layers));
            layers.reps += 1;
            note_digest(&w, "traced repetition", &rep, &mut leg);
            leg.merge(w.check(&rep));
            traced_walls.push(layers.total(WALL) - before);
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let all_threads = with_threads(nproc, || w.rep(None));
    note_digest(&w, "all-threads", &all_threads, &mut leg);
    leg.merge(w.check(&all_threads));
    leg.merge(w.extra_leg());

    // Every repetition does bit-identical work (the digest checks it),
    // so the times of one piece of work differ only by host noise, which
    // only ever adds time. The sum of each piece's fastest time is the
    // steadiest estimate of the program's own speed on a loaded host.
    let best_s = best_pieces_ms.iter().sum::<f64>() / 1e3 + best_rest_s;
    let best = w.items(&warm) as f64 / best_s;
    let mut end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s", Clock::Host, SETUPS),
        Metric::new(
            "items_per_s",
            median(&rates),
            "1/s",
            Clock::Host,
            rates.len(),
        ),
        Metric::new("best_items_per_s", best, "1/s", Clock::Host, rates.len()),
    ];
    end_to_end.extend(w.metrics(&warm, &best_pieces_ms));
    let failed_frac = leg.failed as f64 / leg.attempted.max(1) as f64;
    end_to_end.push(Metric::new(
        "failed_frac",
        failed_frac,
        "frac",
        Clock::None,
        leg.attempted as usize,
    ));

    let layers = trace.then(|| {
        w.finish_layers(&mut layers, &all_threads);
        layers.set("path.untraced_wall_s", median(&walls));
        layers.set(
            "path.tracing_overhead_s",
            median(&traced_walls) - median(&walls),
        );
        let covered: f64 = w.self_times().iter().map(|n| layers.get(n)).sum();
        let wall = layers.get(WALL);
        layers.set("path.remainder_s", wall - covered);
        layers.set("path.remainder_frac", (wall - covered) / wall);
        layers
    });

    RunResult {
        end_to_end,
        walls,
        layers,
        self_times: w.self_times(),
        digest: reference,
        record,
        leg,
    }
}
