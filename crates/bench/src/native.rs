//! E11/E12 — native-STM microbenchmarks with a JSON baseline.
//!
//! Measures the six native algorithms on real threads and emits
//! `BENCH_native_stm.json` so successive PRs can compare read-path
//! throughput against a recorded baseline:
//!
//! * `read_only_txn/<algo>/<m>` — wall-clock cost of a read-only
//!   transaction over `m` TVars: the hardware echo of Theorem 3(1)
//!   (incremental mode scales quadratically, TL2/NOrec linearly);
//! * `thread_scaling_{read_mostly,write_mixed}/<algo>/<threads>` — a
//!   **fixed** total workload split across a 1→8 thread ladder, the
//!   direct scalability picture of the hot path (see
//!   [`bench_thread_scaling`]);
//! * `read_scaling/<algo>/<threads>` — concurrent read-only scans of a
//!   shared array: the payoff of the lock-free read path (the seed's
//!   mutex-per-read design serialized here);
//! * `read_mostly/<algo>/<threads>` — the paper's time–space tradeoff,
//!   measured: a read-dominated mix (16-variable scans, every 8th
//!   transaction also writes) contrasting Tlrw's O(1) visible reads
//!   against Tl2's snapshot validation and Incremental's quadratic
//!   re-validation across a thread ladder;
//! * `counter_increment/<algo>` — uncontended update-transaction latency;
//! * `bank_contended/<algo>` — 4 threads hammering 8 accounts:
//!   end-to-end throughput with retries (E12);
//! * `long_scan/<algo>/<writers>` — the multi-version experiment: large
//!   read-only scans (every variable of a 256-slot array) racing a
//!   blind-writer ladder. `Algorithm::Mv` is the acceptance picture:
//!   its scans resolve against start-time snapshots, so the
//!   `long_scan_ro_aborts` and `long_scan_probes` companion rows are 0
//!   while every single-version algorithm pays retries
//!   (`long_scan_aborts`, `long_scan_ro_aborts`) or validation probes
//!   under the same storm;
//! * `blocking_queue*/<algo>` — the parking-tier experiment: a
//!   producer/consumer pipeline over `ptm_structs::TQueue`, consumers
//!   either *blocking* (`dequeue_wait`, parked on the queue's stripes)
//!   or *polling* (`dequeue` in a hot re-run loop). The throughput pair
//!   (`blocking_queue` vs `polling_queue`) shows parking costs nothing
//!   while the queue is non-empty; the idle pair
//!   (`{blocking,polling}_queue_idle_work`, ops = commits + aborts +
//!   validation probes + reads accumulated while consumers face an
//!   *empty* queue for a fixed window) is the CPU-waste picture — ≈ 0
//!   parked, thousands polling — and `blocking_queue_idle_parks`
//!   confirms the consumers really were parked rather than lucky;
//! * `phase_shift_*/<algo>` — the adaptive-runtime experiment: one
//!   shared instance driven through `read_mostly → write_heavy →
//!   read_mostly` phases, each phase timed separately. The acceptance
//!   picture is `Algorithm::Adaptive` tracking the best static
//!   algorithm per phase (invisible Tl2 on the scans, visible Tlrw on
//!   the transfers) within its controller's switching lag; the
//!   `phase_shift_mode_transitions` row records (in `ops`) how many
//!   switches the adaptive controller performed across the three
//!   measured phases — at least one per phase boundary when adapting.
//! * `phase_scan_*/<algo>` — the scan-heavy adaptive comparison: one
//!   shared instance driven through `scan_heavy → write_heavy → mixed`
//!   phases. The scan-heavy phase (full-array read-only scans racing one
//!   blind writer) is where the static `Mv` wins; Adaptive, which moves
//!   only between invisible and visible reads, serves it from Tl2, takes
//!   the transfer phase to visible mode and the mixed tail back to
//!   invisible. Adaptive ÷ best static per phase is the price of not
//!   knowing the workload up front, and the
//!   `phase_scan_mode_transitions` row counts the controller's switches;
//! * `long_scan_camped/mv/<chain>` — the skip-pointer experiment: a
//!   camped reader pins its snapshot, nested commits grow every version
//!   chain to `<chain>` links above it, and the camper then re-scans at
//!   its old snapshot. The companion `long_scan_camped_walk_steps` row
//!   carries the engine's `chain_walk_steps` counter: with the
//!   Fenwick-shaped skip links the steps per read grow ~log²(chain),
//!   not linearly, so doubling `<chain>` barely moves the row.
//!
//! The harness is deliberately criterion-free (the build environment is
//! offline): fixed-size workloads, wall-clock timing, one warmup run.
//! Every multi-instance family runs its passes interleaved across
//! algorithms, best of [`PHASE_PASSES`], so bursty background load hits
//! all algorithms alike instead of whichever one owned the noisy window.
//! Rows whose `threads` exceed the machine's hardware threads are marked
//! `"oversubscribed": true` in the JSON (and summarized in a warning):
//! their timings measure the scheduler, not the algorithm.

use ptm_stm::{Algorithm, Stm, TVar};
use ptm_structs::TQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The algorithms under measurement, with their report names.
pub const ALGOS: &[(&str, Algorithm)] = &[
    ("tl2", Algorithm::Tl2),
    ("incremental", Algorithm::Incremental),
    ("norec", Algorithm::Norec),
    ("tlrw", Algorithm::Tlrw),
    ("mv", Algorithm::Mv),
    ("adaptive", Algorithm::Adaptive),
];

/// Canonical location of a baseline file: the workspace root, regardless
/// of the working directory `cargo bench` or `cargo run` chose (bench
/// targets run from the package directory, binaries from wherever the
/// user stands — the two used to scatter duplicate `BENCH_*.json`
/// files). The root is found at runtime by walking up from the current
/// directory to the nearest ancestor holding a `Cargo.lock`, so a moved
/// or copied checkout still writes next to its own code; out-of-tree
/// invocations fall back to this crate's compile-time workspace.
pub fn baseline_path(file: &str) -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        // Only accept a root that is *this* workspace (its manifest
        // lists the bench crate), so running from inside some unrelated
        // Cargo project does not drop the baseline there.
        if d.join("Cargo.lock").exists()
            && std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|m| m.contains("crates/bench"))
        {
            return d.join(file).to_string_lossy().into_owned();
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The native-STM baseline's canonical path (see [`baseline_path`]).
pub fn native_baseline_path() -> String {
    baseline_path("BENCH_native_stm.json")
}

/// Small deterministic PRNG (PCG-style LCG step) shared by the bench
/// workloads; seed it with the thread index for reproducible per-thread
/// streams.
pub fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// One algorithm's live state in a multi-instance bench family: report
/// name, shared instance, and its variable array.
type AlgoInstance = (&'static str, Arc<Stm>, Vec<TVar<u64>>);

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark family (`read_only_txn`, `counter_increment`, ...).
    pub name: String,
    /// Algorithm name (`tl2`, `incremental`, `norec`).
    pub algo: String,
    /// Read-set size, where applicable (0 otherwise).
    pub m: usize,
    /// Worker thread count.
    pub threads: usize,
    /// Committed transactions across all threads.
    pub ops: u64,
    /// Total wall-clock nanoseconds.
    pub nanos: u128,
}

impl BenchResult {
    /// Committed transactions per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return f64::INFINITY;
        }
        self.ops as f64 * 1e9 / self.nanos as f64
    }
}

fn time<F: FnOnce()>(f: F) -> u128 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos()
}

/// Read-only transactions over `m` variables, single thread, for every
/// algorithm and every read-set size in `ms` — passes **interleaved
/// across algorithms** (pass k of every algorithm before pass k+1 of
/// any), best of [`PHASE_PASSES`], same bursty-neighbour reasoning as
/// [`bench_phase_shift`].
pub fn bench_read_only_family(
    algos: &[(&'static str, Algorithm)],
    ms: &[usize],
    txns: u64,
) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for &m in ms {
        let instances: Vec<(&str, Stm, Vec<TVar<u64>>)> = algos
            .iter()
            .map(|&(name, algo)| {
                let vars: Vec<TVar<u64>> = (0..m).map(|_| TVar::new(1)).collect();
                (name, Stm::new(algo), vars)
            })
            .collect();
        let pass = |stm: &Stm, vars: &[TVar<u64>], txns: u64| {
            time(|| {
                for _ in 0..txns {
                    let sum = stm.atomically(|tx| {
                        let mut acc = 0u64;
                        for v in vars {
                            acc = acc.wrapping_add(tx.read(v)?);
                        }
                        Ok(acc)
                    });
                    assert_eq!(sum, m as u64);
                }
            })
        };
        for (_, stm, vars) in &instances {
            pass(stm, vars, txns / 10 + 1); // warmup
        }
        let mut best = vec![u128::MAX; instances.len()];
        for _pass in 0..PHASE_PASSES {
            for (i, (_, stm, vars)) in instances.iter().enumerate() {
                best[i] = best[i].min(pass(stm, vars, txns));
            }
        }
        for ((name, _, _), nanos) in instances.iter().zip(best) {
            out.push(BenchResult {
                name: "read_only_txn".into(),
                algo: (*name).into(),
                m,
                threads: 1,
                ops: txns,
                nanos,
            });
        }
    }
    out
}

/// Concurrent read-only scans of one shared array of `m` variables.
pub fn bench_read_scaling(
    algo: Algorithm,
    name: &str,
    m: usize,
    threads: usize,
    txns_per_thread: u64,
) -> BenchResult {
    let stm = Arc::new(Stm::new(algo));
    let vars: Vec<TVar<u64>> = (0..m).map(|_| TVar::new(1)).collect();
    let run = || {
        std::thread::scope(|s| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let vars = vars.clone();
                s.spawn(move || {
                    for _ in 0..txns_per_thread {
                        let sum = stm.atomically(|tx| {
                            let mut acc = 0u64;
                            for v in &vars {
                                acc = acc.wrapping_add(tx.read(v)?);
                            }
                            Ok(acc)
                        });
                        assert_eq!(sum, m as u64);
                    }
                });
            }
        });
    };
    run(); // warmup
    let nanos = time(run);
    BenchResult {
        name: "read_scaling".into(),
        algo: name.into(),
        m,
        threads,
        ops: txns_per_thread * threads as u64,
        nanos,
    }
}

/// Read-mostly mix over one shared array: every transaction scans a
/// 16-variable window; every 8th transaction per thread also writes one
/// slot (the same value, so the scan invariant holds and the only
/// traffic is the synchronization itself). This is the paper's tradeoff
/// as a ladder: Tlrw pays an RMW per first-touch stripe but never
/// validates; Tl2 validates each read against its snapshot; Incremental
/// re-validates the whole read set per read.
pub fn bench_read_mostly(
    algo: Algorithm,
    name: &str,
    m: usize,
    threads: usize,
    txns_per_thread: u64,
) -> BenchResult {
    const WINDOW: usize = 16;
    let stm = Arc::new(Stm::new(algo));
    let vars: Vec<TVar<u64>> = (0..m).map(|_| TVar::new(1)).collect();
    let run = || {
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let vars = vars.clone();
                s.spawn(move || {
                    let mut seed = t as u64 + 1;
                    for i in 0..txns_per_thread {
                        let start = next_rand(&mut seed) as usize % m;
                        let writing = i % 8 == 7;
                        let sum = stm.atomically(|tx| {
                            let mut acc = 0u64;
                            for k in 0..WINDOW {
                                acc = acc.wrapping_add(tx.read(&vars[(start + k) % m])?);
                            }
                            if writing {
                                tx.write(&vars[start], 1)?;
                            }
                            Ok(acc)
                        });
                        assert_eq!(sum, WINDOW as u64);
                    }
                });
            }
        });
    };
    run(); // warmup
    let nanos = time(run);
    BenchResult {
        name: "read_mostly".into(),
        algo: name.into(),
        m,
        threads,
        ops: txns_per_thread * threads as u64,
        nanos,
    }
}

/// Passes per phase: the first pass of each phase absorbs an adaptive
/// instance's switching lag and the best pass rejects scheduler noise,
/// so the reported number is the steady-state cost of the mode the
/// algorithm (or controller) runs that phase in.
pub const PHASE_PASSES: usize = 5;

/// One timed pass of the read-mostly phase shape: 32-variable scans,
/// every 8th transaction also writes one slot. Public so demos (e.g.
/// `examples/adaptive.rs`) drive the *same* workload the baseline
/// measures. Returns elapsed nanoseconds.
pub fn pass_read_mostly(stm: &Arc<Stm>, vars: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    const WINDOW: usize = 32;
    let m = vars.len();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = Arc::clone(stm);
            let vars = vars.to_vec();
            s.spawn(move || {
                let mut seed = t as u64 + 1;
                for i in 0..txns {
                    let base = next_rand(&mut seed) as usize % m;
                    let writing = i % 8 == 7;
                    let sum = stm.atomically(|tx| {
                        let mut acc = 0u64;
                        for k in 0..WINDOW {
                            acc = acc.wrapping_add(tx.read(&vars[(base + k) % m])?);
                        }
                        if writing {
                            tx.write(&vars[base], 1)?;
                        }
                        Ok(acc)
                    });
                    assert_eq!(sum, WINDOW as u64);
                }
            });
        }
    });
    start.elapsed().as_nanos()
}

/// One timed pass of the write-heavy phase shape (2-read / 2-write
/// transfers). Public for the same reason as [`pass_read_mostly`].
/// Returns elapsed nanoseconds.
pub fn pass_write_heavy(stm: &Arc<Stm>, accounts: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    let m = accounts.len();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = Arc::clone(stm);
            let accounts = accounts.to_vec();
            s.spawn(move || {
                let mut seed = (t as u64 + 1) * 7919;
                for _ in 0..txns {
                    let r = next_rand(&mut seed);
                    let from = (r >> 20) as usize % m;
                    let to = (r >> 3) as usize % m;
                    if from == to {
                        continue;
                    }
                    stm.atomically(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        let amt = a.min(3);
                        tx.write(&accounts[from], a - amt)?;
                        tx.write(&accounts[to], b + amt)
                    });
                }
            });
        }
    });
    start.elapsed().as_nanos()
}

/// One algorithm's live state across the phase-shifting experiment.
struct PhaseInstance {
    name: &'static str,
    stm: Arc<Stm>,
    vars: Vec<TVar<u64>>,
    accounts: Vec<TVar<u64>>,
    /// Best (minimum) nanos per phase, filled in phase order.
    best: Vec<u128>,
}

/// The paper's tradeoff as a *runtime* decision: every algorithm's
/// instance is driven through `read_mostly → write_heavy → read_mostly`
/// phases, each phase timed as the best of `PHASE_PASSES` passes.
/// Static algorithms pay their fixed cost profile in every phase;
/// `Algorithm::Adaptive` re-decides per phase (invisible for the scans,
/// visible for the transfers) at the price of its controller overhead —
/// the switching lag of a few sampling windows lands in each phase's
/// first pass, which best-of excludes along with scheduler noise.
///
/// Passes are **interleaved across algorithms** (pass k of every
/// algorithm runs before pass k+1 of any): on a machine with bursty
/// background load, sequential per-algorithm runs would hand one
/// algorithm a quiet window and another a stolen CPU, and the comparison
/// would measure the neighbours, not the algorithms. Phase *order* per
/// instance is preserved, so the adaptive controller still experiences a
/// genuine workload shift.
///
/// Returns one result per phase plus, for every algorithm, a
/// `phase_shift_mode_transitions` row whose `ops` field is the number of
/// mode switches observed across the measured phases (0 for the static
/// algorithms, ≥ 2 for a healthy adaptive run).
pub fn bench_phase_shift(
    algos: &[(&'static str, Algorithm)],
    threads: usize,
    txns_per_thread: u64,
) -> Vec<BenchResult> {
    let mut instances: Vec<PhaseInstance> = algos
        .iter()
        .map(|&(name, algo)| PhaseInstance {
            name,
            stm: Arc::new(Stm::new(algo)),
            vars: (0..128).map(|_| TVar::new(1)).collect(),
            accounts: (0..16).map(|_| TVar::new(1_000_000)).collect(),
            best: Vec::new(),
        })
        .collect();
    // Warmup with a short read-mostly pass; for Adaptive this leaves the
    // engine where a fresh instance starts anyway (invisible mode).
    for inst in &instances {
        pass_read_mostly(&inst.stm, &inst.vars, threads, txns_per_thread / 10 + 1);
    }
    let before: Vec<_> = instances.iter().map(|i| i.stm.stats().snapshot()).collect();
    let phases: [(&str, bool); 3] = [
        ("phase_shift_read_mostly_1", false),
        ("phase_shift_write_heavy", true),
        ("phase_shift_read_mostly_2", false),
    ];
    for &(_, write_heavy) in &phases {
        for inst in &mut instances {
            inst.best.push(u128::MAX);
        }
        for _pass in 0..PHASE_PASSES {
            for inst in &mut instances {
                let nanos = if write_heavy {
                    pass_write_heavy(&inst.stm, &inst.accounts, threads, txns_per_thread)
                } else {
                    pass_read_mostly(&inst.stm, &inst.vars, threads, txns_per_thread)
                };
                let slot = inst.best.last_mut().expect("phase slot");
                *slot = (*slot).min(nanos);
            }
        }
    }
    let mut out = Vec::new();
    for (inst, before) in instances.iter().zip(&before) {
        for (p, &(label, write_heavy)) in phases.iter().enumerate() {
            out.push(BenchResult {
                name: label.into(),
                algo: inst.name.into(),
                m: if write_heavy {
                    inst.accounts.len()
                } else {
                    inst.vars.len()
                },
                threads,
                ops: txns_per_thread * threads as u64,
                nanos: inst.best[p],
            });
        }
        let delta = inst.stm.stats().snapshot().since(before);
        out.push(BenchResult {
            name: "phase_shift_mode_transitions".into(),
            algo: inst.name.into(),
            m: 0,
            threads,
            ops: delta.mode_transitions,
            nanos: inst.best.iter().sum(),
        });
    }
    out
}

/// One timed pass of the scan-heavy phase shape: every thread but one
/// runs full-array read-only scans while the remaining thread
/// blind-writes random slots (equal values, so the scan sum stays
/// invariant) until the scanners finish. The storm is what separates
/// the engines: multi-version scans resolve against start-time
/// snapshots and never retry, single-version scans revalidate or abort.
/// Returns elapsed nanoseconds.
pub fn pass_scan_heavy(stm: &Arc<Stm>, vars: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    let scanners = threads.saturating_sub(1).max(1);
    let done = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|s| {
        if threads > 1 {
            let stm = Arc::clone(stm);
            let vars = vars.to_vec();
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut seed = 0x5ca1ab1e;
                while done.load(Ordering::Relaxed) < scanners as u64 {
                    let j = next_rand(&mut seed) as usize % vars.len();
                    stm.atomically(|tx| tx.write(&vars[j], 1));
                }
            });
        }
        for _ in 0..scanners {
            let stm = Arc::clone(stm);
            let vars = vars.to_vec();
            let done = Arc::clone(&done);
            s.spawn(move || {
                for _ in 0..txns {
                    let sum = stm.atomically(|tx| {
                        let mut acc = 0u64;
                        for v in &vars {
                            acc = acc.wrapping_add(tx.read(v)?);
                        }
                        Ok(acc)
                    });
                    assert_eq!(sum, vars.len() as u64);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    start.elapsed().as_nanos()
}

/// The scan-heavy runtime decision: every algorithm's instance is
/// driven through `scan_heavy → write_heavy → mixed` phases, each phase
/// timed as the best of [`PHASE_PASSES`] passes, interleaved across
/// algorithms (same bursty-neighbour reasoning as
/// [`bench_phase_shift`]). The scan-heavy phase is [`pass_scan_heavy`]
/// over 256 variables — long read-only scans under a blind-write storm,
/// the shape the static Mv serves without aborts and Adaptive serves
/// from its invisible mode; the write-heavy phase is
/// [`pass_write_heavy`] (routes Adaptive to visible); the mixed tail is
/// [`pass_read_mostly`] (routes it back to invisible).
///
/// Besides the timing rows, a `phase_scan_mode_transitions` row per
/// algorithm carries the controller's switch count in its `ops` field
/// (≥ 1 for a healthy adaptive run, 0 for the statics).
pub fn bench_phase_scan(
    algos: &[(&'static str, Algorithm)],
    threads: usize,
    txns_per_thread: u64,
) -> Vec<BenchResult> {
    const SCAN_VARS: usize = 256;
    let mut instances: Vec<PhaseInstance> = algos
        .iter()
        .map(|&(name, algo)| PhaseInstance {
            name,
            stm: Arc::new(Stm::new(algo)),
            vars: (0..SCAN_VARS).map(|_| TVar::new(1)).collect(),
            accounts: (0..16).map(|_| TVar::new(1_000_000)).collect(),
            best: Vec::new(),
        })
        .collect();
    // Warmup with a short scan-heavy pass (absorbs first-touch costs).
    for inst in &instances {
        pass_scan_heavy(&inst.stm, &inst.vars, threads, txns_per_thread / 10 + 1);
    }
    let before: Vec<_> = instances.iter().map(|i| i.stm.stats().snapshot()).collect();
    let phases = [
        "phase_scan_scan_heavy",
        "phase_scan_write_heavy",
        "phase_scan_mixed",
    ];
    for (p, _) in phases.iter().enumerate() {
        for inst in &mut instances {
            inst.best.push(u128::MAX);
        }
        for _pass in 0..PHASE_PASSES {
            for inst in &mut instances {
                let nanos = match p {
                    0 => pass_scan_heavy(&inst.stm, &inst.vars, threads, txns_per_thread),
                    1 => pass_write_heavy(&inst.stm, &inst.accounts, threads, txns_per_thread),
                    _ => pass_read_mostly(&inst.stm, &inst.vars, threads, txns_per_thread),
                };
                let slot = inst.best.last_mut().expect("phase slot");
                *slot = (*slot).min(nanos);
            }
        }
    }
    let scanners = threads.saturating_sub(1).max(1);
    let mut out = Vec::new();
    for (inst, before) in instances.iter().zip(&before) {
        for (p, label) in phases.iter().enumerate() {
            out.push(BenchResult {
                name: (*label).into(),
                algo: inst.name.into(),
                m: if p == 1 {
                    inst.accounts.len()
                } else {
                    inst.vars.len()
                },
                threads,
                ops: txns_per_thread * (if p == 0 { scanners } else { threads }) as u64,
                nanos: inst.best[p],
            });
        }
        let delta = inst.stm.stats().snapshot().since(before);
        out.push(BenchResult {
            name: "phase_scan_mode_transitions".into(),
            algo: inst.name.into(),
            m: 0,
            threads,
            ops: delta.mode_transitions,
            nanos: inst.best.iter().sum(),
        });
    }
    out
}

/// Scan length (and variable count) of the `long_scan` experiment.
const LONG_SCAN_VARS: usize = 256;

/// Reader threads of the `long_scan` experiment (the ladder varies the
/// writers).
const LONG_SCAN_READERS: usize = 2;

/// One algorithm's live state across the long-scan experiment: a fresh
/// instance per writer rung, with best-of-pass timing and cumulative
/// reader-side abort accounting.
struct ScanInstance {
    name: &'static str,
    stm: Arc<Stm>,
    vars: Vec<TVar<u64>>,
    best: u128,
    ro_aborts: u64,
}

/// One timed pass of the long-scan shape for one instance: `writers`
/// blind-writer threads storm the array (equal-value writes, so the scan
/// sum stays invariant and the only traffic is the synchronization
/// itself) while each reader completes `txns` full-array read-only
/// scans. Returns `(reader nanos, reader aborts)`.
fn pass_long_scan(inst: &ScanInstance, writers: usize, txns: u64) -> (u128, u64) {
    // Writers storm until the last reader reports in.
    let readers_done = Arc::new(AtomicU64::new(0));
    let aborts = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let stm = Arc::clone(&inst.stm);
            let vars = inst.vars.clone();
            let readers_done = Arc::clone(&readers_done);
            s.spawn(move || {
                let mut seed = w as u64 + 1;
                while readers_done.load(Ordering::Relaxed) < LONG_SCAN_READERS as u64 {
                    let j = next_rand(&mut seed) as usize % vars.len();
                    // Blind write: no read set, so writer commits add no
                    // validation probes and the probe counter isolates
                    // the read-only side.
                    stm.atomically(|tx| tx.write(&vars[j], 1));
                }
            });
        }
        for _ in 0..LONG_SCAN_READERS {
            let stm = Arc::clone(&inst.stm);
            let vars = inst.vars.clone();
            let (readers_done, aborts) = (Arc::clone(&readers_done), Arc::clone(&aborts));
            s.spawn(move || {
                let mut attempts = 0u64;
                for _ in 0..txns {
                    let sum = stm.atomically(|tx| {
                        attempts += 1;
                        let mut acc = 0u64;
                        for v in vars.iter() {
                            acc = acc.wrapping_add(tx.read(v)?);
                        }
                        Ok(acc)
                    });
                    assert_eq!(sum, vars.len() as u64);
                }
                aborts.fetch_add(attempts - txns, Ordering::Relaxed);
                readers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    (start.elapsed().as_nanos(), aborts.load(Ordering::Relaxed))
}

/// The multi-version experiment: large read-only scans (every variable
/// of a 256-slot array) racing a blind-writer ladder. Per writer rung,
/// every algorithm gets a fresh instance and the passes are
/// **interleaved across algorithms** (pass k of every algorithm before
/// pass k+1 of any — same bursty-neighbour reasoning as
/// [`bench_phase_shift`]), best-of-5 per rung.
///
/// Besides the timing rows, three companion rows per `(algo, writers)`
/// carry the storm's cost accounting in their `ops` field, accumulated
/// over all passes:
///
/// * `long_scan_ro_aborts` — retries the *read-only* scans paid
///   (attempts minus commits, counted reader-side). The multi-version
///   acceptance criterion: 0 for `mv`, whose snapshot reads cannot
///   abort.
/// * `long_scan_probes` — validation probes (writers are blind, so
///   every probe belongs to the read-only side). 0 for `mv` and the
///   never-validating `tlrw`.
/// * `long_scan_aborts` — instance-wide aborts including the writers'
///   lock conflicts; nonzero for every single-version algorithm under
///   the storm.
pub fn bench_long_scan(
    algos: &[(&'static str, Algorithm)],
    writer_ladder: &[usize],
    txns_per_reader: u64,
) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for &writers in writer_ladder {
        let mut instances: Vec<ScanInstance> = algos
            .iter()
            .map(|&(name, algo)| ScanInstance {
                name,
                stm: Arc::new(Stm::new(algo)),
                vars: (0..LONG_SCAN_VARS).map(|_| TVar::new(1)).collect(),
                best: u128::MAX,
                ro_aborts: 0,
            })
            .collect();
        // Warmup pass (absorbs first-touch and, for adaptive, mode lag).
        for inst in &instances {
            pass_long_scan(inst, writers, txns_per_reader / 10 + 1);
        }
        let before: Vec<_> = instances.iter().map(|i| i.stm.stats().snapshot()).collect();
        for _pass in 0..PHASE_PASSES {
            for inst in &mut instances {
                let (nanos, ro_aborts) = pass_long_scan(inst, writers, txns_per_reader);
                inst.best = inst.best.min(nanos);
                inst.ro_aborts += ro_aborts;
            }
        }
        for (inst, before) in instances.iter().zip(&before) {
            let delta = inst.stm.stats().snapshot().since(before);
            let mut row = |name: &str, ops: u64, nanos: u128| {
                out.push(BenchResult {
                    name: name.into(),
                    algo: inst.name.into(),
                    m: LONG_SCAN_VARS,
                    threads: writers,
                    ops,
                    nanos,
                });
            };
            row(
                "long_scan",
                txns_per_reader * LONG_SCAN_READERS as u64,
                inst.best,
            );
            row("long_scan_ro_aborts", inst.ro_aborts, inst.best);
            row("long_scan_probes", delta.validation_probes, inst.best);
            row("long_scan_aborts", delta.aborts, inst.best);
        }
    }
    out
}

/// Variable count of the camped-reader experiment: small, so the chain
/// *length* — not the variable count — dominates each scan.
const CAMPED_VARS: usize = 8;

/// The skip-pointer experiment (`long_scan_camped/mv/<chain>`): a
/// multi-version reader pins its snapshot, then nested equal-value
/// commits grow every variable's version chain `chain` links above that
/// snapshot — the camper's own pin holds the low watermark down, so
/// nothing trims. The camper then re-reads the whole array `txns`
/// times; every read must descend from the chain head past all `chain`
/// newer versions to the pinned one. The timing row reports those
/// reads; the `long_scan_camped_walk_steps` companion row carries the
/// engine's `chain_walk_steps` counter over the same reads, the direct
/// evidence that the Fenwick-shaped skip links make the descent
/// ~log²(chain), not linear. Deterministic and single-threaded: the
/// ladder compares chain lengths, not schedulers.
pub fn bench_camped_scan(chain_lens: &[usize], txns: u64) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for &chain in chain_lens {
        let stm = Arc::new(Stm::new(Algorithm::Mv));
        let vars: Vec<TVar<u64>> = (0..CAMPED_VARS).map(|_| TVar::new(1)).collect();
        let before = stm.stats().snapshot();
        let elapsed = std::cell::Cell::new(0u128);
        let grown = std::cell::Cell::new(false);
        stm.atomically(|tx| {
            // Pin the snapshot with one full scan.
            let mut acc = 0u64;
            for v in &vars {
                acc = acc.wrapping_add(tx.read(v)?);
            }
            assert_eq!(acc, CAMPED_VARS as u64);
            // Grow the chains under the camper's feet (once: a
            // multi-version read-only attempt never retries, and the
            // guard keeps a surprise re-run from doubling the chains).
            if !grown.get() {
                grown.set(true);
                for _ in 0..chain {
                    stm.atomically(|tx2| {
                        for v in &vars {
                            tx2.write(v, 1)?;
                        }
                        Ok(())
                    });
                }
            }
            let start = Instant::now();
            for _ in 0..txns {
                let mut sum = 0u64;
                for v in &vars {
                    sum = sum.wrapping_add(tx.read(v)?);
                }
                assert_eq!(sum, CAMPED_VARS as u64, "camped snapshot drifted");
            }
            elapsed.set(start.elapsed().as_nanos());
            Ok(())
        });
        let delta = stm.stats().snapshot().since(&before);
        let reads = txns * CAMPED_VARS as u64;
        for (label, ops) in [
            ("long_scan_camped", reads),
            ("long_scan_camped_walk_steps", delta.chain_walk_steps),
        ] {
            out.push(BenchResult {
                name: label.into(),
                algo: "mv".into(),
                m: chain,
                threads: 1,
                ops,
                nanos: elapsed.get(),
            });
        }
    }
    out
}

/// Uncontended single-thread counter increments.
pub fn bench_counter(algo: Algorithm, name: &str, txns: u64) -> BenchResult {
    let stm = Stm::new(algo);
    let v = TVar::new(0u64);
    let body = || {
        for _ in 0..txns {
            stm.atomically(|tx| {
                let x = tx.read(&v)?;
                tx.write(&v, x.wrapping_add(1))
            });
        }
    };
    body(); // warmup
    let nanos = time(body);
    BenchResult {
        name: "counter_increment".into(),
        algo: name.into(),
        m: 1,
        threads: 1,
        ops: txns,
        nanos,
    }
}

/// Contended bank transfers: `threads` threads, 8 accounts, for every
/// algorithm — passes **interleaved across algorithms**, best of
/// [`PHASE_PASSES`] (same bursty-neighbour reasoning as
/// [`bench_phase_shift`]), with conservation asserted after every pass.
pub fn bench_bank_family(
    algos: &[(&'static str, Algorithm)],
    threads: usize,
    txns_per_thread: u64,
) -> Vec<BenchResult> {
    const ACCOUNTS: usize = 8;
    let instances: Vec<AlgoInstance> = algos
        .iter()
        .map(|&(name, algo)| {
            let accounts: Vec<TVar<u64>> = (0..ACCOUNTS).map(|_| TVar::new(1_000)).collect();
            (name, Arc::new(Stm::new(algo)), accounts)
        })
        .collect();
    let pass = |stm: &Arc<Stm>, accounts: &[TVar<u64>], txns: u64| {
        let nanos = time(|| {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let stm = Arc::clone(stm);
                    let accounts = accounts.to_vec();
                    s.spawn(move || {
                        let mut seed = t as u64 + 1;
                        for _ in 0..txns {
                            let r = next_rand(&mut seed);
                            let from = (r >> 22) as usize % accounts.len();
                            let to = (r >> 2) as usize % accounts.len();
                            if from == to {
                                continue;
                            }
                            stm.atomically(|tx| {
                                let a = tx.read(&accounts[from])?;
                                let b = tx.read(&accounts[to])?;
                                let amt = a.min(5);
                                tx.write(&accounts[from], a - amt)?;
                                tx.write(&accounts[to], b + amt)
                            });
                        }
                    });
                }
            });
        });
        let sum: u64 = accounts.iter().map(TVar::load).sum();
        assert_eq!(sum, (ACCOUNTS * 1_000) as u64, "conservation violated");
        nanos
    };
    for (_, stm, accounts) in &instances {
        pass(stm, accounts, txns_per_thread / 10 + 1); // warmup
    }
    let mut best = vec![u128::MAX; instances.len()];
    for _pass in 0..PHASE_PASSES {
        for (i, (_, stm, accounts)) in instances.iter().enumerate() {
            best[i] = best[i].min(pass(stm, accounts, txns_per_thread));
        }
    }
    instances
        .iter()
        .zip(best)
        .map(|((name, _, _), nanos)| BenchResult {
            name: "bank_contended".into(),
            algo: (*name).into(),
            m: ACCOUNTS,
            threads,
            ops: txns_per_thread * threads as u64,
            nanos,
        })
        .collect()
}

/// The scalability picture this engine's hot path is tuned for: a
/// **fixed** total amount of work (`total_txns` transactions) split
/// across a thread-count ladder, so a flat wall-clock line means perfect
/// scaling and each rung's throughput is directly comparable. Two
/// shapes per rung:
///
/// * `thread_scaling_read_mostly` — the [`pass_read_mostly`] workload
///   (32-variable scans over 128 slots, every 8th transaction writes):
///   dominated by the per-read cost, where instrumentation RMWs and
///   write-set scans would serialize otherwise-independent readers;
/// * `thread_scaling_write_mixed` — the [`pass_write_heavy`] workload
///   (2-read/2-write transfers over 32 accounts): dominated by commit
///   cost, where the global clock draw is the shared hotspot.
///
/// Fresh instances per rung, passes **interleaved across algorithms**,
/// best of [`PHASE_PASSES`] — same bursty-neighbour reasoning as
/// [`bench_phase_shift`].
pub fn bench_thread_scaling(
    algos: &[(&'static str, Algorithm)],
    ladder: &[usize],
    total_txns: u64,
) -> Vec<BenchResult> {
    const SCAN_VARS: usize = 128;
    const ACCOUNTS: usize = 32;
    let mut out = Vec::new();
    for &threads in ladder {
        let per_thread = total_txns / threads as u64;
        for (label, write_mixed) in [
            ("thread_scaling_read_mostly", false),
            ("thread_scaling_write_mixed", true),
        ] {
            let instances: Vec<AlgoInstance> = algos
                .iter()
                .map(|&(name, algo)| {
                    let vars: Vec<TVar<u64>> = if write_mixed {
                        (0..ACCOUNTS).map(|_| TVar::new(1_000_000)).collect()
                    } else {
                        (0..SCAN_VARS).map(|_| TVar::new(1)).collect()
                    };
                    (name, Arc::new(Stm::new(algo)), vars)
                })
                .collect();
            let pass = |stm: &Arc<Stm>, vars: &[TVar<u64>], txns: u64| {
                if write_mixed {
                    pass_write_heavy(stm, vars, threads, txns)
                } else {
                    pass_read_mostly(stm, vars, threads, txns)
                }
            };
            for (_, stm, vars) in &instances {
                pass(stm, vars, per_thread / 10 + 1); // warmup
            }
            let mut best = vec![u128::MAX; instances.len()];
            for _pass in 0..PHASE_PASSES {
                for (i, (_, stm, vars)) in instances.iter().enumerate() {
                    best[i] = best[i].min(pass(stm, vars, per_thread));
                }
            }
            for ((name, _, vars), nanos) in instances.iter().zip(best) {
                out.push(BenchResult {
                    name: label.into(),
                    algo: (*name).into(),
                    m: vars.len(),
                    threads,
                    ops: per_thread * threads as u64,
                    nanos,
                });
            }
        }
    }
    out
}

/// Sentinel telling a bench queue consumer to stop.
const QSTOP: u64 = u64::MAX;

/// Producer/consumer wall clock: 2 producers push `items` total, 2
/// consumers drain — blocking (`dequeue_wait`) or polling (`dequeue`
/// re-run on empty).
fn queue_throughput(stm: &Arc<Stm>, items: u64, blocking: bool) -> u128 {
    let q: TQueue<u64> = TQueue::new();
    time(|| {
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (stm, q) = (Arc::clone(stm), q.clone());
                s.spawn(move || loop {
                    let v = if blocking {
                        stm.atomically(|tx| q.dequeue_wait(tx))
                    } else {
                        match stm.atomically(|tx| q.dequeue(tx)) {
                            Some(v) => v,
                            None => continue,
                        }
                    };
                    if v == QSTOP {
                        break;
                    }
                });
            }
            let producers: Vec<_> = (0..2u64)
                .map(|p| {
                    let (stm, q) = (Arc::clone(stm), q.clone());
                    s.spawn(move || {
                        for i in 0..items / 2 {
                            stm.atomically(|tx| q.enqueue(tx, p * items + i));
                        }
                    })
                })
                .collect();
            for h in producers {
                h.join().expect("producer");
            }
            for _ in 0..2 {
                stm.atomically(|tx| q.enqueue(tx, QSTOP));
            }
        });
    })
}

/// Transactional work (commits + aborts + validation probes + reads) two
/// consumers accumulate over an idle `window` against an **empty**
/// queue, plus the instance's park count: the CPU-waste comparison the
/// parking tier exists to win. Returns `(idle_work, parks)`.
fn queue_idle_work(stm: &Arc<Stm>, blocking: bool, window: Duration) -> (u64, u64) {
    let q: TQueue<u64> = TQueue::new();
    let stop = Arc::new(AtomicBool::new(false));
    let mut measured = (0, 0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (stm, q, stop) = (Arc::clone(stm), q.clone(), Arc::clone(&stop));
            s.spawn(move || {
                if blocking {
                    while stm.atomically(|tx| q.dequeue_wait(tx)) != QSTOP {}
                } else {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = stm.atomically(|tx| q.dequeue(tx));
                    }
                }
            });
        }
        // Let the consumers reach their steady state (parked, for the
        // blocking pair) before opening the measurement window.
        std::thread::sleep(Duration::from_millis(30));
        let before = stm.stats().snapshot();
        std::thread::sleep(window);
        let idle = stm.stats().snapshot().since(&before);
        measured = (
            idle.commits + idle.aborts + idle.validation_probes + idle.reads,
            stm.stats().snapshot().parks,
        );
        stop.store(true, Ordering::Relaxed);
        if blocking {
            for _ in 0..2 {
                stm.atomically(|tx| q.enqueue(tx, QSTOP));
            }
        }
    });
    measured
}

/// The `blocking_queue` family (see the module docs): throughput pair,
/// idle-waste pair, park-count row, per algorithm.
pub fn bench_blocking_queue_family(
    algos: &[(&'static str, Algorithm)],
    quick: bool,
) -> Vec<BenchResult> {
    let items: u64 = if quick { 2_000 } else { 20_000 };
    let idle_window = Duration::from_millis(if quick { 20 } else { 100 });
    let mut out = Vec::new();
    for &(name, algo) in algos {
        for (label, blocking) in [("blocking_queue", true), ("polling_queue", false)] {
            let stm = Arc::new(Stm::new(algo));
            let nanos = queue_throughput(&stm, items, blocking);
            out.push(BenchResult {
                name: label.into(),
                algo: name.into(),
                m: 0,
                threads: 4,
                ops: items,
                nanos,
            });
        }
        for (label, blocking) in [
            ("blocking_queue_idle_work", true),
            ("polling_queue_idle_work", false),
        ] {
            let stm = Arc::new(Stm::new(algo));
            let (work, parks) = queue_idle_work(&stm, blocking, idle_window);
            out.push(BenchResult {
                name: label.into(),
                algo: name.into(),
                m: 0,
                threads: 2,
                ops: work,
                nanos: idle_window.as_nanos(),
            });
            if blocking {
                out.push(BenchResult {
                    name: "blocking_queue_idle_parks".into(),
                    algo: name.into(),
                    m: 0,
                    threads: 2,
                    ops: parks,
                    nanos: idle_window.as_nanos(),
                });
            }
        }
    }
    out
}

/// Runs the full suite. `quick` shrinks every workload for CI.
pub fn run_all(quick: bool) -> Vec<BenchResult> {
    let mut out = Vec::new();
    let read_txns: u64 = if quick { 300 } else { 5_000 };
    let counter_txns: u64 = if quick { 5_000 } else { 200_000 };
    let bank_txns: u64 = if quick { 500 } else { 5_000 };
    let scale_txns: u64 = if quick { 200 } else { 2_000 };

    out.extend(bench_read_only_family(ALGOS, &[16, 64, 256], read_txns));
    for &(name, algo) in ALGOS {
        for threads in [1usize, 2, 4, 8] {
            out.push(bench_read_scaling(algo, name, 128, threads, scale_txns));
        }
    }
    for &(name, algo) in ALGOS {
        for threads in [1usize, 2, 4, 8] {
            out.push(bench_read_mostly(algo, name, 128, threads, scale_txns));
        }
    }
    for &(name, algo) in ALGOS {
        out.push(bench_counter(algo, name, counter_txns));
    }
    out.extend(bench_bank_family(ALGOS, 4, bank_txns));
    let phase_txns: u64 = if quick { 2_500 } else { 25_000 };
    out.extend(bench_phase_shift(ALGOS, 4, phase_txns));
    // Quick mode shrinks the phase_scan ladder (fewer scans per phase,
    // shorter camped chains) so CI stays fast while still crossing the
    // controller's windows in every phase.
    let phase_scan_txns: u64 = if quick { 300 } else { 3_000 };
    out.extend(bench_phase_scan(ALGOS, 4, phase_scan_txns));
    let camped_ladder: &[usize] = if quick { &[64, 256] } else { &[64, 256, 1024] };
    out.extend(bench_camped_scan(
        camped_ladder,
        if quick { 100 } else { 400 },
    ));
    let scan_txns: u64 = if quick { 60 } else { 400 };
    out.extend(bench_long_scan(ALGOS, &[1, 2, 4], scan_txns));
    out.extend(bench_blocking_queue_family(ALGOS, quick));
    out.extend(run_thread_scaling(quick));
    out
}

/// The `thread_scaling` families alone (also reachable through the
/// binary's `--thread-scaling` flag, for before/after engine
/// comparisons). `quick` shrinks the ladder to its endpoints.
pub fn run_thread_scaling(quick: bool) -> Vec<BenchResult> {
    let total: u64 = if quick { 2_000 } else { 16_000 };
    let ladder: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    bench_thread_scaling(ALGOS, ladder, total)
}

/// Renders results as an aligned text table.
pub fn render_table(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<28} {:>12} {:>5} {:>8} {:>12} {:>14}\n",
        "bench", "algo", "m", "threads", "ops", "ops/sec"
    ));
    for r in results {
        s.push_str(&format!(
            "{:<28} {:>12} {:>5} {:>8} {:>12} {:>14.0}\n",
            r.name,
            r.algo,
            r.m,
            r.threads,
            r.ops,
            r.ops_per_sec()
        ));
    }
    s
}

/// Serializes results as the `BENCH_native_stm.json` baseline document.
pub fn to_json(results: &[BenchResult], quick: bool) -> String {
    to_json_named("native_stm", results, quick)
}

/// Serializes results as a baseline document under an arbitrary bench
/// family name (shared by the `structs` suite).
pub fn to_json_named(bench: &str, results: &[BenchResult], quick: bool) -> String {
    let hw = available_threads();
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        // Rows that asked for more workers than the machine has measure
        // the scheduler, not the algorithm: flag them so baseline
        // comparisons can discount (or reject) them.
        let over = if r.threads > hw {
            ", \"oversubscribed\": true"
        } else {
            ""
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"algo\": \"{}\", \"m\": {}, \"threads\": {}, \"ops\": {}, \"nanos\": {}, \"ops_per_sec\": {:.1}{over}}}{sep}\n",
            r.name, r.algo, r.m, r.threads, r.ops, r.nanos, r.ops_per_sec()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Full entry point shared by the bench target and the binary: run,
/// print, and write the JSON baseline to `path`.
pub fn run_and_emit(quick: bool, path: &str) {
    eprintln!(
        "running native STM benchmarks ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let results = run_all(quick);
    print!("{}", render_table(&results));
    let hw = available_threads();
    let over = results.iter().filter(|r| r.threads > hw).count();
    if over > 0 {
        eprintln!(
            "warning: {over} result rows ran oversubscribed (threads > {hw} \
             hardware threads); their timings measure scheduling, not the \
             algorithm, and are flagged \"oversubscribed\" in the JSON"
        );
    }
    let json = to_json(&results, quick);
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_path_resolves_to_this_workspace_root() {
        // Under `cargo test` the CWD is the package dir; the walk-up
        // must land on the workspace root (which holds the bench crate),
        // not merely the nearest Cargo.lock of whatever project.
        let p = std::path::PathBuf::from(baseline_path("PROBE.json"));
        assert_eq!(p.file_name().unwrap(), "PROBE.json");
        let root = p.parent().unwrap();
        assert!(root.join("Cargo.lock").exists(), "{}", root.display());
        assert!(root.join("crates/bench").is_dir(), "{}", root.display());
        assert_eq!(
            native_baseline_path(),
            root.join("BENCH_native_stm.json").to_string_lossy()
        );
    }

    #[test]
    fn blocking_consumers_idle_far_cheaper_than_polling() {
        // The acceptance picture in miniature: over the same idle window
        // against an empty queue, parked consumers must do (almost) no
        // transactional work while polling consumers churn.
        let window = Duration::from_millis(50);
        let parked_stm = Arc::new(Stm::tl2());
        let (parked_work, parks) = queue_idle_work(&parked_stm, true, window);
        let polling_stm = Arc::new(Stm::tl2());
        let (polling_work, _) = queue_idle_work(&polling_stm, false, window);
        assert!(parks >= 2, "both consumers should have parked ({parks})");
        assert!(
            polling_work >= 100,
            "polling should churn visibly ({polling_work})"
        );
        assert!(
            parked_work * 10 < polling_work,
            "parked idle work ({parked_work}) must be an order of magnitude \
             below polling ({polling_work})"
        );
    }

    #[test]
    fn phase_shift_reports_adaptive_transitions() {
        // Enough commits per phase for several default sampling windows:
        // the adaptive run must record at least one switch, the static
        // run exactly zero.
        let rows = bench_phase_shift(
            &[("adaptive", Algorithm::Adaptive), ("tlrw", Algorithm::Tlrw)],
            2,
            1_500,
        );
        assert_eq!(rows.len(), 8, "3 phases + transitions, per algorithm");
        let trans = |algo: &str| {
            rows.iter()
                .find(|r| r.name == "phase_shift_mode_transitions" && r.algo == algo)
                .expect("transitions row")
                .ops
        };
        assert!(trans("adaptive") >= 1, "adaptive never switched");
        assert_eq!(
            trans("tlrw"),
            0,
            "static algorithms must report zero transitions"
        );
    }

    #[test]
    fn long_scan_isolates_the_multi_version_acceptance_counters() {
        // A short storm: mv scans must record zero read-only aborts and
        // zero probes, no matter the interleaving. The single-version
        // contrast in this unit test is incremental, whose per-read
        // revalidation probes are structural (every scan pays
        // m(m-1)/2), so the assertion cannot be starved by scheduling
        // the way storm-dependent tl2 aborts can; the storm-dependent
        // rows for all six algorithms land in BENCH_native_stm.json.
        let rows = bench_long_scan(
            &[
                ("mv", Algorithm::Mv),
                ("incremental", Algorithm::Incremental),
            ],
            &[2],
            40,
        );
        assert_eq!(rows.len(), 8, "4 rows per algorithm for one rung");
        let val = |name: &str, algo: &str| {
            rows.iter()
                .find(|r| r.name == name && r.algo == algo)
                .expect("row")
                .ops
        };
        assert_eq!(val("long_scan_ro_aborts", "mv"), 0, "mv readers abort-free");
        assert_eq!(val("long_scan_probes", "mv"), 0, "mv readers never probe");
        assert!(val("long_scan", "mv") > 0);
        assert!(
            val("long_scan_probes", "incremental") > 0,
            "a single-version engine must pay under the storm"
        );
    }

    #[test]
    fn camped_scan_walks_are_sublinear_in_chain_length() {
        // The skip-pointer acceptance picture in miniature: growing the
        // chain 16x (64 -> 1024) must leave the walk-steps-per-read far
        // below the linear count — a prev-only descent would pay ~1024
        // steps per read at the long rung.
        let rows = bench_camped_scan(&[64, 1024], 50);
        assert_eq!(rows.len(), 4, "timing + walk-steps row per rung");
        let of = |name: &str, chain: usize| {
            rows.iter()
                .find(|r| r.name == name && r.m == chain)
                .expect("row")
        };
        let per_read = |chain: usize| {
            let reads = of("long_scan_camped", chain).ops;
            let steps = of("long_scan_camped_walk_steps", chain).ops;
            assert!(reads > 0 && steps > 0);
            steps / reads
        };
        let (short, long) = (per_read(64), per_read(1024));
        assert!(
            long < 1024 / 4,
            "walks at chain 1024 look linear: {long} steps/read"
        );
        assert!(
            long < short * 8,
            "16x the chain must cost well under 16x the steps \
             (chain 64: {short}/read, chain 1024: {long}/read)"
        );
    }

    #[test]
    fn oversubscribed_rows_are_flagged_in_the_json() {
        let hw = available_threads();
        let row = |threads: usize| BenchResult {
            name: "probe".into(),
            algo: "tl2".into(),
            m: 0,
            threads,
            ops: 1,
            nanos: 1,
        };
        let json = to_json(&[row(1), row(hw + 1)], true);
        assert_eq!(json.matches("\"oversubscribed\": true").count(), 1);
        assert!(
            json.lines()
                .find(|l| l.contains(&format!("\"threads\": {}", hw + 1)))
                .expect("oversubscribed row")
                .contains("\"oversubscribed\": true"),
            "the flag must sit on the oversubscribed row"
        );
    }

    #[test]
    fn quick_suite_produces_complete_results() {
        let mut results = vec![
            bench_counter(Algorithm::Norec, "norec", 10),
            bench_read_scaling(Algorithm::Tl2, "tl2", 8, 2, 10),
            bench_read_mostly(Algorithm::Tlrw, "tlrw", 32, 2, 10),
            bench_read_mostly(Algorithm::Tl2, "tl2", 32, 2, 10),
        ];
        results.extend(bench_read_only_family(&[("tl2", Algorithm::Tl2)], &[8], 10));
        results.extend(bench_bank_family(&[("tl2", Algorithm::Tl2)], 2, 20));
        for r in &results {
            assert!(r.ops > 0);
            assert!(r.ops_per_sec() > 0.0);
        }
        let table = render_table(&results);
        assert!(table.contains("read_only_txn"));
        assert!(table.contains("bank_contended"));
        let json = to_json(&results, true);
        assert!(json.contains("\"bench\": \"native_stm\""));
        assert!(json.contains("\"quick\": true"));
        // The JSON must stay machine-parseable enough for a diff-based
        // baseline check: balanced braces, one result object per line.
        assert_eq!(json.matches("{\"name\"").count(), results.len());
    }

    #[test]
    fn thread_scaling_covers_the_ladder_with_fixed_work() {
        let rows = bench_thread_scaling(
            &[("tl2", Algorithm::Tl2), ("mv", Algorithm::Mv)],
            &[1, 2],
            40,
        );
        // 2 rungs × 2 shapes × 2 algorithms.
        assert_eq!(rows.len(), 8);
        for shape in ["thread_scaling_read_mostly", "thread_scaling_write_mixed"] {
            for algo in ["tl2", "mv"] {
                let of = |threads: usize| {
                    rows.iter()
                        .find(|r| r.name == shape && r.algo == algo && r.threads == threads)
                        .expect("row")
                };
                // Fixed total work: ops per rung match (total rounds
                // down to a per-thread share).
                assert_eq!(of(1).ops, 40);
                assert_eq!(of(2).ops, 40);
                assert!(of(1).nanos > 0 && of(2).nanos > 0);
            }
        }
    }
}
