//! The end-to-end run: `DurableKv` driven closed-loop by client threads
//! the way an embedding application drives it, with per-op-kind latency
//! recorders and correctness checks on every result.

use crate::stats::Histogram;
use crate::workloads::{stream_state, Kind, Spec, INITIAL, SHARDS};
use ptm_server::{DurabilityConfig, DurableKv, ShardedKv, WorkloadOp};
use ptm_stm::StatsSnapshot;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

pub type Store = DurableKv<u64, u64>;

/// The flush policy of every end-to-end run: acks do not wait for the
/// log's fsync (`sync_acks: false`), and a flusher thread makes the log
/// durable every [`FLUSH_EVERY`], bounding what a crash can lose to
/// that interval — how an embedding application runs the store when
/// its disk's fsync costs far more than an op. `README.md` gives the
/// measurements behind this choice; the sync-ack path is timed by the
/// traced run's `durable_sync` rung and the bare WAL.
pub const SYNC_ACKS: bool = false;
pub const FLUSH_EVERY: Duration = Duration::from_millis(10);

/// Runs `body` while a flusher thread makes `kv`'s log durable every
/// [`FLUSH_EVERY`] (no flusher for `None`).
pub fn with_flusher<T>(kv: Option<&Store>, body: impl FnOnce() -> T) -> T {
    let Some(kv) = kv else {
        return body();
    };
    // Dropping `stop` wakes the flusher at once, so it never holds the
    // body's end back by up to a period.
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let flusher = s.spawn(move || {
            while stopped.recv_timeout(FLUSH_EVERY) == Err(RecvTimeoutError::Timeout) {
                kv.flush().expect("log flush failed");
            }
        });
        let out = body();
        drop(stop);
        flusher.join().expect("flusher thread");
        out
    })
}

/// Opens (or recovers) the durable store under `dir`.
pub fn open(spec: &Spec, dir: &Path, sync_acks: bool) -> Store {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.service = spec.service();
    cfg.sync_acks = sync_acks;
    DurableKv::open(cfg).unwrap_or_else(|e| panic!("open store at {}: {e}", dir.display()))
}

/// Writes every key to [`INITIAL`], one durable put per key, the way an
/// application loads the store, while the flusher runs as in the
/// measured run; then flushes, so the whole preload is durable. One
/// thread does it all: a bulk load split over threads leaves the
/// allocator's per-thread arenas holding different amounts, which made
/// the reported peak RSS wander from run to run.
pub fn preload(kv: &Store, keys: u64) {
    with_flusher(Some(kv), || {
        for k in 0..keys {
            kv.put(k, INITIAL);
        }
    });
    kv.flush().expect("log flush failed");
}

/// Opens and preloads a fresh store (the benchmark's set-up), returning
/// it with the seconds that took. A store left in `dir` is deleted
/// first, and the deletion committed, so its journal and discard work
/// does not land on the timed fsyncs.
pub fn setup(spec: &Spec, dir: &Path) -> (Store, f64) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::create_dir_all(parent);
        crate::sys::settle(parent);
    }
    let t0 = Instant::now();
    let kv = open(spec, dir, SYNC_ACKS);
    preload(&kv, spec.keys);
    (kv, t0.elapsed().as_secs_f64())
}

/// Engine counters summed over every shard.
pub fn shard_stats(kv: &ShardedKv<u64, u64>) -> Vec<StatsSnapshot> {
    (0..kv.shard_count())
        .map(|i| kv.shard_stats(i).snapshot())
        .collect()
}

/// The per-shard deltas since `before`, summed (high-water marks take
/// the max).
pub fn stats_since(kv: &ShardedKv<u64, u64>, before: &[StatsSnapshot]) -> StatsSnapshot {
    let mut sum = StatsSnapshot::default();
    for (now, then) in shard_stats(kv).iter().zip(before) {
        let d = now.since(then);
        sum.commits += d.commits;
        sum.aborts += d.aborts;
        sum.validation_probes += d.validation_probes;
        sum.reader_conflicts += d.reader_conflicts;
        sum.reads += d.reads;
        sum.writes += d.writes;
        sum.snapshot_reads += d.snapshot_reads;
        sum.chain_walk_steps += d.chain_walk_steps;
        sum.versions_retained = sum.versions_retained.max(d.versions_retained);
        sum.mode_transitions += d.mode_transitions;
        sum.parks += d.parks;
        sum.log_appends += d.log_appends;
        sum.fsyncs += d.fsyncs;
        sum.group_commit_records += d.group_commit_records;
    }
    sum
}

/// Attempts counted inside the benchmark's own `transact` closures.
#[derive(Debug, Default)]
pub struct Attempts {
    pub transfer: AtomicU64,
    pub scan: AtomicU64,
}

/// Moves 1 from `keys[0]` to `keys[last]` (saturating at zero) in one
/// transaction, a 2PC across two shards when the keys' shards differ. `false` if either key was missing.
pub fn transfer(kv: &Store, keys: &[u64], attempts: &AtomicU64) -> bool {
    kv.transact(|tx| {
        attempts.fetch_add(1, Ordering::Relaxed);
        let to_key = *keys.last().expect("span >= 2");
        let (Some(from), Some(to)) = (tx.get(&keys[0])?, tx.get(&to_key)?) else {
            return Ok(false);
        };
        let moved = from.min(1);
        tx.put(keys[0], from - moved)?;
        tx.put(to_key, to + moved)?;
        Ok(true)
    })
}

/// A consistent whole-store scan, as a read-only cross-shard
/// transaction.
pub fn scan(kv: &Store, attempts: &AtomicU64) -> Vec<(u64, u64)> {
    kv.transact(|tx| {
        attempts.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        for s in 0..SHARDS {
            out.extend(tx.shard_snapshot(s)?);
        }
        Ok(out)
    })
}

/// A scan sorted by key, for comparing whole stores.
pub fn sorted_scan(kv: &Store) -> Vec<(u64, u64)> {
    let mut out = scan(kv, &AtomicU64::new(0));
    out.sort_unstable();
    out
}

/// Whether a scan's values show the whole store with the
/// transfer-invariant total (`check_total` off for workloads whose puts
/// change the total).
pub fn scan_ok(values: impl ExactSizeIterator<Item = u64>, keys: u64, check_total: bool) -> bool {
    values.len() as u64 == keys && (!check_total || values.sum::<u64>() == keys * INITIAL)
}

/// Latency histograms, one per [`Kind`].
pub type Samples = [Histogram; 4];

/// One client's tallies.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency samples per [`WINDOW`] of the run, by the window the op
    /// completed in.
    pub windows: Vec<Samples>,
    pub completed: [u64; 4],
    /// Completed transfers whose two keys live on different shards.
    pub cross_shard: u64,
    /// Failed correctness checks.
    pub failures: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Samples::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            for (m, t) in mine.iter_mut().zip(&theirs) {
                m.merge(t);
            }
        }
        for k in 0..4 {
            self.completed[k] += other.completed[k];
        }
        self.cross_shard += other.cross_shard;
        self.failures += other.failures;
    }

    pub fn ops(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Key and value bytes the completed ops asked the store to write.
    pub fn user_bytes(&self) -> u64 {
        Kind::ALL
            .iter()
            .map(|k| k.user_bytes() * self.completed[k.index()])
            .sum()
    }
}

/// Every latency sample of `kind` in `windows`, pooled.
pub fn pooled(windows: &[Samples], kind: Kind) -> Histogram {
    let mut all = Histogram::default();
    for w in windows {
        all.merge(&w[kind.index()]);
    }
    all
}

/// Checks the store's own counters against the completed ops: every
/// get, put, transfer participant and scanned shard commits once on its
/// shard, and every put and transfer participant appends one log
/// record. Returns the number of counters that disagree.
pub fn store_count_mismatches(tally: &Tally, stm: &StatsSnapshot) -> u64 {
    let done = |k: Kind| tally.completed[k.index()];
    let appends = done(Kind::Put) + done(Kind::Transfer) + tally.cross_shard;
    let commits = done(Kind::Get) + appends + SHARDS as u64 * done(Kind::Scan);
    u64::from(stm.log_appends != appends) + u64::from(stm.commits != commits)
}

/// The span the run's completions are grouped by: the first window is
/// the warm-up, and the per-window op counts show how the host's speed
/// moved during the run.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The outcome of [`drive`].
#[derive(Debug)]
pub struct Outcome {
    pub secs: f64,
    pub tally: Tally,
    /// Ops each client completed, in client order.
    pub per_client: Vec<u64>,
    /// Whether every client got a CPU of its own ([`crate::sys::pin_thread`]).
    pub pinned: bool,
    pub stm: StatsSnapshot,
    pub attempts: Attempts,
}

/// Runs `clients` closed-loop clients on `kv` for `duration`, each on
/// its own seeded stream and pinned to a CPU of its own, timing every op by kind and checking every
/// result, while a flusher makes the log durable every [`FLUSH_EVERY`].
pub fn drive(kv: &Store, spec: &Spec, seed: u64, clients: usize, duration: Duration) -> Outcome {
    let workload = spec.workload();
    let attempts = Attempts::default();
    let check_total = !spec.runs(Kind::Put);
    let before = shard_stats(kv.store());
    let start = Instant::now();
    let deadline = start + duration;
    let tallies: Vec<(Tally, bool)> = with_flusher(Some(kv), || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (workload, attempts) = (&workload, &attempts);
                    s.spawn(move || {
                        let pinned = crate::sys::pin_thread(c);
                        let mut state = stream_state(seed, c);
                        let mut t = Tally::default();
                        loop {
                            let op = workload.next_op(&mut state);
                            let kind = Kind::of(&op);
                            let t0 = Instant::now();
                            let mut scanned = None;
                            let ok = match &op {
                                WorkloadOp::Read(k) => kv.get(k).is_some(),
                                WorkloadOp::Write(k, v) => kv.put(*k, *v).is_some(),
                                WorkloadOp::Multi(keys) => transfer(kv, keys, &attempts.transfer),
                                WorkloadOp::Scan => {
                                    scanned = Some(scan(kv, &attempts.scan));
                                    true
                                }
                            };
                            let t1 = Instant::now();
                            // Checked outside the timed span.
                            let ok = ok
                                && scanned.is_none_or(|e| {
                                    scan_ok(e.into_iter().map(|(_, v)| v), spec.keys, check_total)
                                });
                            let w = ((t1 - start).as_nanos() / WINDOW.as_nanos()) as usize;
                            if t.windows.len() <= w {
                                t.windows.resize_with(w + 1, Samples::default);
                            }
                            t.windows[w][kind.index()].record((t1 - t0).as_nanos() as u64);
                            t.completed[kind.index()] += 1;
                            if let WorkloadOp::Multi(keys) = &op {
                                let shard = |k| kv.store().shard_of(k);
                                let last = keys.len() - 1;
                                t.cross_shard += u64::from(shard(&keys[0]) != shard(&keys[last]));
                            }
                            t.failures += u64::from(!ok);
                            if t1 >= deadline {
                                break;
                            }
                        }
                        (t, pinned)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    });
    let secs = start.elapsed().as_secs_f64();
    let stm = stats_since(kv.store(), &before);
    let per_client = tallies.iter().map(|(t, _)| t.ops()).collect();
    let pinned = tallies.iter().all(|(_, p)| *p);
    let mut tally = Tally::default();
    for (t, _) in tallies {
        tally.merge(t);
    }
    tally.failures += store_count_mismatches(&tally, &stm);
    Outcome {
        secs,
        tally,
        per_client,
        pinned,
        stm,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_counts_cover_every_commit_and_log_record() {
        let tally = Tally {
            completed: [10, 3, 4, 2],
            cross_shard: 3,
            ..Tally::default()
        };
        // 3 puts + 4 transfers, 3 of them on two shards.
        let appends = 3 + 4 + 3;
        let mut stm = StatsSnapshot {
            log_appends: appends,
            commits: 10 + appends + 2 * SHARDS as u64,
            ..StatsSnapshot::default()
        };
        assert_eq!(store_count_mismatches(&tally, &stm), 0);
        stm.commits -= 1;
        assert_eq!(store_count_mismatches(&tally, &stm), 1);
        stm.log_appends += 1;
        assert_eq!(store_count_mismatches(&tally, &stm), 2);
    }
}
