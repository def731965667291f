//! Service-tier integration tests: routing, cross-shard atomicity under
//! concurrency (the 2PC acceptance test), and the workload generator's
//! statistical contract.

use ptm_server::{
    percentile, preload, run_workload, Mix, ServiceConfig, ShardedKv, Workload, WorkloadConfig,
    WorkloadOp,
};
use ptm_stm::Algorithm;
use std::sync::atomic::{AtomicBool, Ordering};

const ALGOS: &[Algorithm] = &[
    Algorithm::Tl2,
    Algorithm::Incremental,
    Algorithm::Norec,
    Algorithm::Tlrw,
    Algorithm::Mv,
    Algorithm::Adaptive,
];

#[test]
fn single_key_roundtrip_every_algorithm_and_shard_count() {
    for &algo in ALGOS {
        for shards in [1, 4] {
            let kv: ShardedKv<u64, u64> = ShardedKv::new(shards, algo);
            assert_eq!(kv.shard_count(), shards);
            assert_eq!(kv.get(&7), None);
            assert_eq!(kv.put(7, 70), None);
            assert_eq!(kv.put(7, 71), Some(70), "{algo:?}/{shards}");
            assert_eq!(kv.get(&7), Some(71));
            assert_eq!(kv.remove(&7), Some(71));
            assert_eq!(kv.get(&7), None, "{algo:?}/{shards}");
        }
    }
}

#[test]
fn transactions_holding_every_shard_open_stay_atomic_all_algorithms() {
    // Sixteen shards: one open shard transaction each, all on this
    // thread, which is more than the engine keeps pooled per thread.
    for &algo in ALGOS {
        let kv: ShardedKv<u64, u64> = ShardedKv::new(16, algo);
        let mut keys = vec![None; kv.shard_count()];
        for k in 0u64.. {
            keys[kv.shard_of(&k)].get_or_insert(k);
            if keys.iter().all(Option::is_some) {
                break;
            }
        }
        let keys: Vec<u64> = keys.into_iter().flatten().collect();
        for round in 1..=4u64 {
            kv.transact(|tx| {
                for k in &keys {
                    let v = tx.get(k)?.unwrap_or(0);
                    tx.put(*k, v + 1)?;
                }
                Ok(())
            });
            let snap = kv.scan();
            assert_eq!(snap.len(), keys.len(), "{algo:?}");
            assert!(snap.iter().all(|&(_, v)| v == round), "{algo:?}: {snap:?}");
        }
    }
}

#[test]
fn scan_sees_every_entry_once() {
    let kv = ShardedKv::with_config(ServiceConfig {
        shards: 4,
        algorithm: Algorithm::Tl2,
        buckets_per_shard: 8,
        adaptive: None,
    });
    for k in 0u64..100 {
        kv.put(k, k * 2);
    }
    let mut entries = kv.scan();
    entries.sort_unstable();
    assert_eq!(entries.len(), 100);
    for (i, (k, v)) in entries.into_iter().enumerate() {
        assert_eq!((k, v), (i as u64, i as u64 * 2));
    }
}

#[test]
fn transact_reruns_on_logical_retry() {
    let kv: ShardedKv<u64, u64> = ShardedKv::new(2, Algorithm::Tl2);
    kv.put(1, 10);
    let mut first = true;
    let out = kv.transact(|tx| {
        if std::mem::take(&mut first) {
            // First run declines: the coordinator must roll the open
            // shard transactions back and run the body again.
            tx.get(&1)?;
            return Err(ptm_stm::Retry);
        }
        tx.get(&1)
    });
    assert_eq!(out, Some(10));
    assert!(!first, "body ran at least twice");
}

/// The acceptance test: concurrent cross-shard transfers against
/// concurrent consistent scans, for **every algorithm** and two shard
/// counts. Every scan must observe the invariant total — a torn
/// multi-shard commit (one shard published, its partner not yet) would
/// show up as a sum off by the transfer amount.
#[test]
fn cross_shard_transfers_are_never_observed_torn() {
    const KEYS: u64 = 128;
    const INITIAL: u64 = 100;
    const WRITERS: usize = 3;
    const TRANSFERS: u64 = 400;

    for &algo in ALGOS {
        for shards in [2, 5] {
            let kv: ShardedKv<u64, u64> = ShardedKv::new(shards, algo);
            preload(&kv, KEYS, INITIAL);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let kv = &kv;
                        s.spawn(move || {
                            let mut state = (w as u64 + 1) * 0x9E37_79B9;
                            for _ in 0..TRANSFERS {
                                let a = ptm_server::workload::next_rand(&mut state) % KEYS;
                                let mut b = ptm_server::workload::next_rand(&mut state) % KEYS;
                                if b == a {
                                    b = (b + 1) % KEYS;
                                }
                                kv.transact(|tx| {
                                    let from = tx.get(&a)?.unwrap_or(0);
                                    let to = tx.get(&b)?.unwrap_or(0);
                                    let moved = from.min(3);
                                    tx.put(a, from - moved)?;
                                    tx.put(b, to + moved)?;
                                    Ok(())
                                });
                            }
                        })
                    })
                    .collect();
                let scanner = {
                    let (kv, done) = (&kv, &done);
                    s.spawn(move || {
                        let mut scans = 0u64;
                        loop {
                            // Load *before* the scan so the last scan
                            // runs entirely after the writers stopped
                            // and checks the final state too.
                            let finished = done.load(Ordering::Acquire);
                            let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
                            assert_eq!(
                                total,
                                KEYS * INITIAL,
                                "{algo:?}/{shards} shards: torn cross-shard read"
                            );
                            scans += 1;
                            if finished {
                                return scans;
                            }
                        }
                    })
                };
                for h in writers {
                    h.join().expect("writer thread");
                }
                done.store(true, Ordering::Release);
                let scans = scanner.join().expect("scanner thread");
                assert!(scans >= 1, "{algo:?}/{shards}: scanner never completed");
            });
            let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
            assert_eq!(total, KEYS * INITIAL, "{algo:?}/{shards}: final sum");
        }
    }
}

#[test]
fn workload_runner_preserves_the_balance_invariant() {
    // End-to-end through the YCSB runner itself (reads, scans, and
    // transfer multis — no plain writes, which would break the sum).
    for algo in [Algorithm::Tl2, Algorithm::Tlrw] {
        let kv = ShardedKv::new(3, algo);
        let cfg = WorkloadConfig {
            keys: 64,
            zipf_theta: 0.9,
            mix: Mix {
                read: 80,
                write: 0,
                scan: 2,
                multi: 18,
            },
            multi_span: 3,
        };
        preload(&kv, cfg.keys, 10);
        let w = Workload::new(cfg);
        let stats = run_workload(&kv, &w, 3, 500, 42);
        assert_eq!(stats.ops, 1500);
        assert_eq!(
            stats.ops,
            stats.reads + stats.writes + stats.scans + stats.multis
        );
        assert_eq!(stats.latencies.len(), 1500, "every op timed");
        let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
        assert_eq!(total, cfg.keys * 10, "{algo:?}: transfers moved, not lost");
    }
}

#[test]
fn zipfian_draws_stay_in_range_and_skew() {
    let w = Workload::new(WorkloadConfig {
        keys: 1000,
        zipf_theta: 0.99,
        ..WorkloadConfig::default()
    });
    let mut state = 7u64;
    let mut counts = vec![0u64; 1000];
    for _ in 0..200_000 {
        let k = w.next_key(&mut state) as usize;
        counts[k] += 1;
    }
    let max = *counts.iter().max().expect("nonempty");
    // Uniform would put ~200 draws on each key; zipfian θ=0.99 puts a
    // double-digit percentage on the hottest. Conservative bound: 20×
    // uniform.
    assert!(
        max > 4000,
        "hottest key drew only {max} of 200k — not skewed"
    );

    let uniform = Workload::new(WorkloadConfig {
        keys: 1000,
        zipf_theta: 0.0,
        ..WorkloadConfig::default()
    });
    let mut counts = vec![0u64; 1000];
    for _ in 0..200_000 {
        counts[uniform.next_key(&mut state) as usize] += 1;
    }
    let max = *counts.iter().max().expect("nonempty");
    assert!(max < 1000, "uniform draw is skewed: max bucket {max}");
}

#[test]
fn mix_draws_match_their_percentages() {
    let w = Workload::new(WorkloadConfig {
        keys: 100,
        zipf_theta: 0.5,
        mix: Mix {
            read: 50,
            write: 30,
            scan: 5,
            multi: 15,
        },
        multi_span: 2,
    });
    let mut state = 99u64;
    let (mut r, mut wr, mut sc, mut mu) = (0u32, 0u32, 0u32, 0u32);
    for _ in 0..100_000 {
        match w.next_op(&mut state) {
            WorkloadOp::Read(k) => {
                assert!(k < 100);
                r += 1;
            }
            WorkloadOp::Write(k, _) => {
                assert!(k < 100);
                wr += 1;
            }
            WorkloadOp::Scan => sc += 1,
            WorkloadOp::Multi(keys) => {
                assert_eq!(keys.len(), 2);
                assert_ne!(keys[0], keys[1], "transfer keys must differ");
                mu += 1;
            }
        }
    }
    let close = |got: u32, want: u32| {
        let got_pct = got as f64 / 1000.0;
        (got_pct - want as f64).abs() < 2.0
    };
    assert!(close(r, 50), "reads {r}");
    assert!(close(wr, 30), "writes {wr}");
    assert!(close(sc, 5), "scans {sc}");
    assert!(close(mu, 15), "multis {mu}");
}

#[test]
fn percentile_is_nearest_rank() {
    let mut one = [42u64];
    assert_eq!(percentile(&mut one, 50.0), 42);
    assert_eq!(percentile(&mut [], 99.0), 0);
    let mut v: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(percentile(&mut v, 50.0), 50);
    assert_eq!(percentile(&mut v, 99.0), 99);
    assert_eq!(percentile(&mut v, 100.0), 100);
}
