//! Interactive driver for the sharded KV service: one configurable
//! YCSB-style run, human-readable output (throughput, p50/p99, per-shard
//! STM counters, and — for `--algo adaptive` — the controller's mode
//! transitions and each shard's resting mode). The committed-baseline
//! JSON family lives in `ptm-bench`'s `service-bench` binary; this one
//! is for exploring a single configuration by hand.
//!
//! ```text
//! service-driver [--shards N] [--algo NAME] [--threads N] [--keys N]
//!                [--theta F] [--ops N] [--mix R,W,S,M] [--span N]
//!                [--window-commits N] [--hysteresis N]
//! ```
//!
//! The last two flags tune the adaptive controller (`AdaptiveConfig`):
//! sampling window size and hysteresis windows. They only take effect
//! with `--algo adaptive`.

use ptm_server::{preload, run_workload, Mix, ServiceConfig, ShardedKv, Workload, WorkloadConfig};
use ptm_stm::{AdaptiveConfig, Algorithm};

fn algo_by_name(name: &str) -> Algorithm {
    match name {
        "tl2" => Algorithm::Tl2,
        "incremental" => Algorithm::Incremental,
        "norec" => Algorithm::Norec,
        "tlrw" => Algorithm::Tlrw,
        "mv" => Algorithm::Mv,
        "adaptive" => Algorithm::Adaptive,
        other => panic!("unknown algorithm {other:?} (tl2|incremental|norec|tlrw|mv|adaptive)"),
    }
}

fn main() {
    let mut shards = 4usize;
    let mut algo = Algorithm::Tl2;
    let mut threads = 4usize;
    let mut keys = 4096u64;
    let mut theta = 0.99f64;
    let mut ops = 50_000u64;
    let mut mix = Mix::UPDATE_HEAVY;
    let mut span = 2usize;
    let mut acfg = AdaptiveConfig::default();
    let mut tuned = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--shards" => shards = value(i).parse().expect("--shards"),
            "--algo" => algo = algo_by_name(value(i)),
            "--threads" => threads = value(i).parse().expect("--threads"),
            "--keys" => keys = value(i).parse().expect("--keys"),
            "--theta" => theta = value(i).parse().expect("--theta"),
            "--ops" => ops = value(i).parse().expect("--ops"),
            "--span" => span = value(i).parse().expect("--span"),
            "--window-commits" => {
                acfg.window_commits = value(i).parse().expect("--window-commits");
                tuned = true;
            }
            "--hysteresis" => {
                acfg.hysteresis_windows = value(i).parse().expect("--hysteresis");
                tuned = true;
            }
            "--mix" => {
                let parts: Vec<u32> = value(i)
                    .split(',')
                    .map(|p| p.parse().expect("--mix R,W,S,M"))
                    .collect();
                assert_eq!(parts.len(), 4, "--mix wants R,W,S,M");
                mix = Mix {
                    read: parts[0],
                    write: parts[1],
                    scan: parts[2],
                    multi: parts[3],
                };
            }
            other => panic!("unknown flag {other:?}"),
        }
        i += 2;
    }
    if tuned && algo != Algorithm::Adaptive {
        eprintln!("note: controller flags only take effect with --algo adaptive");
    }

    let kv = ShardedKv::with_config(ServiceConfig {
        shards,
        algorithm: algo,
        adaptive: Some(acfg),
        ..ServiceConfig::default()
    });
    preload(&kv, keys, 100);
    let workload = Workload::new(WorkloadConfig {
        keys,
        zipf_theta: theta,
        mix,
        multi_span: span,
    });
    let mut stats = run_workload(&kv, &workload, threads, ops, 0x5eed);

    println!(
        "service: {algo:?} × {shards} shards, {threads} threads, {keys} keys (θ={theta}), \
         mix r/w/s/m = {}/{}/{}/{}",
        mix.read, mix.write, mix.scan, mix.multi
    );
    println!(
        "  {:.0} ops/s  ({} ops in {:.1} ms; {} reads, {} writes, {} scans, {} multis)",
        stats.ops_per_sec(),
        stats.ops,
        stats.nanos as f64 / 1e6,
        stats.reads,
        stats.writes,
        stats.scans,
        stats.multis,
    );
    println!(
        "  latency p50 = {} ns, p99 = {} ns",
        stats.latencies.percentile(50.0),
        stats.latencies.percentile(99.0),
    );
    let mut transitions = 0u64;
    let mut modes = Vec::new();
    for s in 0..kv.shard_count() {
        let snap = kv.shard_stats(s).snapshot();
        transitions += snap.mode_transitions;
        modes.push(snap.active_mode.to_string());
        println!("  shard {s}: {snap}");
    }
    println!(
        "  modes: {transitions} transitions; per shard = {}",
        modes.join(", ")
    );
}
