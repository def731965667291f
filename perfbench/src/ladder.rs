//! The layer ladder: one seeded op stream replayed on five rungs, each
//! adding one layer on top of the rung below, every op recorded as a
//! span from the benchmark's own code around the call into the layer.
//! A layer's self time is its rung's latency minus the rung below.

use crate::run::{self, Attempts};
use crate::workloads::{stream_state, Kind, Spec, INITIAL, SHARDS};
use ptm_server::{ShardedKv, WorkloadOp};
use ptm_stm::{Stm, TVar};
use ptm_structs::THashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// The rungs, bottom up.
pub const RUNGS: [&str; 5] = ["engine", "map", "kv", "durable_buffered", "durable_sync"];

/// The layer each rung adds over the one below (`SELF_NAMES[i]` is
/// rung `i + 1` minus rung `i`).
pub const SELF_NAMES: [&str; 4] = ["map", "kv", "durability", "wal_wait"];

/// One op on one rung. `op` is shared by the same op on every rung.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub rung: u8,
    pub kind: Kind,
    /// Nanoseconds since the ladder's origin.
    pub start: u64,
    pub end: u64,
}

/// What a rung's scan returned, in the layer's own shape; checked
/// after the span ends.
enum Scanned {
    Values(Vec<u64>),
    Entries(Vec<(u64, u64)>),
}

impl Scanned {
    fn ok(self, keys: u64, check_total: bool) -> bool {
        match self {
            Scanned::Values(v) => run::scan_ok(v.into_iter(), keys, check_total),
            Scanned::Entries(e) => run::scan_ok(e.into_iter().map(|(_, v)| v), keys, check_total),
        }
    }
}

/// A store one rung exposes; each call is one timed op. The point ops
/// return whether their result passed its check.
trait Rung: Sync {
    fn get(&self, key: u64) -> bool;
    fn put(&self, key: u64, value: u64) -> bool;
    fn transfer(&self, keys: &[u64]) -> bool;
    fn scan(&self) -> Scanned;
    /// The store a background flusher must keep durable while this rung
    /// runs, as in the end-to-end run.
    fn flushed(&self) -> Option<&run::Store> {
        None
    }
}

/// Bottom rung: one `Stm`, one `TVar` per key.
struct Engine {
    stm: Stm,
    vars: Vec<TVar<u64>>,
}

impl Rung for Engine {
    fn get(&self, key: u64) -> bool {
        let v = &self.vars[key as usize];
        std::hint::black_box(self.stm.atomically(|tx| tx.read(v)));
        true
    }
    fn put(&self, key: u64, value: u64) -> bool {
        let v = &self.vars[key as usize];
        self.stm.atomically(|tx| {
            let prev = tx.read(v)?;
            tx.write(v, value)?;
            Ok(prev)
        });
        true
    }
    fn transfer(&self, keys: &[u64]) -> bool {
        let (a, b) = (&self.vars[keys[0] as usize], &self.vars[keys[1] as usize]);
        self.stm.atomically(|tx| {
            let (from, to) = (tx.read(a)?, tx.read(b)?);
            let moved = from.min(1);
            tx.write(a, from - moved)?;
            tx.write(b, to + moved)
        });
        true
    }
    fn scan(&self) -> Scanned {
        Scanned::Values(
            self.stm
                .atomically(|tx| self.vars.iter().map(|v| tx.read(v)).collect()),
        )
    }
}

/// One `Stm` and one `THashMap` with every shard's buckets.
struct Map {
    stm: Stm,
    map: THashMap<u64, u64>,
}

impl Rung for Map {
    fn get(&self, key: u64) -> bool {
        self.stm.atomically(|tx| self.map.get(tx, &key)).is_some()
    }
    fn put(&self, key: u64, value: u64) -> bool {
        self.stm
            .atomically(|tx| self.map.insert(tx, key, value))
            .is_some()
    }
    fn transfer(&self, keys: &[u64]) -> bool {
        self.stm.atomically(|tx| {
            let (Some(from), Some(to)) = (self.map.get(tx, &keys[0])?, self.map.get(tx, &keys[1])?)
            else {
                return Ok(false);
            };
            let moved = from.min(1);
            self.map.insert(tx, keys[0], from - moved)?;
            self.map.insert(tx, keys[1], to + moved)?;
            Ok(true)
        })
    }
    fn scan(&self) -> Scanned {
        Scanned::Entries(self.stm.atomically(|tx| self.map.snapshot(tx)))
    }
}

impl Rung for ShardedKv<u64, u64> {
    fn get(&self, key: u64) -> bool {
        ShardedKv::get(self, &key).is_some()
    }
    fn put(&self, key: u64, value: u64) -> bool {
        ShardedKv::put(self, key, value).is_some()
    }
    fn transfer(&self, keys: &[u64]) -> bool {
        self.transact(|tx| {
            let (Some(from), Some(to)) = (tx.get(&keys[0])?, tx.get(&keys[1])?) else {
                return Ok(false);
            };
            let moved = from.min(1);
            tx.put(keys[0], from - moved)?;
            tx.put(keys[1], to + moved)?;
            Ok(true)
        })
    }
    fn scan(&self) -> Scanned {
        Scanned::Entries(ShardedKv::scan(self))
    }
}

/// The durable rungs, counting attempts like the end-to-end run does.
struct Durable {
    kv: run::Store,
    sync_acks: bool,
    attempts: Attempts,
}

impl Rung for Durable {
    fn get(&self, key: u64) -> bool {
        self.kv.get(&key).is_some()
    }
    fn put(&self, key: u64, value: u64) -> bool {
        self.kv.put(key, value).is_some()
    }
    fn transfer(&self, keys: &[u64]) -> bool {
        run::transfer(&self.kv, keys, &self.attempts.transfer)
    }
    fn scan(&self) -> Scanned {
        Scanned::Entries(run::scan(&self.kv, &self.attempts.scan))
    }
    fn flushed(&self) -> Option<&run::Store> {
        (!self.sync_acks).then_some(&self.kv)
    }
}

fn engine(spec: &Spec) -> Engine {
    Engine {
        stm: Stm::new(spec.algorithm),
        vars: (0..spec.keys).map(|_| TVar::new(INITIAL)).collect(),
    }
}

fn map(spec: &Spec) -> Map {
    let m = Map {
        stm: Stm::new(spec.algorithm),
        map: THashMap::with_buckets(SHARDS * spec.buckets_per_shard),
    };
    let keys: Vec<u64> = (0..spec.keys).collect();
    for batch in keys.chunks(4096) {
        m.stm.atomically(|tx| {
            for &k in batch {
                m.map.insert(tx, k, INITIAL)?;
            }
            Ok(())
        });
    }
    m
}

fn kv(spec: &Spec) -> ShardedKv<u64, u64> {
    let kv = ShardedKv::with_config(spec.service());
    let mut by_shard = vec![Vec::new(); kv.shard_count()];
    for k in 0..spec.keys {
        by_shard[kv.shard_of(&k)].push(k);
    }
    for batch in by_shard.iter().flat_map(|keys| keys.chunks(4096)) {
        kv.transact(|tx| {
            for &k in batch {
                tx.put(k, INITIAL)?;
            }
            Ok(())
        });
    }
    kv
}

/// The first `ops_per_client` ops of each client's seeded stream — the
/// prefix of the stream the end-to-end run with the same seed replays.
pub fn streams(
    spec: &Spec,
    seed: u64,
    clients: usize,
    ops_per_client: u64,
) -> Vec<Vec<WorkloadOp>> {
    let workload = spec.workload();
    (0..clients)
        .map(|c| {
            let mut state = stream_state(seed, c);
            (0..ops_per_client)
                .map(|_| workload.next_op(&mut state))
                .collect()
        })
        .collect()
}

/// What the ladder measured.
#[derive(Debug, Default)]
pub struct Ladder {
    pub spans: Vec<Span>,
    /// Wall seconds each rung took to replay the stream.
    pub secs: [f64; 5],
    pub failures: u64,
    /// Ops each rung replayed.
    pub ops: [u64; 5],
}

/// Replays `streams` on every rung in turn. A rung still replaying at
/// `limit` stops there, having replayed a prefix of the same streams
/// (the sync-ack rung waits on the disk for every update). `dir` holds
/// the durable rungs' stores.
pub fn climb(spec: &Spec, streams: &[Vec<WorkloadOp>], dir: &Path, limit: Duration) -> Ladder {
    let mut out = Ladder::default();
    let origin = Instant::now();
    for (i, name) in RUNGS.iter().enumerate() {
        let rung: Box<dyn Rung> = match *name {
            "engine" => Box::new(engine(spec)),
            "map" => Box::new(map(spec)),
            "kv" => Box::new(kv(spec)),
            _ => {
                let sync_acks = *name == "durable_sync";
                let (mut kv, _) = run::setup(spec, dir);
                if sync_acks != run::SYNC_ACKS {
                    drop(kv);
                    kv = run::open(spec, dir, sync_acks);
                }
                Box::new(Durable {
                    kv,
                    sync_acks,
                    attempts: Attempts::default(),
                })
            }
        };
        let t0 = Instant::now();
        let (spans, failures) = run::with_flusher(rung.flushed(), || {
            replay(rung.as_ref(), spec, streams, i as u8, origin, t0 + limit)
        });
        out.secs[i] = t0.elapsed().as_secs_f64();
        out.ops[i] = spans.len() as u64;
        out.spans.extend(spans);
        out.failures += failures;
        drop(rung);
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

fn replay(
    rung: &dyn Rung,
    spec: &Spec,
    streams: &[Vec<WorkloadOp>],
    index: u8,
    origin: Instant,
    deadline: Instant,
) -> (Vec<Span>, u64) {
    let check_total = !spec.runs(Kind::Put);
    let results: Vec<(Vec<Span>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                s.spawn(move || {
                    crate::sys::pin_thread(c);
                    let mut spans = Vec::with_capacity(ops.len());
                    let mut failures = 0;
                    for (seq, op) in ops.iter().enumerate() {
                        let start = origin.elapsed().as_nanos() as u64;
                        let mut scanned = None;
                        let ok = match op {
                            WorkloadOp::Read(k) => rung.get(*k),
                            WorkloadOp::Write(k, v) => rung.put(*k, *v),
                            WorkloadOp::Multi(keys) => rung.transfer(keys),
                            WorkloadOp::Scan => {
                                scanned = Some(rung.scan());
                                true
                            }
                        };
                        let now = Instant::now();
                        let end = (now - origin).as_nanos() as u64;
                        let ok = ok && scanned.is_none_or(|s| s.ok(spec.keys, check_total));
                        failures += u64::from(!ok);
                        spans.push(Span {
                            op: ((c as u64) << 40) | seq as u64,
                            rung: index,
                            kind: Kind::of(op),
                            start,
                            end,
                        });
                        if now >= deadline {
                            break;
                        }
                    }
                    (spans, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder client"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut failures = 0;
    for (s, f) in results {
        spans.extend(s);
        failures += f;
    }
    (spans, failures)
}

/// Writes the spans as tab-separated lines: op id, rung, kind, start
/// and end in nanoseconds since the ladder began.
pub fn write_spans(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op\trung\tkind\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.op,
            RUNGS[s.rung as usize],
            s.kind.name(),
            s.start,
            s.end
        )?;
    }
    w.flush()
}

/// Span durations in nanoseconds on `rung` for ops of `kind`.
pub fn durations(spans: &[Span], rung: usize, kind: Kind) -> Vec<u32> {
    spans
        .iter()
        .filter(|s| s.rung as usize == rung && s.kind == kind)
        .map(|s| (s.end - s.start).min(u64::from(u32::MAX)) as u32)
        .collect()
}
