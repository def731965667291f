//! Durable-KV service benchmark: end-to-end metrics of `DurableKv`
//! under two workloads, and (with `--trace 1`) per-layer counts and a
//! layer ladder timed from outside. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//!           [--repeat N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--repeat N` instead runs the workload N times (seeds `seed..seed+N`)
//! in child processes and prints each metric's median, quartiles and
//! spread.

mod ladder;
mod run;
mod stats;
mod sys;
mod walbench;
mod workloads;

use stats::{median, percentile, quartiles, self_time, Histogram};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;
use workloads::{Kind, Spec};

/// Closed-loop client threads in every run. The bounds in
/// `BENCHMARK.json` were measured at this count only.
const CLIENTS: usize = 2;

/// An untraced run sets up its store at least `MIN_SETUPS` times, and
/// again while the set-ups have taken less than `SETUP_BUDGET`; the
/// median is reported. A small store sets up in milliseconds, and the
/// fsyncs in it cost more or less from second to second on a shared
/// disk, so its set-ups are spread over the whole budget.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Shares of `--seconds` a traced run gives its parts: the counted
/// end-to-end pass, each ladder rung, and the bare WAL.
const TRACE_MAIN_SHARE: f64 = 0.4;
const TRACE_RUNG_SHARE: f64 = 0.1;
const TRACE_WAL_SHARE: f64 = 0.1;

/// Cap on each client's ladder stream, bounding span memory.
const LADDER_MAX_OPS: u64 = 250_000;

#[derive(Debug)]
struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (1u64, 10u64, false, 0);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => {
                workload = Some(
                    Spec::by_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            "--repeat" => repeat = value.parse().map_err(bad)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
    })
}

/// Metrics in output order: name → (value, unit).
#[derive(Debug, Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn us(ns: Option<u32>) -> Option<f64> {
    ns.map(|n| f64::from(n) / 1000.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Where the stores live: inside the benchmark's own directory of the
/// checkout, so logs sit on the checkout's filesystem.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = sys::nproc();
    if CLIENTS > nproc {
        eprintln!(
            "perfbench: {CLIENTS} clients on {nproc} hardware threads would measure the \
             scheduler, not the store"
        );
        return ExitCode::from(2);
    }
    if args.repeat > 0 {
        return repeat(&args);
    }
    let work = work_dir();
    // Everything one run writes lives under `run_dir` and is deleted
    // after measuring (a set-up commits the deletion of the store before
    // it ahead of its timer; see `run::setup`), so no file deletion's
    // journal and discard work lands on the fsyncs being timed.
    let run_dir = work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    println!(
        "# workload={} seed={} seconds={} trace={} clients={} nproc={nproc} git_rev={} \
         log_dir={} log_fs={} sync_acks={} flush_every={:?} shards={} algorithm={:?}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        CLIENTS,
        sys::git_rev(root),
        run_dir.display(),
        sys::fs_type(&work),
        run::SYNC_ACKS,
        run::FLUSH_EVERY,
        workloads::SHARDS,
        args.workload.algorithm,
    );
    let (attempted, failed, metrics) = if args.trace {
        traced(&args, &run_dir, &work)
    } else {
        untraced(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    sys::settle(&work);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Closes the store, reopens it (recovering from its own snapshot and
/// logs) and checks the recovered store against `expected`. Returns the
/// seconds the reopen took and whether the check failed.
fn recover(spec: &Spec, store: &Path, kv: run::Store, expected: &[(u64, u64)]) -> (f64, bool) {
    drop(kv);
    let t0 = std::time::Instant::now();
    let kv = run::open(spec, store, run::SYNC_ACKS);
    let secs = t0.elapsed().as_secs_f64();
    (secs, run::sorted_scan(&kv) != expected)
}

/// Ops completed in `windows`, of every kind.
fn ops_in(windows: &[run::Samples]) -> u64 {
    windows.iter().flatten().map(Histogram::len).sum()
}

/// The measured share of transfers whose keys lie on two shards (a
/// 2PC); the rest commit on one shard.
fn transfer_line(t: &run::Tally) -> String {
    let done = t.completed[Kind::Transfer.index()];
    format!(
        "# transfers across two shards: {} of {done} ({:.3})",
        t.cross_shard,
        ratio(t.cross_shard, done)
    )
}

/// The end-to-end run: every metric a user of the store sees.
fn untraced(args: &Args, run_dir: &Path) -> (u64, u64, Metrics) {
    let spec = &args.workload;
    let mut kv = None;
    let store = run_dir.join("store");
    let mut setup_secs = Vec::new();
    let t0 = std::time::Instant::now();
    while setup_secs.len() < MIN_SETUPS || t0.elapsed() < SETUP_BUDGET {
        drop(kv.take());
        let (store_kv, secs) = run::setup(spec, &store);
        setup_secs.push(secs);
        kv = Some(store_kv);
    }
    let store = store.as_path();
    let kv = kv.expect("at least one set-up");
    // One extra window first, to warm caches and the allocator; it is
    // checked like the rest but left out of the reported figures.
    let out = run::drive(
        &kv,
        spec,
        args.seed,
        CLIENTS,
        run::WINDOW + Duration::from_secs(args.seconds),
    );
    kv.flush().expect("log flush failed");
    let closing = run::sorted_scan(&kv);
    let mut failed = out.tally.failures
        + u64::from(!run::scan_ok(
            closing.iter().map(|(_, v)| *v),
            spec.keys,
            !spec.runs(Kind::Put),
        ));
    let store_bytes = sys::dir_bytes(store);
    let user_bytes = spec.keys * Kind::Put.user_bytes() + out.tally.user_bytes();
    let rss = sys::peak_rss_mb();
    let (recovery_s, mismatch) = recover(spec, store, kv, &closing);
    failed += u64::from(mismatch);
    let attempted = out.tally.ops();

    // Full windows after the warm-up only: the last one holds just the
    // ops in flight at the deadline.
    let full = (args.seconds as f64 / run::WINDOW.as_secs_f64()) as usize;
    let windows = &out.tally.windows[1..(full + 1).min(out.tally.windows.len())];
    let mut m = Metrics::default();
    let mut report = Vec::new();
    let setup_s = median(&setup_secs).unwrap_or(f64::NAN);
    m.put("setup_s", setup_s, "s");
    report.push(format!(
        "setup_s {setup_s:.4} s (median of {})",
        setup_secs.len()
    ));
    // Every figure pools the whole measured span. The host's speed
    // changes from second to second (other tenants), at times in steps;
    // a median over per-second windows jumps when about half the windows
    // sit on each side of such a step, while pooled figures move in
    // proportion to the share of slow seconds.
    let measured = ops_in(windows);
    let measured_secs = windows.len() as f64 * run::WINDOW.as_secs_f64();
    let ops_per_s = measured as f64 / measured_secs;
    m.put("ops_per_s", ops_per_s, "1/s");
    report.push(format!(
        "# ops per {:?} window: {:?}",
        run::WINDOW,
        windows
            .iter()
            .map(|w| ops_in(std::slice::from_ref(w)))
            .collect::<Vec<_>>()
    ));
    report.push(format!(
        "ops_per_s {ops_per_s:.1} 1/s ({measured} ops in {measured_secs} s after the warm-up)"
    ));
    report.push(format!(
        "# ops per client, warm-up included: {:?}; each client pinned to a CPU of its own: {}",
        out.per_client, out.pinned
    ));
    for kind in Kind::ALL {
        let all = run::pooled(windows, kind);
        for p in [50.0, 99.0] {
            let name = format!("{}_p{}_us", kind.name(), p as u32);
            let value = all.percentile(p).map(|ns| ns / 1000.0);
            report.push(match value {
                Some(v) => format!("{name} {v:.3} us (n={})", all.len()),
                None => format!(
                    "{name} missing (n={}, fewer than 10 samples beyond it)",
                    all.len()
                ),
            });
            let role = match kind {
                Kind::Get => "get",
                k if k == spec.update => "update",
                _ => continue,
            };
            m.put(
                format!("{role}_p{}_us", p as u32),
                value.unwrap_or(f64::NAN),
                "us",
            );
        }
    }
    if spec.runs(Kind::Transfer) {
        report.push(transfer_line(&out.tally));
    }
    let log_ratio = ratio(store_bytes, user_bytes);
    m.put("log_bytes_per_user_byte", log_ratio, "ratio");
    m.put("peak_rss_mb", rss, "MiB");
    report.push(format!(
        "failed_frac {} ratio ({failed} of {attempted})",
        ratio(failed, attempted)
    ));
    // Printed, not in the JSON: see README.md for its spread.
    report.push(format!("recovery_s {recovery_s:.4} s"));
    report.push(format!(
        "log_bytes_per_user_byte {log_ratio:.4} ratio ({store_bytes} store bytes / {user_bytes} \
         key and value bytes written, preload included)"
    ));
    report.push(format!(
        "peak_rss_mb {rss:.1} MiB (at close, before recovery)"
    ));
    for line in report {
        println!("{line}");
    }
    (attempted, failed, m)
}

/// The traced run: engine, WAL and coordinator counts from a shorter
/// end-to-end pass, a bare WAL, and the layer ladder.
fn traced(args: &Args, run_dir: &Path, work: &Path) -> (u64, u64, Metrics) {
    let spec = &args.workload;
    let store = &run_dir.join("store");
    let total = args.seconds as f64;
    let (kv, _) = run::setup(spec, store);
    let base_bytes = sys::dir_bytes(store);
    let main_secs = total * TRACE_MAIN_SHARE;
    let out = run::drive(
        &kv,
        spec,
        args.seed,
        CLIENTS,
        Duration::from_secs_f64(main_secs),
    );
    kv.flush().expect("log flush failed");
    let closing = run::sorted_scan(&kv);
    let mut failed = out.tally.failures
        + u64::from(!run::scan_ok(
            closing.iter().map(|(_, v)| *v),
            spec.keys,
            !spec.runs(Kind::Put),
        ));
    let log_bytes = sys::dir_bytes(store).saturating_sub(base_bytes);
    let (_, mismatch) = recover(spec, store, kv, &closing);
    failed += u64::from(mismatch);
    let _ = std::fs::remove_dir_all(store);
    let mut attempted = out.tally.ops();
    let untraced_ops_per_s = out.tally.ops() as f64 / out.secs;

    let mut m = Metrics::default();
    let s = &out.stm;
    m.put(
        "stm.probes_per_read",
        ratio(s.validation_probes, s.reads),
        "ratio",
    );
    m.put(
        "stm.commit_ratio",
        ratio(s.commits, s.commits + s.aborts),
        "ratio",
    );
    m.put("stm.snapshot_reads", s.snapshot_reads as f64, "count");
    m.put("stm.chain_walk_steps", s.chain_walk_steps as f64, "count");
    m.put("stm.versions_retained", s.versions_retained as f64, "count");
    m.put("stm.mode_transitions", s.mode_transitions as f64, "count");
    m.put("stm.commits", s.commits as f64, "count");
    m.put("stm.aborts", s.aborts as f64, "count");
    m.put("stm.reads_per_commit", ratio(s.reads, s.commits), "ratio");
    m.put("stm.reader_conflicts", s.reader_conflicts as f64, "count");
    m.put("stm.parks", s.parks as f64, "count");
    m.put(
        "wal.records_per_fsync",
        ratio(s.group_commit_records, s.fsyncs),
        "ratio",
    );
    let bytes_per_record = ratio(log_bytes, s.log_appends);
    m.put("wal.bytes_per_record", bytes_per_record, "bytes");
    m.put("wal.log_appends", s.log_appends as f64, "count");
    m.put("wal.fsyncs", s.fsyncs as f64, "count");

    let mut wal = walbench::time_wal(
        &store.with_extension("wal"),
        walbench::payload_for(bytes_per_record.round() as usize),
        CLIENTS,
        Duration::from_secs_f64(total * TRACE_WAL_SHARE),
    );
    let wal_metrics = [
        ("wal.append_p50_us", percentile(&mut wal.append, 50.0)),
        ("wal.wait_durable_p50_us", percentile(&mut wal.wait, 50.0)),
        ("wal.wait_durable_p99_us", percentile(&mut wal.wait, 99.0)),
    ];
    for (name, v) in wal_metrics {
        m.put(name, us(v).unwrap_or(f64::NAN), "us");
    }

    let t = &out.tally;
    m.put(
        "kv.transfer_attempts_per_commit",
        ratio(
            out.attempts.transfer.load(Relaxed),
            t.completed[Kind::Transfer.index()],
        ),
        "ratio",
    );
    m.put(
        "kv.scan_attempts_per_scan",
        ratio(
            out.attempts.scan.load(Relaxed),
            t.completed[Kind::Scan.index()],
        ),
        "ratio",
    );

    if spec.runs(Kind::Transfer) {
        println!("{}", transfer_line(t));
    }

    // The ladder replays a prefix of the same streams, sized so the
    // `durable_buffered` rung (the counted pass's configuration) takes
    // about its share of the time.
    let mean_client_ops = out.per_client.iter().sum::<u64>() / out.per_client.len() as u64;
    let per_client = ((mean_client_ops as f64 * TRACE_RUNG_SHARE / TRACE_MAIN_SHARE) as u64)
        .clamp(1, LADDER_MAX_OPS);
    let streams = ladder::streams(spec, args.seed, CLIENTS, per_client);
    let lad = ladder::climb(
        spec,
        &streams,
        store,
        Duration::from_secs_f64(2.0 * total * TRACE_RUNG_SHARE),
    );
    failed += lad.failures;
    attempted += lad.ops.iter().sum::<u64>();
    let roles = [
        (Kind::Get, "get"),
        (spec.update, "update"),
        (Kind::Scan, "scan"),
    ];
    let mut p50 = BTreeMap::new();
    for (rung, name) in ladder::RUNGS.iter().enumerate() {
        for (kind, role) in roles {
            let mut d = ladder::durations(&lad.spans, rung, kind);
            let v = us(percentile(&mut d, 50.0));
            p50.insert((rung, role), v);
            m.put(
                format!("ladder.{name}.{role}_p50_us"),
                v.unwrap_or(0.0),
                "us",
            );
        }
    }
    for (i, layer) in ladder::SELF_NAMES.iter().enumerate() {
        for (_, role) in roles {
            let v = self_time(p50[&(i + 1, role)], p50[&(i, role)]);
            m.put(format!("self.{layer}.{role}_us"), v.unwrap_or(0.0), "us");
        }
    }
    // The rung with the end-to-end run's flush policy.
    let traced_ops_per_s = lad.ops[3] as f64 / lad.secs[3];
    m.put(
        "trace.overhead_frac",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
        "ratio",
    );
    let spans_path = work.join(format!("spans-{}.tsv", spec.name));
    if let Err(e) = ladder::write_spans(&lad.spans, &spans_path) {
        eprintln!("perfbench: write {}: {e}", spans_path.display());
    }
    println!(
        "# ladder: streams of {} ops per client; ops replayed per rung {:?} in seconds {:?}; spans in {}",
        per_client,
        lad.ops,
        lad.secs,
        spans_path.display()
    );
    for (name, v, unit) in &m.0 {
        println!("{name} {v} {unit}");
    }
    (attempted, failed, m)
}

/// Runs the workload `args.repeat` times in child processes and prints
/// each metric's median, quartiles and spread over the runs.
fn repeat(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut ok = true;
    for i in 0..args.repeat as u64 {
        let seed = args.seed + i;
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("perfbench: run with seed {seed} failed: {}", o.status);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        let last = stdout.lines().last().unwrap_or_default();
        println!("seed {seed}: {last}");
        for (name, value, unit) in parse_metrics(last) {
            values
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
    }
    println!("metric median q1 q3 iqr/median (max-min)/median unit runs");
    for (name, (v, unit)) in &values {
        let med = median(v).unwrap_or(f64::NAN);
        let (lo, hi) = v
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        match quartiles(v) {
            Some([q1, _, q3]) => println!(
                "{name} {med} {q1} {q3} {:.4} {:.4} {unit} {}",
                (q3 - q1) / med,
                (hi - lo) / med,
                v.len()
            ),
            None => println!(
                "{name} {med} missing missing missing missing {unit} {}",
                v.len()
            ),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics of one result line this program printed.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some((_, body)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let (value, rest) = rest.split_once(", \"unit\": \"")?;
            let unit = rest.split('"').next()?;
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_mode_reads_back_the_result_line() {
        let mut m = Metrics::default();
        m.put("ops_per_s", 1234.5, "1/s");
        m.put("get_p50_us", 0.25, "us");
        m.put("missing_us", f64::NAN, "us");
        let line = format!("{{\"correct\": true, \"metrics\": {}}}", m.json());
        assert_eq!(
            parse_metrics(&line),
            vec![
                ("ops_per_s".to_string(), 1234.5, "1/s".to_string()),
                ("get_p50_us".to_string(), 0.25, "us".to_string()),
            ]
        );
    }
}
