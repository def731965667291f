//! A bare `Wal` on the store's filesystem, timed from `clients` threads
//! appending records of the workload's size: the append and the
//! group-commit wait without the engine or the store around them.

use ptm_stm::wal::{codec, Wal};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Append and `wait_durable` latencies in nanoseconds.
#[derive(Debug, Default)]
pub struct WalTimes {
    pub append: Vec<u32>,
    pub wait: Vec<u32>,
}

/// The payload length whose framed record is closest to `framed` bytes.
pub fn payload_for(framed: usize) -> usize {
    framed.saturating_sub(codec::framed_len(0))
}

pub fn time_wal(path: &Path, payload_len: usize, clients: usize, duration: Duration) -> WalTimes {
    let _ = std::fs::remove_file(path);
    let wal = Wal::open(path).expect("open bare wal");
    let payload = vec![0x5a_u8; payload_len];
    let stamp = AtomicU64::new(1);
    let deadline = Instant::now() + duration;
    let per_client: Vec<WalTimes> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (wal, payload, stamp) = (&wal, &payload, &stamp);
                s.spawn(move || {
                    crate::sys::pin_thread(c);
                    let mut t = WalTimes::default();
                    loop {
                        let t0 = Instant::now();
                        let lsn = wal.append(stamp.fetch_add(1, Ordering::Relaxed), 0, payload);
                        let t1 = Instant::now();
                        wal.wait_durable(lsn).expect("bare wal fsync");
                        let t2 = Instant::now();
                        t.append.push((t1 - t0).as_nanos() as u32);
                        t.wait
                            .push((t2 - t1).as_nanos().min(u128::from(u32::MAX)) as u32);
                        if t2 >= deadline {
                            break t;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wal client"))
            .collect()
    });
    drop(wal);
    let _ = std::fs::remove_file(path);
    let mut out = WalTimes::default();
    for t in per_client {
        out.append.extend(t.append);
        out.wait.extend(t.wait);
    }
    out
}
