//! The workloads and the op kinds they draw. `README.md` in this
//! directory gives the reason for each shape.

use ptm_server::{Mix, ServiceConfig, Workload, WorkloadConfig, WorkloadOp};
use ptm_stm::Algorithm;

/// Every key is preloaded to this value; transfers keep the total at
/// `keys * INITIAL`.
pub const INITIAL: u64 = 100;

/// The op kinds the recorders keep apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Transfer,
    Scan,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Transfer, Kind::Scan];

    pub fn of(op: &WorkloadOp) -> Kind {
        match op {
            WorkloadOp::Read(_) => Kind::Get,
            WorkloadOp::Write(..) => Kind::Put,
            WorkloadOp::Multi(_) => Kind::Transfer,
            WorkloadOp::Scan => Kind::Scan,
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Transfer => "transfer",
            Kind::Scan => "scan",
        }
    }

    /// Bytes of keys and values one op of this kind asks the store to
    /// write (the denominator of `log_bytes_per_user_byte`).
    pub fn user_bytes(self) -> u64 {
        match self {
            Kind::Put => 16,
            Kind::Transfer => 32,
            Kind::Get | Kind::Scan => 0,
        }
    }
}

/// One workload: the store geometry plus the op mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub keys: u64,
    pub buckets_per_shard: usize,
    pub algorithm: Algorithm,
    pub mix: Mix,
    /// The one op kind that writes. The machine-readable metrics name
    /// its latency `update_*`, so every workload reports the same keys.
    pub update: Kind,
}

pub const SHARDS: usize = 4;
pub const THETA: f64 = 0.99;

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "ycsb_b_large",
        keys: 1 << 20,
        buckets_per_shard: 16_384,
        algorithm: Algorithm::Tl2,
        mix: Mix {
            read: 95,
            write: 5,
            scan: 0,
            multi: 0,
        },
        update: Kind::Put,
    },
    Spec {
        name: "scan_transfer",
        keys: 4096,
        buckets_per_shard: 64,
        algorithm: Algorithm::Adaptive,
        mix: Mix {
            read: 85,
            write: 0,
            scan: 10,
            multi: 5,
        },
        update: Kind::Transfer,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    pub fn service(&self) -> ServiceConfig {
        ServiceConfig {
            shards: SHARDS,
            algorithm: self.algorithm,
            buckets_per_shard: self.buckets_per_shard,
            adaptive: None,
        }
    }

    pub fn workload(&self) -> Workload {
        Workload::new(WorkloadConfig {
            keys: self.keys,
            zipf_theta: THETA,
            mix: self.mix,
            multi_span: 2,
        })
    }

    /// Whether the mix draws ops of `kind` at all.
    pub fn runs(&self, kind: Kind) -> bool {
        let m = &self.mix;
        match kind {
            Kind::Get => m.read > 0,
            Kind::Put => m.write > 0,
            Kind::Transfer => m.multi > 0,
            Kind::Scan => m.scan > 0,
        }
    }
}

/// Client `client`'s generator state for `seed`: every run with the same
/// seed replays the same per-client op streams.
pub fn stream_state(seed: u64, client: usize) -> u64 {
    let mut z = seed
        .wrapping_add((client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}
