//! The algorithm-strategy layer: one module per validation algorithm,
//! three hooks each.
//!
//! The engine ([`crate::Stm`] / [`crate::Transaction`]) owns everything
//! algorithm-*independent* — the transaction log, the retry loop,
//! contention management, epoch pinning, history recording, statistics —
//! and delegates the algorithm-*specific* steps to this layer through
//! exactly three hooks, dispatched once each:
//!
//! | hook | contract |
//! |------|----------|
//! | `begin(tx)` | sample the snapshot time (clock, sequence lock, or nothing) at the transaction's first operation — and, for the adaptive controller, pin the attempt's mode |
//! | `read(tx, var) -> Result<VersionRef<T>, Retry>` | find the version consistent with every earlier read of the attempt — without copying it — recording whatever the commit hook needs (versioned read, value snapshot, or a held read lock) |
//! | `commit(tx) -> bool` | atomically publish the buffered write set or fail without trace; only called when the write set is non-empty |
//!
//! Read-only commits are generic: an attempt whose last read validated
//! (invisible-read algorithms), whose read locks are still held (Tlrw),
//! or whose every read resolved against its start-time snapshot (Mv) is
//! already serialized, so the engine commits it without calling back
//! in here. Likewise generic is read-lock release — the engine undoes
//! `TxLog::rw_reads` on every exit path, including `Drop`, so a panicking
//! body cannot leak a visible read's lock.
//!
//! Validation helpers shared between algorithms live in [`versioned`]
//! (orec version equality, used by Tl2 and Incremental) and in the
//! modules that own them; a new algorithm is one new module plus one
//! arm in each dispatch below — exactly how [`adaptive`] (the fifth)
//! arrived, composing the Tl2 and Tlrw hooks behind a mode controller,
//! and how [`mv`] (the sixth) arrived, swapping the read hook for a
//! version-chain snapshot walk and the commit hook for an appending
//! variant of the versioned path — neither touched the engine's generic
//! machinery.

pub(crate) mod adaptive;
pub(crate) mod incremental;
pub(crate) mod mv;
pub(crate) mod norec;
pub(crate) mod tl2;
pub(crate) mod tlrw;
pub(crate) mod versioned;

use crate::engine::{Algorithm, Retry, Transaction};
use crate::tvar::{TVar, TxValue, VersionRef};

/// Runs a locking commit body with the write set's stripes collected,
/// sorted, and deduplicated (several variables may share a stripe), and
/// with the log's recycled scratch buffers — restored cleared on every
/// exit path, so a retrying transaction reallocates nothing. Shared by
/// every stripe-locking commit hook (versioned and Tlrw).
fn with_write_stripes(
    tx: &mut Transaction<'_>,
    body: impl FnOnce(&mut Transaction<'_>, &[usize], &mut Vec<(usize, u64)>) -> bool,
) -> bool {
    let mut stripes = std::mem::take(&mut tx.log.stripe_buf);
    let mut held = std::mem::take(&mut tx.log.held_buf);
    stripes.extend(tx.log.writes.iter().map(|w| tx.stm.orecs.stripe_of(w.id)));
    stripes.sort_unstable();
    stripes.dedup();
    let ok = body(tx, &stripes, &mut held);
    stripes.clear();
    held.clear();
    tx.log.stripe_buf = stripes;
    tx.log.held_buf = held;
    ok
}

/// Begin hook: samples the algorithm's snapshot time into `tx.rv`
/// lazily at the attempt's first operation (and pins the adaptive
/// mode, where applicable).
pub(crate) fn begin(tx: &mut Transaction<'_>) {
    tx.rv = match tx.stm.algorithm {
        Algorithm::Tl2 => tl2::begin(tx.stm),
        Algorithm::Incremental => incremental::begin(tx.stm),
        Algorithm::Norec => norec::begin(tx.stm),
        Algorithm::Tlrw => tlrw::begin(tx.stm),
        Algorithm::Mv => mv::begin(tx),
        Algorithm::Adaptive => adaptive::begin(tx),
    };
}

/// Read hook: the algorithm-specific consistent-read path (the engine
/// has already consulted the write set). Returns the version the read
/// resolved to, uncopied; the engine lends it out by reference.
/// Dispatches on the *transaction's* resolved mode, so an adaptive
/// attempt costs exactly one match here — the same as a static instance.
pub(crate) fn read<'v, T: TxValue>(
    tx: &mut Transaction<'_>,
    var: &'v TVar<T>,
) -> Result<VersionRef<'v, T>, Retry> {
    match tx.mode {
        Algorithm::Tl2 => tl2::read(tx, var),
        Algorithm::Incremental => incremental::read(tx, var),
        Algorithm::Norec => norec::read(tx, var),
        Algorithm::Tlrw => tlrw::read(tx, var),
        Algorithm::Mv => mv::read(tx, var),
        Algorithm::Adaptive => unreachable!("adaptive begin pins Tl2 or Tlrw as the mode"),
    }
}

/// Commit hook: publish the (non-empty) write set atomically, or fail
/// leaving shared state untouched.
pub(crate) fn commit(tx: &mut Transaction<'_>) -> bool {
    match tx.mode {
        Algorithm::Tl2 => tl2::commit(tx),
        Algorithm::Incremental => incremental::commit(tx),
        Algorithm::Norec => norec::commit(tx),
        Algorithm::Tlrw => tlrw::commit(tx),
        Algorithm::Mv => mv::commit(tx),
        Algorithm::Adaptive => unreachable!("adaptive begin pins Tl2 or Tlrw as the mode"),
    }
}
