//! The attempt loop: retry-until-commit, contention-manager
//! consultation, the parking tier (both logical `retry` waits and
//! [`Decision::Park`] conflict escalations), and the adaptive
//! controller's commit-path hook.

use super::{RetriesExhausted, Retry, Stm, Transaction};
use crate::algo::adaptive;
use crate::cm::Decision;
use crate::tvar::{TVar, TxValue};
use crate::waiter::{WaitCell, CONFLICT_PARK_TIMEOUT, RETRY_PARK_TIMEOUT};

impl Stm {
    /// Runs `body` in a transaction, retrying on conflict until it
    /// commits, and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the retry budget runs out — `max_attempts` is reached
    /// (default: ten million) or the contention manager gives up. Use
    /// [`Stm::run`] to handle exhaustion as a value instead.
    pub fn atomically<A>(&self, body: impl FnMut(&mut Transaction<'_>) -> Result<A, Retry>) -> A {
        match self.run(body) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `body` in a transaction, retrying on conflict, and reports
    /// retry-budget exhaustion as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RetriesExhausted`] if `max_attempts` attempts all aborted or the
    /// contention manager returned [`Decision::GiveUp`].
    pub fn run<A>(
        &self,
        mut body: impl FnMut(&mut Transaction<'_>) -> Result<A, Retry>,
    ) -> Result<A, RetriesExhausted> {
        let mut attempt: u64 = 0;
        loop {
            // Each attempt draws its log from the thread's pool and its
            // drop returns it, so retries and back-to-back transactions
            // reuse the same vectors.
            let mut tx = Transaction::begin(self);
            let committed = match body(&mut tx) {
                Ok(out) if tx.commit() => Some(out),
                _ => None,
            };
            if let Some(out) = committed {
                // Drop before the controller hook: the adaptive sampler
                // may quiesce the instance, which must never wait on the
                // sampling thread's own (finished) transaction.
                drop(tx);
                self.stats.commit();
                adaptive::after_commit(self);
                return Ok(out);
            }
            tx.close_aborted();
            self.stats.abort();
            if tx.waiting() {
                // A logical wait (`tx.retry()`) is not contention: skip
                // the contention manager and the attempt budget, park on
                // the read footprint, and re-run when a writer overlaps
                // it.
                self.park_attempt(tx, false);
                continue;
            }
            attempt += 1;
            if attempt >= self.max_attempts {
                return Err(RetriesExhausted { attempts: attempt });
            }
            // Release visible-read locks *before* the contention manager
            // waits: backoff must not hold stripes other transactions
            // are trying to write.
            tx.release_read_locks();
            match self.cm.on_abort(attempt - 1) {
                Decision::Retry => drop(tx),
                Decision::Park => self.park_attempt(tx, true),
                Decision::GiveUp => return Err(RetriesExhausted { attempts: attempt }),
            }
        }
    }

    /// Parks an aborted attempt on its footprint's waiter lists until an
    /// overlapping commit (or a safety-net timeout) wakes it.
    ///
    /// Ordering is the whole point — register, *then* revalidate, *then*
    /// sleep: a writer that commits after registration finds the cell on
    /// the lists and notifies it; a writer that committed before
    /// registration shows up in the revalidation, which then skips the
    /// sleep. (The SeqCst fences pairing register's tail with
    /// `wake_stripes`' head close the remaining store-buffering window —
    /// see the proof in `crate::waiter`.) The transaction is dropped
    /// *before* sleeping so a parked thread pins no epoch,
    /// holds no Tlrw read locks (released *after* registration — the
    /// lock word itself orders any conflicting commit after our
    /// registration), blocks no adaptive mode switch, and anchors no Mv
    /// snapshot.
    fn park_attempt(&self, tx: Transaction<'_>, conflict: bool) {
        let stripes = tx.wait_stripes(conflict);
        let cell = WaitCell::for_thread();
        self.orecs.waiters().register(&stripes, &cell);
        let consistent = tx.revalidate_for_park();
        drop(tx);
        if consistent {
            self.stats.park();
            let timeout = if conflict {
                // A conflict park has a weaker wake guarantee (the winner
                // may already have committed and gone), so the safety net
                // is short.
                CONFLICT_PARK_TIMEOUT
            } else {
                RETRY_PARK_TIMEOUT
            };
            if !cell.park(timeout) {
                self.stats.spurious_wake();
            }
        }
        self.orecs.waiters().deregister(&stripes, &cell);
    }

    /// Runs `body` once, committing if it succeeds; returns `None` on
    /// conflict instead of retrying.
    pub fn try_once<A>(
        &self,
        body: impl FnOnce(&mut Transaction<'_>) -> Result<A, Retry>,
    ) -> Option<A> {
        let mut tx = Transaction::begin(self);
        let committed = match body(&mut tx) {
            Ok(out) if tx.commit() => Some(out),
            _ => {
                tx.close_aborted();
                None
            }
        };
        drop(tx);
        match committed {
            Some(out) => {
                self.stats.commit();
                adaptive::after_commit(self);
                Some(out)
            }
            None => {
                self.stats.abort();
                None
            }
        }
    }

    /// Reads a variable outside any transaction (single-variable
    /// snapshot).
    pub fn read_now<T: TxValue>(&self, var: &TVar<T>) -> T {
        var.load()
    }
}
