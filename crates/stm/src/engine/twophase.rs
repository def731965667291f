//! Two-phase commit surface: [`Transaction::prepare_commit`] splits a
//! commit into its *prepare* half (acquire the commit locks, validate —
//! everything that can fail) and its *publish* half (write back and
//! release — infallible), so a coordinator can hold several instances'
//! prepares open and publish them together.
//!
//! This is what makes a **cross-instance atomic commit** possible
//! without any new global metadata: each [`Stm`] keeps its own clock and
//! orec table, and a coordinator that prepares every instance before
//! publishing any reuses each algorithm's single-instance commit
//! protocol unchanged — the stripe locks (or NOrec's sequence lock) a
//! prepare acquires are exactly the locks the one-shot commit would have
//! held across its own publish, just held a little longer.
//!
//! ## Why a multi-instance commit is never observed torn
//!
//! An updating coordinator holds **every** instance's commit locks from
//! before its first publish until after that instance's own publish. A
//! reader that could observe instance *i* post-publish and instance *j*
//! pre-publish must therefore get its reads of *j* past metadata the
//! coordinator still owns:
//!
//! * **Tl2 / Incremental / Mv** — the *j*-stripes are either still
//!   locked (read/validation fails on the lock bit) or already
//!   restamped past the reader's snapshot (version check fails). A
//!   reader that validates *every* instance after reading all of them
//!   — which is exactly what a read-only [`prepare_commit`] does —
//!   cannot pass both checks on a torn cut.
//! * **NOrec** — the *j*-instance's sequence lock is odd (held) until
//!   its publish, so value validation spins until the publish lands
//!   and then sees the changed values.
//! * **Tlrw** — visible read locks exclude the coordinator's prepare
//!   physically: a reader holding any conflicting stripe's read lock
//!   blocks the whole multi-instance commit from reaching its first
//!   publish, so there is no window to tear.
//!
//! Deadlock freedom is the coordinator's obligation: prepare instances
//! in one global order (`ptm-server` uses ascending shard index). The
//! stripe-locking prepares are try-lock fail-fast — they never wait —
//! and NOrec's sequence-lock spin only waits on a holder that either
//! publishes promptly or aborts; with one prepare order there is no
//! cycle to wait on.
//!
//! [`prepare_commit`]: Transaction::prepare_commit

use super::{Algorithm, Retry, Stm, Transaction};
use crate::algo::{adaptive, mv, norec, tlrw, versioned};
use ptm_sim::{TOpDesc, TOpResult};

/// A successfully prepared commit: locks held, validation passed, nothing
/// published. Consume it with [`Transaction::commit_prepared`] (publish)
/// or [`Transaction::abort_prepared`] (undo); dropping it without either
/// **leaks the held commit locks** and will wedge the instance — the
/// type is `#[must_use]` to make that hard to do by accident.
#[must_use = "a prepared commit holds the instance's commit locks; publish or abort it"]
#[derive(Debug)]
pub struct Prepared {
    plan: Plan,
    /// Identity of the instance that prepared this commit, for the
    /// debug-mode guard against crossing `Prepared` tokens between
    /// shards. Never dereferenced.
    stm: *const Stm,
}

/// What the publish/abort half must do, per algorithm family.
#[derive(Debug)]
enum Plan {
    /// No writes: the prepare-time validation was the serialization
    /// point; nothing is locked and nothing needs publishing.
    ReadOnly,
    /// Versioned stripe locks held (Tl2/Incremental when `mv` is false,
    /// Mv when true — Mv publishes by appending versions instead of
    /// swapping values).
    Versioned {
        stripes: Vec<usize>,
        held: Vec<(usize, u64)>,
        mv: bool,
    },
    /// Tlrw write locks held; `held` entries are `(stripe, was_read)`.
    Tlrw {
        stripes: Vec<usize>,
        held: Vec<(usize, u64)>,
    },
    /// The instance's sequence lock is held (clock parked at the odd
    /// `rv + 1`).
    Norec,
}

impl Stm {
    /// Begins a transaction whose attempt loop the *caller* drives —
    /// the manual counterpart of [`Stm::atomically`], for coordinators
    /// that need to hold the commit open across instances (see
    /// [`Transaction::prepare_commit`]).
    ///
    /// The caller owns the outcome: finish with
    /// [`Transaction::prepare_commit`] +
    /// [`Transaction::commit_prepared`] / [`Transaction::abort_prepared`],
    /// or discard with [`Transaction::rollback`]. There is no automatic
    /// retry — on [`Retry`] build a fresh transaction and re-run the
    /// reads/writes.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::tl2();
    /// let v = TVar::new(1u64);
    /// let mut tx = stm.transaction();
    /// let seen = tx.read(&v).unwrap();
    /// tx.write(&v, seen + 1).unwrap();
    /// let prepared = tx.prepare_commit().unwrap();
    /// tx.commit_prepared(prepared);
    /// assert_eq!(v.load(), 2);
    /// ```
    pub fn transaction(&self) -> Transaction<'_> {
        Transaction::begin(self)
    }
}

impl Transaction<'_> {
    /// First commit half: acquire this attempt's commit locks and
    /// validate its read set, publishing nothing. On `Ok` the attempt
    /// holds whatever its algorithm's commit would hold across the write
    /// back (write-stripe locks, the sequence lock, Tlrw's still-held
    /// read locks) and *cannot fail anymore* — the returned [`Prepared`]
    /// must be resolved promptly with [`Transaction::commit_prepared`]
    /// or [`Transaction::abort_prepared`], since other transactions
    /// conflict against the held locks in the meantime.
    ///
    /// A read-only attempt acquires nothing but **revalidates its whole
    /// read set** (where the algorithm has anything to validate) — that
    /// re-check at prepare time is what lets a coordinator rule out torn
    /// cuts across instances (see the module docs).
    ///
    /// # Errors
    ///
    /// [`Retry`] if the locks could not be acquired or validation found
    /// a conflicting commit. The attempt is poisoned and its acquired
    /// locks are already rolled back; drop it or [`Transaction::rollback`]
    /// it and start over.
    pub fn prepare_commit(&mut self) -> Result<Prepared, Retry> {
        if self.poisoned {
            return Err(Retry);
        }
        self.ensure_started();
        self.rec_invoke(TOpDesc::TryCommit);
        match self.prepare_raw() {
            Some(plan) => Ok(Prepared {
                plan,
                stm: self.stm as *const Stm,
            }),
            None => {
                // Mirror a failed `commit`: the attempt is dead, its
                // history marker closes aborted, and the failure counts.
                self.rec_respond(TOpDesc::TryCommit, TOpResult::Aborted);
                self.poisoned = true;
                self.release_read_locks();
                self.stm.stats.abort();
                Err(Retry)
            }
        }
    }

    /// The per-algorithm prepare dispatch; `None` means the attempt
    /// aborted with every acquired lock already rolled back.
    fn prepare_raw(&mut self) -> Option<Plan> {
        if self.log.writes.is_empty() {
            let ok = match self.mode {
                Algorithm::Tl2 | Algorithm::Incremental => versioned::validate(self, None).is_ok(),
                Algorithm::Mv => mv::validate(self, &[]).is_ok(),
                Algorithm::Norec => match norec::validate(self) {
                    Ok(t) => {
                        self.rv = t;
                        true
                    }
                    Err(Retry) => false,
                },
                // Visible reads still hold their stripe locks: no writer
                // can have committed past them. (Unpinned Adaptive has
                // read nothing.)
                Algorithm::Tlrw | Algorithm::Adaptive => true,
            };
            return ok.then_some(Plan::ReadOnly);
        }
        let mut stripes: Vec<usize> = self
            .log
            .writes
            .iter()
            .map(|w| self.stm.orecs.stripe_of(w.id))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mut held = Vec::with_capacity(stripes.len());
        match self.mode {
            Algorithm::Tl2 | Algorithm::Incremental => {
                versioned::prepare_with(self, &stripes, &mut held).then_some(Plan::Versioned {
                    stripes,
                    held,
                    mv: false,
                })
            }
            Algorithm::Mv => {
                mv::prepare_with(self, &stripes, &mut held).then_some(Plan::Versioned {
                    stripes,
                    held,
                    mv: true,
                })
            }
            Algorithm::Tlrw => tlrw::prepare_with(self, &stripes, &mut held)
                .then_some(Plan::Tlrw { stripes, held }),
            Algorithm::Norec => norec::acquire_seqlock(self).then_some(Plan::Norec),
            Algorithm::Adaptive => unreachable!("adaptive begin pins Tl2 or Tlrw as the mode"),
        }
    }

    /// Second commit half: publish the write set under the locks
    /// `prepared` holds, release everything, and retire the transaction
    /// as committed. Infallible — [`Transaction::prepare_commit`]
    /// already decided the outcome.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `prepared` came from a different [`Stm`]
    /// instance's transaction.
    pub fn commit_prepared(mut self, prepared: Prepared) {
        debug_assert!(
            std::ptr::eq(prepared.stm, self.stm),
            "Prepared token crossed between Stm instances"
        );
        match prepared.plan {
            Plan::ReadOnly => {}
            Plan::Versioned { stripes, held, mv } => {
                if mv {
                    mv::publish_with(&mut self, &stripes, &held);
                } else {
                    versioned::publish_with(&mut self, &stripes, &held);
                }
            }
            Plan::Tlrw { stripes, held } => tlrw::publish_with(&mut self, &stripes, &held),
            Plan::Norec => norec::publish_locked(&mut self),
        }
        self.release_read_locks();
        self.rec_respond(TOpDesc::TryCommit, TOpResult::Committed);
        let stm = self.stm;
        // Drop before the controller hook, as in the attempt loop: the
        // adaptive sampler may quiesce the instance, which must never
        // wait on this (finished) transaction.
        drop(self);
        stm.stats.commit();
        adaptive::after_commit(stm);
    }

    /// Abandons a prepared commit: every lock `prepared` holds is
    /// released to its pre-prepare state — other transactions observe
    /// nothing — and the attempt retires as aborted. A coordinator calls
    /// this on instances that prepared successfully when a later
    /// instance's prepare failed.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `prepared` came from a different [`Stm`]
    /// instance's transaction.
    pub fn abort_prepared(mut self, prepared: Prepared) {
        debug_assert!(
            std::ptr::eq(prepared.stm, self.stm),
            "Prepared token crossed between Stm instances"
        );
        match prepared.plan {
            Plan::ReadOnly => {}
            Plan::Versioned { held, .. } => versioned::release(&self, &held, None),
            Plan::Tlrw { held, .. } => tlrw::rollback(&mut self, &held),
            Plan::Norec => norec::release_seqlock(&self),
        }
        self.release_read_locks();
        self.rec_respond(TOpDesc::TryCommit, TOpResult::Aborted);
        let stm = self.stm;
        drop(self);
        stm.stats.abort();
    }

    /// Abandons an unprepared transaction: nothing was published, so
    /// this only closes the attempt (read locks released, history marker
    /// closed aborted, abort counted). Equivalent to dropping it, plus
    /// the bookkeeping the attempt loop would have done.
    pub fn rollback(mut self) {
        self.close_aborted();
        let stm = self.stm;
        drop(self);
        stm.stats.abort();
    }
}
