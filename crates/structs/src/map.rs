//! A bucket-striped transactional hash map.

use ptm_stm::{Retry, TVar, Transaction, TxValue};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default number of buckets (power of two).
const DEFAULT_BUCKETS: usize = 64;

/// A transactional hash map, striped across a fixed set of buckets.
///
/// Each bucket is one `TVar` holding a small association list, so two
/// transactions conflict only when their keys share a bucket: disjoint
/// keys commit in parallel, which is the disjoint-access-parallel
/// behaviour the paper's model prices. More buckets mean fewer false
/// conflicts; the count is fixed at construction (no transactional
/// resize), so size it for the expected key population.
///
/// `len` is computed by scanning the buckets rather than kept in a
/// counter `TVar`: a shared counter would serialize every insert/remove
/// pair on one hot variable and destroy the parallelism striping buys.
///
/// # Examples
///
/// ```
/// use ptm_stm::Stm;
/// use ptm_structs::THashMap;
///
/// let stm = Stm::tl2();
/// let m: THashMap<String, u64> = THashMap::new();
/// stm.atomically(|tx| {
///     m.insert(tx, "a".into(), 1)?;
///     m.insert(tx, "b".into(), 2)
/// });
/// assert_eq!(stm.atomically(|tx| m.get(tx, &"a".into())), Some(1));
/// assert_eq!(stm.atomically(|tx| m.len(tx)), 2);
/// ```
pub struct THashMap<K, V> {
    buckets: Arc<[Bucket<K, V>]>,
}

/// One bucket: a small association list behind a single `TVar`.
type Bucket<K, V> = TVar<Vec<(K, V)>>;

impl<K, V> Clone for THashMap<K, V> {
    fn clone(&self) -> Self {
        THashMap {
            buckets: Arc::clone(&self.buckets),
        }
    }
}

impl<K, V> fmt::Debug for THashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("THashMap")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<K: TxValue + Hash + Eq, V: TxValue> Default for THashMap<K, V> {
    fn default() -> Self {
        THashMap::new()
    }
}

impl<K: TxValue + Hash + Eq, V: TxValue> THashMap<K, V> {
    /// A map with the default bucket count (64).
    pub fn new() -> Self {
        THashMap::with_buckets(DEFAULT_BUCKETS)
    }

    /// A map striped across `n` buckets (rounded up to a power of two,
    /// minimum 1).
    pub fn with_buckets(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        THashMap {
            buckets: (0..n).map(|_| TVar::new(Vec::new())).collect(),
        }
    }

    /// Number of buckets (fixed at construction).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, key: &K) -> &Bucket<K, V> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.buckets[(h.finish() as usize) & (self.buckets.len() - 1)]
    }

    /// The value for `key`, if present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn get(&self, tx: &mut Transaction<'_>, key: &K) -> Result<Option<V>, Retry> {
        // Borrow the bucket in place: only the matched value is cloned.
        let bucket = tx.read_ref(self.bucket_of(key))?;
        Ok(bucket
            .iter()
            .find_map(|(k, v)| (k == key).then(|| v.clone())))
    }

    /// Whether `key` is present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn contains_key(&self, tx: &mut Transaction<'_>, key: &K) -> Result<bool, Retry> {
        Ok(self.get(tx, key)?.is_some())
    }

    /// The value for `key`, **blocking** (via [`Transaction::retry`])
    /// until some transaction inserts it: the waiter parks on the key's
    /// bucket stripe and re-runs when a commit touches it. Use
    /// [`THashMap::get`]'s `Ok(None)` when absence is an answer rather
    /// than a reason to wait.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict, and whenever `key` is absent (the engine
    /// turns that into a parked wait).
    pub fn get_wait(&self, tx: &mut Transaction<'_>, key: &K) -> Result<V, Retry> {
        match self.get(tx, key)? {
            Some(v) => Ok(v),
            None => tx.retry(),
        }
    }

    /// Inserts `key -> value`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn insert(&self, tx: &mut Transaction<'_>, key: K, value: V) -> Result<Option<V>, Retry> {
        let var = self.bucket_of(&key);
        let mut bucket = tx.read(var)?;
        let old = match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => Some(std::mem::replace(&mut entry.1, value)),
            None => {
                bucket.push((key, value));
                None
            }
        };
        tx.write(var, bucket)?;
        Ok(old)
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn remove(&self, tx: &mut Transaction<'_>, key: &K) -> Result<Option<V>, Retry> {
        let var = self.bucket_of(key);
        let mut bucket = tx.read(var)?;
        match bucket.iter().position(|(k, _)| k == key) {
            Some(i) => {
                let (_, v) = bucket.swap_remove(i);
                tx.write(var, bucket)?;
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Number of entries (scans every bucket; the whole map joins the
    /// read set).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn len(&self, tx: &mut Transaction<'_>) -> Result<usize, Retry> {
        let mut n = 0;
        for b in self.buckets.iter() {
            n += tx.read_ref(b)?.len();
        }
        Ok(n)
    }

    /// Whether the map has no entries (scans every bucket).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn is_empty(&self, tx: &mut Transaction<'_>) -> Result<bool, Retry> {
        for b in self.buckets.iter() {
            if !tx.read_ref(b)?.is_empty() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// A consistent snapshot of every entry, in unspecified order.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn snapshot(&self, tx: &mut Transaction<'_>) -> Result<Vec<(K, V)>, Retry> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            out.extend_from_slice(tx.read_ref(b)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_stm::{Algorithm, Stm};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// All six algorithms: `get_wait`'s park/wake path must work under
    /// visible reads (Tlrw), mode switching (Adaptive) and snapshot
    /// reads (Mv), not just the invisible-read trio.
    fn engines() -> Vec<Stm> {
        vec![
            Stm::tl2(),
            Stm::incremental(),
            Stm::norec(),
            Stm::tlrw(),
            Stm::mv(),
            Stm::adaptive(),
        ]
    }

    #[test]
    fn get_wait_blocks_until_the_key_arrives_all_modes() {
        for stm in engines() {
            let m: THashMap<u64, String> = THashMap::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let v = stm.atomically(|tx| m.get_wait(tx, &1));
                    assert_eq!(v, "ready", "{:?}", stm.algorithm());
                });
                std::thread::sleep(std::time::Duration::from_millis(20));
                stm.atomically(|tx| m.insert(tx, 1, "ready".to_string()));
            });
        }
    }

    #[test]
    fn insert_get_remove_roundtrip_all_modes() {
        for stm in engines() {
            let m: THashMap<u64, String> = THashMap::new();
            let prev = stm.atomically(|tx| m.insert(tx, 1, "one".into()));
            assert_eq!(prev, None);
            let prev = stm.atomically(|tx| m.insert(tx, 1, "uno".into()));
            assert_eq!(prev, Some("one".into()));
            assert_eq!(stm.atomically(|tx| m.get(tx, &1)), Some("uno".to_string()));
            assert_eq!(stm.atomically(|tx| m.remove(tx, &1)), Some("uno".into()));
            assert_eq!(stm.atomically(|tx| m.get(tx, &1)), None);
            assert_eq!(stm.atomically(|tx| m.remove(tx, &1)), None);
        }
    }

    #[test]
    fn len_and_snapshot_cover_all_buckets() {
        let stm = Stm::tl2();
        let m: THashMap<u64, u64> = THashMap::with_buckets(4);
        assert_eq!(m.bucket_count(), 4);
        stm.atomically(|tx| {
            for k in 0..32 {
                m.insert(tx, k, k * 10)?;
            }
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| m.len(tx)), 32);
        assert!(!stm.atomically(|tx| m.is_empty(tx)));
        let mut snap = stm.atomically(|tx| m.snapshot(tx));
        snap.sort_unstable();
        assert_eq!(snap.len(), 32);
        assert_eq!(snap[31], (31, 310));
    }

    /// A value whose `Clone` counts its calls.
    #[derive(Debug)]
    struct Counted(u64, Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, Ordering::SeqCst);
            Counted(self.0, Arc::clone(&self.1))
        }
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    #[test]
    fn get_clones_only_the_matched_value_all_modes() {
        for stm in engines() {
            let algo = stm.algorithm();
            let clones = Arc::new(AtomicUsize::new(0));
            // One bucket, so every lookup borrows a four-entry list.
            let m: THashMap<u64, Counted> = THashMap::with_buckets(1);
            stm.atomically(|tx| {
                for k in 0..4 {
                    m.insert(tx, k, Counted(k, Arc::clone(&clones)))?;
                }
                Ok(())
            });
            // NOrec also keeps one copy of the bucket it read, to
            // validate by value.
            let bucket_copy = if algo == Algorithm::Norec { 4 } else { 0 };
            clones.store(0, Ordering::SeqCst);
            let got = stm.atomically(|tx| m.get(tx, &2));
            assert_eq!(got.map(|c| c.0), Some(2), "{algo:?}");
            assert_eq!(
                clones.swap(0, Ordering::SeqCst),
                1 + bucket_copy,
                "{algo:?}: hit"
            );
            assert!(stm.atomically(|tx| m.get(tx, &99)).is_none());
            assert_eq!(
                clones.swap(0, Ordering::SeqCst),
                bucket_copy,
                "{algo:?}: miss"
            );
        }
    }

    #[test]
    fn bucket_count_rounds_up_to_power_of_two() {
        let m: THashMap<u64, u64> = THashMap::with_buckets(3);
        assert_eq!(m.bucket_count(), 4);
        let m: THashMap<u64, u64> = THashMap::with_buckets(0);
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn single_bucket_still_correct() {
        let stm = Stm::norec();
        let m: THashMap<u64, u64> = THashMap::with_buckets(1);
        stm.atomically(|tx| {
            m.insert(tx, 1, 10)?;
            m.insert(tx, 2, 20)?;
            m.remove(tx, &1)?;
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| m.get(tx, &2)), Some(20));
        assert_eq!(stm.atomically(|tx| m.len(tx)), 1);
    }

    #[test]
    fn clones_share_state() {
        let stm = Stm::tl2();
        let a: THashMap<u64, u64> = THashMap::new();
        let b = a.clone();
        stm.atomically(|tx| a.insert(tx, 9, 9));
        assert_eq!(stm.atomically(|tx| b.get(tx, &9)), Some(9));
    }
}
