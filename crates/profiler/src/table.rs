//! The one bounded, sharded memo table behind [`crate::LatencyCache`] and
//! the kernel memo of the incremental miss path.
//!
//! Both memos key their entries by a well-mixed 64-bit digest of the
//! logical key, and keep the (rarely more than one) exact keys that share a
//! digest in a small bucket, so a lookup is one identity-hashed probe under
//! one of [`SHARDS`] independently locked shards.
//!
//! # Bounded mode
//!
//! Long-running processes bound every shard to `cap` entries
//! ([`ShardedTable::set_cap`]). The policy is *admit-if-smaller* over the
//! structural `(digest, TableKey::order_cmp)` order: a fresh key enters a
//! full shard only when it orders below the shard's maximum, which it
//! displaces. Membership is therefore always the `cap` order-smallest
//! distinct keys ever offered to the shard — a pure function of the key
//! set, independent of arrival order and thread schedule.
//!
//! While (and only while) a cap is set, each shard also keeps an ordered
//! index of its digests, so the full-shard check is O(1) (an entry count)
//! and finding, admitting past and evicting the maximum are O(log n).
//! Unbounded tables skip the index entirely: their inserts pay nothing
//! for a policy they never apply.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::cache::splitmix;

/// Number of independently locked shards; a power of two so the shard
/// index is a cheap mask. 16 comfortably out-scales the worker counts the
/// sweep engine runs with.
pub(crate) const SHARDS: usize = 16;

/// The shard holding `digest`.
///
/// Shards on the *top* bits: the identity-hashed bucket maps consume the
/// low bits for their own indexing, and sharing those across the shard
/// split would cluster every shard's keys.
pub(crate) fn shard_of(digest: u64) -> usize {
    (digest >> 60) as usize & (SHARDS - 1)
}

/// The digest is already well-mixed, so bucket maps index by it directly
/// instead of re-hashing through SipHash.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl std::hash::Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A key the table can bound: `==` names the same entry, and
/// [`TableKey::order_cmp`] breaks ties between keys sharing a digest.
pub(crate) trait TableKey: PartialEq {
    /// Total order among keys, used only *within* one digest bucket
    /// (across buckets the digest decides). Purely structural — no
    /// insertion-time or thread-schedule component — so a bounded table's
    /// contents are a function of the offered key set alone.
    fn order_cmp(&self, other: &Self) -> Ordering;
}

/// What [`ShardedTable::admit`] did with a fresh entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The key was already stored; the table is unchanged.
    Present,
    /// Stored; `displaced` when a full shard gave up its maximum for it.
    Admitted {
        /// `true` when the shard's previous maximum was evicted.
        displaced: bool,
    },
    /// Refused: the shard is full and every stored key orders below it.
    Rejected,
}

/// The cap of a bounded shard and its ordered digest index.
#[derive(Debug)]
struct Bound {
    cap: usize,
    digests: BTreeSet<u64>,
}

/// One locked shard: digest buckets, their entry count, and the bound.
#[derive(Debug)]
struct Shard<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>, BuildHasherDefault<IdentityHasher>>,
    /// Entries across all buckets.
    len: usize,
    /// `Some` exactly while the table is bounded.
    bound: Option<Bound>,
}

impl<K: TableKey, V: Copy> Shard<K, V> {
    fn value_of(&self, digest: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        self.buckets
            .get(&digest)?
            .iter()
            .find(|(k, _)| matches(k))
            .map(|(_, v)| *v)
    }

    fn admit(&mut self, digest: u64, key: K, value: V) -> Admission {
        if self.value_of(digest, |k| *k == key).is_some() {
            return Admission::Present;
        }
        let full = self.bound.as_ref().is_some_and(|b| self.len >= b.cap);
        if full {
            match self.max_entry() {
                Some((max_digest, slot, max))
                    if max_digest
                        .cmp(&digest)
                        .then_with(|| max.order_cmp(&key))
                        .is_gt() =>
                {
                    self.evict(max_digest, slot);
                }
                _ => return Admission::Rejected,
            }
        }
        self.buckets.entry(digest).or_default().push((key, value));
        self.len += 1;
        if let Some(bound) = &mut self.bound {
            bound.digests.insert(digest);
        }
        Admission::Admitted { displaced: full }
    }

    /// The bounded shard's maximum as (digest, bucket slot, key): the last
    /// indexed digest, then the first greatest key in its bucket. `None`
    /// when unbounded or empty.
    fn max_entry(&self) -> Option<(u64, usize, &K)> {
        let digest = *self.bound.as_ref()?.digests.last()?;
        // `max_by` keeps the last of equal maxima, hence the reversal.
        let bucket = self.buckets.get(&digest)?.iter().enumerate().rev();
        let (slot, (max, _)) = bucket.max_by(|(_, (a, _)), (_, (b, _))| a.order_cmp(b))?;
        Some((digest, slot, max))
    }

    fn evict(&mut self, digest: u64, slot: usize) {
        let Some(bucket) = self.buckets.get_mut(&digest) else {
            return;
        };
        bucket.remove(slot);
        self.len -= 1;
        if bucket.is_empty() {
            self.buckets.remove(&digest);
            if let Some(bound) = &mut self.bound {
                bound.digests.remove(&digest);
            }
        }
    }

    /// Applies a new cap (`0` = unbounded), building the digest index on
    /// the way in and dropping it on the way out; returns how many
    /// entries were trimmed, largest order keys first.
    fn set_cap(&mut self, cap: usize) -> u64 {
        if cap == 0 {
            self.bound = None;
            return 0;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "collected into the bound's ordered digest set"
        )]
        let digests = self
            .bound
            .take()
            .map_or_else(|| self.buckets.keys().copied().collect(), |b| b.digests);
        self.bound = Some(Bound { cap, digests });
        let before = self.len;
        while let Some((digest, slot, _)) = self.max_entry().filter(|_| self.len > cap) {
            self.evict(digest, slot);
        }
        (before - self.len) as u64
    }
}

/// A digest-sharded, thread-safe memo table with an opt-in per-shard
/// bound (see the module docs for the policy).
///
/// Callers own the digest function and the counters; the table reports
/// what each admission did ([`Admission`]) so each memo bills its own
/// counters.
#[derive(Debug)]
pub(crate) struct ShardedTable<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: TableKey + Clone + Send, V: Copy + Send> ShardedTable<K, V> {
    /// An empty, unbounded table.
    pub(crate) fn new() -> Self {
        ShardedTable {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        buckets: HashMap::default(),
                        len: 0,
                        bound: None,
                    })
                })
                .collect(),
        }
    }

    /// Locks shard `shard`, recovering from poisoning: every mutation
    /// completes without an intervening call that can panic, so a
    /// panicked holder cannot have left a torn shard.
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored value of the key under `digest` that `matches` accepts.
    pub(crate) fn probe(&self, digest: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        self.lock_shard(shard_of(digest)).value_of(digest, matches)
    }

    /// Offers a freshly computed entry under the shard's bound policy.
    pub(crate) fn admit(&self, digest: u64, key: K, value: V) -> Admission {
        self.lock_shard(shard_of(digest)).admit(digest, key, value)
    }

    /// Bounds every shard to `cap` entries (`0` = unbounded), trimming
    /// immediately when shrinking below the current occupancy. Returns
    /// the entries trimmed per shard, in shard order.
    pub(crate) fn set_cap(&self, cap: usize) -> Vec<u64> {
        (0..SHARDS)
            .map(|i| self.lock_shard(i).set_cap(cap))
            .collect()
    }

    /// The per-shard bound (`0` = unbounded).
    pub(crate) fn cap(&self) -> usize {
        self.lock_shard(0).bound.as_ref().map_or(0, |b| b.cap)
    }

    /// Entries stored in shard `shard`.
    pub(crate) fn shard_len(&self, shard: usize) -> usize {
        self.lock_shard(shard).len
    }

    /// Entries stored across all shards.
    pub(crate) fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shard_len(i)).sum()
    }

    /// Drops every entry, keeping the bound; returns the entries dropped
    /// per shard, in shard order.
    pub(crate) fn clear(&self) -> Vec<u64> {
        (0..SHARDS)
            .map(|i| {
                let mut shard = self.lock_shard(i);
                let dropped = shard.len as u64;
                shard.buckets.clear();
                shard.len = 0;
                if let Some(bound) = &mut shard.bound {
                    bound.digests.clear();
                }
                dropped
            })
            .collect()
    }

    /// Every entry, in `(digest, order_cmp)` order — the same structural
    /// total order the bound policy uses.
    pub(crate) fn sorted_entries(&self) -> Vec<(K, V)> {
        let mut entries: Vec<(u64, K, V)> = Vec::new();
        for i in 0..SHARDS {
            let shard = self.lock_shard(i);
            #[expect(clippy::iter_over_hash_type, reason = "the entries are sorted below")]
            for (&digest, bucket) in &shard.buckets {
                entries.extend(bucket.iter().map(|(k, v)| (digest, k.clone(), *v)));
            }
        }
        entries.sort_by(|(da, ka, _), (db, kb, _)| da.cmp(db).then_with(|| ka.order_cmp(kb)));
        entries.into_iter().map(|(_, k, v)| (k, v)).collect()
    }

    /// Deliberately poisons every shard lock: a scoped thread takes each
    /// lock and panics while holding it (the chaos harness's fault).
    pub(crate) fn poison_all(&self) {
        for shard in &self.shards {
            #[expect(
                clippy::panic,
                reason = "poisoning a lock takes a panic while holding it"
            )]
            let result = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                        panic!("deliberate shard poisoning");
                    })
                    .join()
            });
            debug_assert!(result.is_err(), "the poisoning thread must panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test key whose digest collides on purpose: `id % 5` picks the
    /// shard (the digest's top bits) and `id % 13` the bucket within it,
    /// so shards hold several buckets and buckets several keys, and both
    /// the cross-bucket and the within-bucket order are exercised.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u64);

    impl TableKey for Id {
        fn order_cmp(&self, other: &Self) -> Ordering {
            self.0.cmp(&other.0)
        }
    }

    fn digest(id: u64) -> u64 {
        ((id % 5) << 60) | (id % 13)
    }

    /// The naive reference: per shard, a sorted `Vec` of `(digest, id)`.
    struct Oracle {
        shards: Vec<Vec<(u64, u64)>>,
        cap: usize,
    }

    impl Oracle {
        fn new() -> Self {
            Oracle {
                shards: vec![Vec::new(); SHARDS],
                cap: 0,
            }
        }

        fn admit(&mut self, id: u64) -> Admission {
            let entry = (digest(id), id);
            let cap = self.cap;
            let shard = &mut self.shards[shard_of(entry.0)];
            if shard.contains(&entry) {
                return Admission::Present;
            }
            let full = cap > 0 && shard.len() >= cap;
            if full {
                if shard.last().is_some_and(|max| *max > entry) {
                    shard.pop();
                } else {
                    return Admission::Rejected;
                }
            }
            shard.push(entry);
            shard.sort_unstable();
            Admission::Admitted { displaced: full }
        }

        fn set_cap(&mut self, cap: usize) -> u64 {
            self.cap = cap;
            let mut trimmed = 0;
            for shard in &mut self.shards {
                while cap > 0 && shard.len() > cap {
                    shard.pop();
                    trimmed += 1;
                }
            }
            trimmed
        }
    }

    fn table_ids(table: &ShardedTable<Id, u64>) -> Vec<Vec<u64>> {
        let mut shards = vec![Vec::new(); SHARDS];
        for (Id(id), value) in table.sorted_entries() {
            assert_eq!(value, id * 7, "values travel with their keys");
            shards[shard_of(digest(id))].push(id);
        }
        shards
    }

    #[test]
    fn offers_report_present_admitted_displaced_and_rejected() {
        let table: ShardedTable<Id, u64> = ShardedTable::new();
        table.set_cap(2);
        // 0, 65, 130 and 195 share one digest (and so one shard).
        assert_eq!(
            table.admit(digest(65), Id(65), 455),
            Admission::Admitted { displaced: false }
        );
        assert_eq!(
            table.admit(digest(130), Id(130), 910),
            Admission::Admitted { displaced: false }
        );
        assert_eq!(table.admit(digest(65), Id(65), 455), Admission::Present);
        assert_eq!(table.admit(digest(195), Id(195), 0), Admission::Rejected);
        assert_eq!(
            table.admit(digest(0), Id(0), 0),
            Admission::Admitted { displaced: true }
        );
        assert_eq!(
            table.probe(digest(130), |k| k.0 == 130),
            None,
            "the maximum left"
        );
        assert_eq!(table.probe(digest(65), |k| k.0 == 65), Some(455));
        assert_eq!(table.len(), 2);
        assert_eq!(table.cap(), 2);
        assert_eq!(table.clear().iter().sum::<u64>(), 2);
        assert_eq!(table.cap(), 2, "clearing keeps the bound");
        assert_eq!(table.set_cap(0), vec![0; SHARDS]);
        assert_eq!(table.cap(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table agrees with the sorted-`Vec` oracle offer by offer,
        /// keeps exactly the cap-smallest keys of each shard under
        /// shrinking caps (including a cap first set on a full unbounded
        /// table), and conserves entries: displacements plus trims equal
        /// admissions minus what is kept.
        #[test]
        fn bounded_table_matches_the_sorted_vec_oracle(
            ids in prop::collection::vec(0u64..400, 0..300),
            first_cap in 0usize..12,
            shrinks in prop::collection::vec(0usize..4, 0..4),
            cut in 0usize..300,
        ) {
            let table: ShardedTable<Id, u64> = ShardedTable::new();
            let mut oracle = Oracle::new();
            let (mut admitted, mut displaced, mut trimmed) = (0u64, 0u64, 0u64);
            let cut = cut.min(ids.len());
            let offer_all = |ids: &[u64], oracle: &mut Oracle, admitted: &mut u64, displaced: &mut u64| {
                for &id in ids {
                    let got = table.admit(digest(id), Id(id), id * 7);
                    assert_eq!(got, oracle.admit(id), "offer of {id}");
                    if let Admission::Admitted { displaced: d } = got {
                        *admitted += 1;
                        *displaced += u64::from(d);
                    }
                }
            };
            // Unbounded prefix, then a cap set on the non-empty table,
            // then caps that only shrink, with more offers between them.
            offer_all(&ids[..cut], &mut oracle, &mut admitted, &mut displaced);
            let mut cap = first_cap;
            let mut caps = vec![cap];
            for step in &shrinks {
                cap = cap.saturating_sub(*step).max(1);
                caps.push(cap);
            }
            let rest = &ids[cut..];
            let chunk = rest.len() / caps.len() + 1;
            for (cap, part) in caps.iter().zip(rest.chunks(chunk).chain(std::iter::repeat(&[][..]))) {
                let trims = table.set_cap(*cap);
                let want = oracle.set_cap(*cap);
                prop_assert_eq!(trims.iter().sum::<u64>(), want);
                trimmed += want;
                offer_all(part, &mut oracle, &mut admitted, &mut displaced);
            }

            let kept = table_ids(&table);
            let mut offered = ids.clone();
            offered.sort_unstable();
            offered.dedup();
            for (shard, got) in kept.iter().enumerate() {
                let mut all: Vec<(u64, u64)> = offered
                    .iter()
                    .map(|&id| (digest(id), id))
                    .filter(|(d, _)| shard_of(*d) == shard)
                    .collect();
                all.sort_unstable();
                if cap > 0 {
                    all.truncate(cap);
                }
                let want: Vec<u64> = all.into_iter().map(|(_, id)| id).collect();
                prop_assert_eq!(got, &want, "shard {} keeps the cap-smallest keys", shard);
                prop_assert_eq!(table.shard_len(shard), want.len());
            }
            prop_assert_eq!(table.len(), kept.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(displaced + trimmed, admitted - table.len() as u64);
        }
    }
}
