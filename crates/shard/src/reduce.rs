//! The never-blocking asynchronous residual reduction.
//!
//! Shards never wait on a norm: each epoch they fire a
//! [`Msg::PartialNorm`](crate::Msg::PartialNorm) at the hub and move on. The
//! hub feeds every arrival into a [`NormReducer`], which completes an epoch
//! the moment all `parts` contributions are in — the AMReX
//! `comm_complete`-style test is [`NormReducer::try_complete`] — and
//! publishes completions in strictly increasing epoch order no matter how
//! the network reordered the arrivals: completing an epoch retires every
//! older pending epoch, so a straggling epoch can never be published after
//! a newer one (the monotonicity proptest below).

use std::collections::BTreeMap;

/// One published reduction: the global relative residual of an epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reduction {
    /// The shard epoch the reduction covers.
    pub epoch: u64,
    /// `√(Σ partial sums) / ‖b‖` (or the absolute norm for `‖b‖ = 0`).
    pub relres: f64,
    /// Contributions combined (the shard count).
    pub parts: u32,
}

/// Epoch-tagged accumulator of per-shard partial squared norms.
#[derive(Clone, Debug)]
pub struct NormReducer {
    parts: u32,
    norm_b: f64,
    /// Epoch → (contributions so far, Σ sumsq).
    pending: BTreeMap<u64, (u32, f64)>,
    /// Highest published epoch.
    last: Option<u64>,
}

impl NormReducer {
    /// A reducer expecting `parts` contributions per epoch, normalising by
    /// `norm_b` (`‖b‖`; a zero norm publishes absolute norms).
    pub fn new(parts: usize, norm_b: f64) -> Self {
        assert!(parts > 0);
        NormReducer { parts: parts as u32, norm_b, pending: BTreeMap::new(), last: None }
    }

    /// Feeds one shard's `Σ r_i²` for `epoch`. Contributions for epochs at
    /// or below the last published one are stale and ignored.
    pub fn offer(&mut self, epoch: u64, sumsq: f64) {
        if self.last.is_some_and(|l| epoch <= l) {
            return;
        }
        let slot = self.pending.entry(epoch).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += sumsq;
    }

    /// Publishes the next complete epoch, if any: the smallest complete
    /// pending epoch, retiring everything at or below it. Call in a loop to
    /// drain. Published epochs are strictly increasing across the reducer's
    /// lifetime.
    pub fn try_complete(&mut self) -> Option<Reduction> {
        let epoch = self
            .pending
            .iter()
            .find(|&(_, &(count, _))| count >= self.parts)
            .map(|(&epoch, _)| epoch)?;
        let (_, sumsq) = self.pending.remove(&epoch).unwrap();
        // Retire older, never-to-complete epochs so they cannot be
        // published out of order later.
        self.pending.retain(|&e, _| e > epoch);
        self.last = Some(epoch);
        let norm = sumsq.max(0.0).sqrt();
        let relres = if self.norm_b > 0.0 { norm / self.norm_b } else { norm };
        Some(Reduction { epoch, relres, parts: self.parts })
    }

    /// Contributions currently required per epoch.
    pub fn parts(&self) -> u32 {
        self.parts
    }

    /// Removes one expected contribution per epoch — the hub calls this
    /// when it declares a shard dead, so reductions keep completing from
    /// the survivors. Never drops below one part.
    pub fn retire_part(&mut self) {
        self.parts = self.parts.saturating_sub(1).max(1);
    }

    /// Discards every pending (incomplete) epoch while keeping the
    /// published-epoch watermark. Paired with [`Self::retire_part`] after
    /// a death: epochs partially filled under the old shard count would
    /// otherwise complete from a mix of pre- and post-death coverage.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn completes_only_with_all_parts() {
        let mut red = NormReducer::new(3, 2.0);
        red.offer(0, 1.0);
        red.offer(0, 1.0);
        assert!(red.try_complete().is_none());
        red.offer(0, 2.0);
        let r = red.try_complete().unwrap();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.parts, 3);
        // Σ sumsq = 1 + 1 + 2 = 4, √4 / ‖b‖ = 2 / 2.
        assert_eq!(r.relres, 1.0);
        assert!(red.try_complete().is_none());
    }

    #[test]
    fn stale_contributions_are_ignored() {
        let mut red = NormReducer::new(1, 1.0);
        red.offer(5, 1.0);
        assert_eq!(red.try_complete().unwrap().epoch, 5);
        // Epoch 3 arrives late: never published, never accumulated.
        red.offer(3, 9.0);
        assert!(red.try_complete().is_none());
        assert!(red.pending.is_empty());
    }

    #[test]
    fn completing_an_epoch_retires_older_incomplete_ones() {
        let mut red = NormReducer::new(2, 1.0);
        red.offer(1, 1.0); // incomplete forever
        red.offer(4, 1.0);
        red.offer(4, 3.0);
        let r = red.try_complete().unwrap();
        assert_eq!(r.epoch, 4);
        assert_eq!(r.relres, 2.0);
        // Epoch 1's second contribution arrives after: stays unpublished.
        red.offer(1, 1.0);
        assert!(red.try_complete().is_none());
    }

    #[test]
    fn retiring_a_part_lets_survivors_complete_epochs() {
        let mut red = NormReducer::new(3, 1.0);
        red.offer(2, 1.0);
        red.offer(2, 1.0);
        assert!(red.try_complete().is_none());
        // Shard death: one fewer contribution expected, and the
        // mixed-coverage pending epoch is discarded rather than completed.
        red.retire_part();
        red.clear_pending();
        assert_eq!(red.parts(), 2);
        assert!(red.try_complete().is_none());
        red.offer(3, 2.0);
        red.offer(3, 2.0);
        let r = red.try_complete().unwrap();
        assert_eq!((r.epoch, r.parts), (3, 2));
        assert_eq!(r.relres, 2.0);
        // The watermark survives the clear: stale epochs stay ignored.
        red.offer(1, 9.0);
        assert!(red.try_complete().is_none());
    }

    #[test]
    fn retire_part_never_drops_below_one() {
        let mut red = NormReducer::new(1, 1.0);
        red.retire_part();
        assert_eq!(red.parts(), 1);
        red.offer(0, 4.0);
        assert_eq!(red.try_complete().unwrap().relres, 2.0);
    }

    #[test]
    fn zero_rhs_publishes_absolute_norms() {
        let mut red = NormReducer::new(1, 0.0);
        red.offer(0, 9.0);
        assert_eq!(red.try_complete().unwrap().relres, 3.0);
    }

    proptest! {
        /// Monotonicity under arbitrary reordering: shuffle any multiset of
        /// (shard, epoch) contributions, drop an arbitrary subset — the
        /// published epoch sequence is strictly increasing, and every
        /// published epoch combined exactly `parts` contributions.
        #[test]
        fn published_epochs_are_monotone(
            order in prop::collection::vec((0usize..3, 0u64..12), 0..80),
            drop_mask in prop::collection::vec(0u8..8, 0..80),
        ) {
            let parts = 3;
            let mut red = NormReducer::new(parts, 1.0);
            let mut seen: std::collections::BTreeMap<(usize, u64), u32> = Default::default();
            let mut published = Vec::new();
            for (i, &(shard, epoch)) in order.iter().enumerate() {
                // At most one contribution per (shard, epoch), like real
                // shards; an optional drop models lost messages.
                let dropped = drop_mask.get(i).is_some_and(|&d| d == 0);
                if dropped || *seen.entry((shard, epoch)).or_insert(0) > 0 {
                    continue;
                }
                seen.insert((shard, epoch), 1);
                red.offer(epoch, (shard + 1) as f64);
                while let Some(r) = red.try_complete() {
                    published.push(r);
                }
            }
            for pair in published.windows(2) {
                prop_assert!(pair[0].epoch < pair[1].epoch,
                    "published epochs not strictly increasing: {:?}", published);
            }
            for r in &published {
                prop_assert_eq!(r.parts, parts as u32);
                // All three shards contributed: sumsq = 1 + 2 + 3 = 6.
                prop_assert_eq!(r.relres, 6.0f64.sqrt());
            }
        }
    }
}
