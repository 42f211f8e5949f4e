//! The message vocabulary of the sharded execution model.
//!
//! Every byte that crosses a shard boundary is one of these variants. Data
//! messages (halo values, residual segments, partial norms, corrections,
//! completed norms, checkpoints, acks and reliable-wrapped payloads) may be
//! delayed, reordered or dropped by a lossy [`Transport`](crate::Transport);
//! the *control* messages — [`Msg::Stop`], [`Msg::Done`] and [`Msg::Evict`] —
//! are the liveness backbone and are never dropped (a real network backend
//! would carry them over a reliable channel).
//!
//! Recovery (see `docs/sharding.md`) adds a geometry version `ver` to every
//! row-addressed data message: each applied [`Msg::Adopt`] bumps the
//! version, and receivers silently discard messages tagged with a stale
//! version — they describe a row layout that no longer exists. With
//! recovery off the version is always zero and the checks never fire.
//! [`Msg::Reliable`] wraps hub control-plane payloads (corrections,
//! adoptions, stop) with a sequence number that the receiver acknowledges
//! via [`Msg::Ack`]; the wrapper itself is *droppable* data, which is
//! exactly what exercises the retransmit path.

/// One message between shard ranks. Ranks `0..S` are shard workers; rank
/// `S` is the hub (coarse solver + norm reducer).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Boundary values a neighbour needs: `vals[i]` is the sender's iterate
    /// at the `i`-th ghost index of the `(from, to)` pair's
    /// [`ShardMap::ghost_indices`](crate::ShardMap::ghost_indices) list.
    Halo {
        /// Sending shard.
        from: u32,
        /// Sender's epoch when the values were gathered; `u64::MAX` marks
        /// the sender's final values (it left on its budget or a crash).
        epoch: u64,
        /// Sender's geometry version (adoptions applied). Zero with
        /// recovery off.
        ver: u32,
        /// Hub corrections the values reflect (`u64::MAX` for final
        /// values: no later correction reaches them).
        corr_seen: u64,
        /// Iterate values in ghost-index order.
        vals: Vec<f64>,
    },
    /// A shard's residual segment for the hub's assembled fine-grid
    /// residual.
    Residual {
        /// Sending shard.
        from: u32,
        /// Sender's epoch when the segment was computed.
        epoch: u64,
        /// Sender's geometry version. Zero with recovery off.
        ver: u32,
        /// Number of hub corrections the segment reflects: applied to the
        /// sender's own rows *and* to every ghost value it read (the
        /// minimum over the sender and the halos it last scattered). The
        /// hub's overshoot guard.
        corr_seen: u64,
        /// The shard's own rows of `b − A x`.
        vals: Vec<f64>,
    },
    /// One shard's contribution to the epoch's residual norm (the
    /// never-blocking reduction: the hub combines `S` of these per epoch).
    PartialNorm {
        /// Sending shard.
        from: u32,
        /// Epoch the partial sum belongs to.
        epoch: u64,
        /// Sender's geometry version — a partial norm only covers the rows
        /// the sender owned under that geometry. Zero with recovery off.
        ver: u32,
        /// `Σ r_i²` over the shard's own rows.
        sumsq: f64,
    },
    /// Coarse-grid correction restricted to the destination shard's rows
    /// (hub → shard).
    Correction {
        /// Hub cycle that produced the correction.
        cycle: u64,
        /// Hub's geometry version when the segment was cut. Zero with
        /// recovery off.
        ver: u32,
        /// Correction values for the destination's own rows, damping
        /// already applied.
        vals: Vec<f64>,
    },
    /// A reduction completed: the global relative residual of `epoch` is
    /// known (hub → shards, the AMReX-style `comm_complete` broadcast).
    NormComplete {
        /// Epoch the reduction covers. Strictly increasing per receiver.
        epoch: u64,
        /// Published global relative residual.
        relres: f64,
    },
    /// A shard's snapshot of its owned iterate segment (shard → hub,
    /// recovery only). The hub keeps the freshest per shard as the warm
    /// start it hands an adopter.
    Checkpoint {
        /// Sending shard.
        from: u32,
        /// Sender's epoch when the snapshot was taken.
        epoch: u64,
        /// Sender's geometry version (fixes which rows `vals` covers).
        ver: u32,
        /// The sender's owned iterate rows.
        vals: Vec<f64>,
    },
    /// Row adoption after a declared death (hub → every live shard, always
    /// wrapped in [`Msg::Reliable`]): shard `dead`'s rows move to shard
    /// `adopter`. Receivers apply adoptions in `index` order; each applied
    /// adoption bumps the receiver's geometry version.
    Adopt {
        /// Zero-based adoption sequence number (equals the geometry
        /// version this adoption upgrades *from*).
        index: u32,
        /// The shard declared dead.
        dead: u32,
        /// The surviving shard that takes over `dead`'s rows.
        adopter: u32,
        /// Hub's last checkpoint of the dead shard's rows — non-empty only
        /// toward the adopter, which splices it into its iterate.
        vals: Vec<f64>,
    },
    /// Acknowledges a [`Msg::Reliable`] delivery (shard → hub). Droppable:
    /// a lost ack just means one more retransmit.
    Ack {
        /// Acknowledging shard.
        from: u32,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Reliable-delivery wrapper for hub control-plane payloads
    /// (corrections, adoptions, stop). The receiver acks `seq` on every
    /// delivery and applies the payload once. Deliberately *droppable*
    /// data: loss is what the ack + bounded-retransmit layer absorbs.
    Reliable {
        /// Per-destination sequence number.
        seq: u64,
        /// The wrapped payload.
        inner: Box<Msg>,
    },
    /// Tolerance reached — finish up (hub → shards). Control: never
    /// dropped. With recovery on the hub instead sends `Stop` wrapped in
    /// [`Msg::Reliable`], trading transport-level reliability for the
    /// explicit ack/retransmit machinery.
    Stop,
    /// A shard finished (budget, stop request, or injected crash in the
    /// undefended model). Control: never dropped.
    Done {
        /// The finished shard.
        from: u32,
    },
    /// Fences a shard the hub declared dead (hub → shard, recovery only):
    /// a false-positive zombie that receives it exits silently — no `Done`,
    /// no publication — so its rows stay with the adopter. Control: never
    /// dropped.
    Evict,
}

impl Msg {
    /// `true` for the control messages a transport must deliver reliably.
    pub fn is_control(&self) -> bool {
        matches!(self, Msg::Stop | Msg::Done { .. } | Msg::Evict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_classification() {
        assert!(Msg::Stop.is_control());
        assert!(Msg::Done { from: 3 }.is_control());
        assert!(Msg::Evict.is_control());
        assert!(!Msg::Halo { from: 0, epoch: 0, ver: 0, corr_seen: 0, vals: vec![] }.is_control());
        assert!(!Msg::NormComplete { epoch: 0, relres: 1.0 }.is_control());
        assert!(!Msg::Checkpoint { from: 0, epoch: 0, ver: 0, vals: vec![] }.is_control());
        assert!(!Msg::Ack { from: 0, seq: 0 }.is_control());
    }

    /// The reliable wrapper is droppable data even when it carries a
    /// control payload — that is the whole point: loss of the wrapper is
    /// what the ack + retransmit layer recovers from.
    #[test]
    fn reliable_wrapper_is_droppable_data() {
        let wrapped = Msg::Reliable { seq: 7, inner: Box::new(Msg::Stop) };
        assert!(!wrapped.is_control());
        let adopt = Msg::Adopt { index: 0, dead: 1, adopter: 0, vals: vec![1.0] };
        assert!(!adopt.is_control());
    }
}
