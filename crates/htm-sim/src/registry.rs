//! Per-thread hardware-transaction status records.
//!
//! Conflict resolution is *requester wins*, mirroring how a cache-coherence
//! invalidation aborts the transaction that held the line: the thread performing the
//! conflicting access CASes the victim's status from `Active` to `Doomed`. A victim
//! that has already reached `Committing` can no longer be doomed — the requester
//! briefly waits for it to finish publishing, which models the coherence stall of
//! racing with an instantaneous `xend`.

use crate::abort::AbortCode;
use crate::align::CacheAligned;
use std::sync::atomic::{AtomicU8, Ordering};

/// Hard ceiling on simulated hardware threads.
///
/// The conflict table packs each line's ownership into a single `AtomicU64`:
/// a 56-bit reader bitmap plus an 8-bit writer byte (see [`crate::line_table`]),
/// so thread ids must fit in 56 bitmap positions. Asserted here and in
/// [`crate::HtmConfig::validate`].
pub const MAX_THREADS: usize = 56;

/// Thread identifier. Bounded by the configured `max_threads` (<= [`MAX_THREADS`]).
pub type ThreadId = u8;

/// Identity of the agent performing a conflicting access.
///
/// Conflict-table operations need to know *who* is requesting an access, both to
/// skip self-conflicts and to sanity-check that no thread dooms itself. Strongly
/// atomic non-transactional accesses can also originate outside the simulated
/// machine (verification code, harness checksums); those use [`Requester::External`]
/// rather than a reserved fake thread id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Requester {
    /// A registered simulator thread (id < configured `max_threads`).
    Thread(ThreadId),
    /// An agent outside the simulated machine; never owns table entries and can
    /// never collide with a victim's id.
    External,
}

/// Status of a thread's current hardware transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TxStatus {
    /// No hardware transaction in flight.
    Inactive = 0,
    /// Transaction executing; may be doomed by conflicting accesses.
    Active = 1,
    /// Transaction passed the point of no return and is publishing its write buffer.
    Committing = 2,
    /// A conflicting access invalidated this transaction; it will abort at its next
    /// operation (or at commit).
    Doomed = 3,
}

impl TxStatus {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => TxStatus::Inactive,
            1 => TxStatus::Active,
            2 => TxStatus::Committing,
            3 => TxStatus::Doomed,
            _ => unreachable!("invalid TxStatus {v}"),
        }
    }
}

/// One cache line per thread to avoid false sharing between status words:
/// every CAS on one thread's status would otherwise invalidate its
/// neighbours' lines on every doom/begin/finish. [`CacheAligned`] pads the
/// one-byte status to a full line (the `membench` false-sharing A/B measures
/// what the packed layout would cost).
type TxSlot = CacheAligned<AtomicU8>;

fn new_slot() -> TxSlot {
    CacheAligned::new(AtomicU8::new(TxStatus::Inactive as u8))
}

/// Outcome of an attempt to doom a peer transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoomOutcome {
    /// Peer was active and is now doomed (or was already doomed): requester proceeds.
    Doomed,
    /// Peer is committing and cannot be doomed: requester must wait for it to finish
    /// and retry the access.
    MustWait,
    /// Peer had no transaction in flight (stale entry): requester proceeds.
    Gone,
}

/// Registry of every thread's transaction status.
pub struct TxRegistry {
    slots: Box<[TxSlot]>,
}

impl TxRegistry {
    /// Create a registry for `max_threads` hardware threads.
    pub fn new(max_threads: usize) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&max_threads),
            "max_threads must be in 1..={MAX_THREADS} (packed line-table reader bitmap)"
        );
        let mut v = Vec::with_capacity(max_threads);
        v.resize_with(max_threads, new_slot);
        Self {
            slots: v.into_boxed_slice(),
        }
    }

    /// Number of thread slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the registry has no slots (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current status of `t`'s transaction.
    #[inline]
    pub fn status(&self, t: ThreadId) -> TxStatus {
        TxStatus::from_u8(self.slots[t as usize].load(Ordering::SeqCst))
    }

    /// Begin a transaction on thread `t`. Panics if one is already in flight —
    /// the simulator flattens nesting at a higher level, like TSX does.
    pub fn begin(&self, t: ThreadId) {
        let prev = self.slots[t as usize].swap(TxStatus::Active as u8, Ordering::SeqCst);
        assert_eq!(
            prev,
            TxStatus::Inactive as u8,
            "nested hardware begin on thread {t}"
        );
    }

    /// Try to move `t` from `Active` to `Committing`. Fails (returning the doom
    /// cause) if the transaction was doomed first.
    pub fn start_commit(&self, t: ThreadId) -> Result<(), AbortCode> {
        match self.slots[t as usize].compare_exchange(
            TxStatus::Active as u8,
            TxStatus::Committing as u8,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(()),
            Err(_) => Err(AbortCode::Conflict),
        }
    }

    /// Finish `t`'s transaction (after commit publication or abort cleanup).
    pub fn finish(&self, t: ThreadId) {
        self.slots[t as usize].store(TxStatus::Inactive as u8, Ordering::SeqCst);
    }

    /// True if `t`'s transaction has been doomed by a conflicting access.
    #[inline]
    pub fn is_doomed(&self, t: ThreadId) -> bool {
        self.status(t) == TxStatus::Doomed
    }

    /// Requester-wins conflict resolution: `requester` dooms thread `victim`.
    ///
    /// Callers identify `victim` from a lock-free snapshot of a conflict-table
    /// word, so by the time the CAS below lands, `victim` may have finished that
    /// transaction and begun another: the doom then hits the *next* incarnation.
    /// Such spurious dooms are semantically sound — best-effort HTM may abort any
    /// transaction at any time for any reason — and are vanishingly rare (the
    /// victim must roll back, clear its table entries, and restart inside the
    /// requester's read-doom-CAS window). Lost dooms cannot happen: the table
    /// word CAS fails if ownership changed, and the requester re-inspects.
    pub fn doom(&self, victim: ThreadId, requester: Requester) -> DoomOutcome {
        debug_assert_ne!(
            Requester::Thread(victim),
            requester,
            "self-doom is a logic error"
        );
        let slot = &self.slots[victim as usize];
        loop {
            let cur = slot.load(Ordering::SeqCst);
            match TxStatus::from_u8(cur) {
                TxStatus::Active => {
                    if slot
                        .compare_exchange(
                            cur,
                            TxStatus::Doomed as u8,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return DoomOutcome::Doomed;
                    }
                    // Lost a race with the victim's own transition; re-inspect.
                }
                TxStatus::Doomed => return DoomOutcome::Doomed,
                TxStatus::Committing => return DoomOutcome::MustWait,
                TxStatus::Inactive => return DoomOutcome::Gone,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let r = TxRegistry::new(4);
        assert_eq!(r.status(0), TxStatus::Inactive);
        r.begin(0);
        assert_eq!(r.status(0), TxStatus::Active);
        r.start_commit(0).unwrap();
        assert_eq!(r.status(0), TxStatus::Committing);
        r.finish(0);
        assert_eq!(r.status(0), TxStatus::Inactive);
    }

    #[test]
    fn doom_active_peer() {
        let r = TxRegistry::new(4);
        r.begin(1);
        assert_eq!(r.doom(1, Requester::Thread(0)), DoomOutcome::Doomed);
        assert!(r.is_doomed(1));
        // Doomed transactions cannot start committing.
        assert!(r.start_commit(1).is_err());
        r.finish(1);
    }

    #[test]
    fn committing_peer_forces_wait() {
        let r = TxRegistry::new(4);
        r.begin(1);
        r.start_commit(1).unwrap();
        assert_eq!(r.doom(1, Requester::Thread(0)), DoomOutcome::MustWait);
        r.finish(1);
        assert_eq!(r.doom(1, Requester::Thread(0)), DoomOutcome::Gone);
    }

    #[test]
    fn doom_idempotent() {
        let r = TxRegistry::new(4);
        r.begin(1);
        assert_eq!(r.doom(1, Requester::Thread(0)), DoomOutcome::Doomed);
        assert_eq!(r.doom(1, Requester::Thread(2)), DoomOutcome::Doomed);
        r.finish(1);
    }

    #[test]
    fn slot_is_cache_line_sized() {
        assert_eq!(std::mem::size_of::<TxSlot>(), 64);
        assert_eq!(std::mem::align_of::<TxSlot>(), 64);
    }
}
