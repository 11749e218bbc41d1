//! Line-granular ownership table: the simulator's stand-in for the cache-coherence
//! protocol's conflict detection.
//!
//! Every cache line of the heap has one **packed `AtomicU64`** recording which
//! active hardware transactions hold it in their read or write sets:
//!
//! ```text
//!   63            56 55                                                     0
//!  +----------------+-------------------------------------------------------+
//!  |  writer byte   |                 reader bitmap (56 bits)               |
//!  +----------------+-------------------------------------------------------+
//!   0x00  no writer        bit t set  <=>  thread t holds the line in its
//!   t+1   thread t                         transactional read set
//!   0xFE  conflict resolution in progress (the claim)
//! ```
//!
//! Accesses — transactional or not — resolve conflicts *requester-wins*: the
//! requester dooms the current owner(s) and installs its own registration,
//! exactly as a MESI invalidation message aborts the transaction monitoring
//! the line. A peer that already reached `Committing` stalls the requester
//! briefly instead (see [`crate::registry`]). An access that finds no other
//! owner to doom is one CAS on the line word; unregistration (commit
//! publication / abort cleanup) is one atomic RMW per touched line.
//!
//! An access that must doom somebody resolves under the **claim**: it CASes
//! the writer byte to `0xFE`, dooms the owners recorded in the claimed word,
//! then stores its final word, which releases the claim. While the claim is
//! held the word is frozen — registrations, non-transactional accesses and
//! claims back off ([`AccessOutcome::Wait`]) and unregistration waits — and
//! the holder never blocks, so the claim is a few atomic operations long.
//! The claim is what makes dooming exact. Dooming from a snapshot and then
//! installing with a CAS is not: between the two, a victim can finish, begin
//! again and re-register the same bits, so the CAS succeeds (ABA) and
//! displaces a transaction that was never doomed. A non-transactional *write*
//! also runs its heap update under the claim, so no transaction can register a
//! read between its doom sweep and its store (strong atomicity).
//!
//! The table is direct-indexed by line id (one word per heap line), mirroring the
//! cost profile of real coherence hardware rather than adding hash-map overhead
//! to every first access.
//!
//! ## Concurrency caveats (deliberate, documented)
//!
//! * **Spurious dooms.** A non-transactional read dooms the writer found in a
//!   snapshot without claiming the line, so if that writer finished in
//!   between, the doom lands on its next transaction. Best-effort HTM permits
//!   spurious aborts, so this is sound. Dooms under a claim are exact, and
//!   *lost* dooms and *lost* registrations cannot happen.
//! * **Doomed owners keep their bits.** Dooming a writer/reader does not clear
//!   its registration; the victim removes its own bits during rollback. A new
//!   writer simply overwrites the writer byte (the victim's cleanup tolerates
//!   that), matching the old behaviour where `entry.writer = Some(t)` displaced
//!   the doomed owner. A non-transactional write keeps a doomed writer's byte
//!   across its claim, as the mutex reference does.
//! * **Unregistration waits on a claim.** A claim may restore the writer byte
//!   it displaced. Were the displaced writer allowed to unregister during the
//!   claim (seeing a byte that is not its own, and leaving it), the restore
//!   would resurrect a byte with no live owner, and that thread's own next
//!   non-transactional access to the line would find "its" writer byte outside
//!   any transaction.
//! * **Non-transactional reads** need no claim: one takes a snapshot, dooms a
//!   conflicting writer (whose buffered stores can then never be published)
//!   and performs one atomic heap load.
//!
//! The 56-bit reader bitmap caps the machine at
//! [`crate::registry::MAX_THREADS`] = 56 simulated hardware
//! threads, asserted at construction here, in [`crate::registry::TxRegistry`],
//! and in [`crate::HtmConfig::validate`]. See `docs/line-table.md`.
//!
//! A mutex-based reference implementation with identical sequential semantics lives in
//! [`crate::line_table_ref`]; it serves as the differential-testing oracle and
//! the "before" baseline of the `linebench` microbenchmark.

use crate::align::CacheAligned;
use crate::heap::{Line, WORDS_PER_LINE};
use crate::registry::{DoomOutcome, Requester, ThreadId, TxRegistry, MAX_THREADS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of attempting to register an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Access registered; all conflicting peers were doomed.
    Ok,
    /// A conflicting peer is mid-commit (or a non-transactional write holds the
    /// line's claim); the caller must back off and retry.
    Wait,
}

/// Low 56 bits: one reader bit per thread.
const READERS_MASK: u64 = (1 << 56) - 1;
/// High byte: the writer registration.
const WRITER_SHIFT: u32 = 56;
const WRITER_MASK: u64 = 0xFF << WRITER_SHIFT;
/// Writer-byte value marking an in-progress non-transactional write.
const NT_CLAIM_BYTE: u64 = 0xFE;
const NT_CLAIM: u64 = NT_CLAIM_BYTE << WRITER_SHIFT;

/// Decoded writer byte of a line word.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Writer {
    None,
    Thread(ThreadId),
    NtClaim,
}

#[inline(always)]
fn writer_of(word: u64) -> Writer {
    match word >> WRITER_SHIFT {
        0 => Writer::None,
        NT_CLAIM_BYTE => Writer::NtClaim,
        b => Writer::Thread((b - 1) as ThreadId),
    }
}

#[inline(always)]
fn writer_word(t: ThreadId) -> u64 {
    (t as u64 + 1) << WRITER_SHIFT
}

#[inline(always)]
fn reader_bit(t: ThreadId) -> u64 {
    1u64 << t
}

/// Direct-indexed table mapping every heap line to its packed owner word.
///
/// The table stays *dense* — one word per heap line, mirroring the cost
/// profile of real coherence hardware — but the backing store is chunked into
/// whole 64-byte host cache lines ([`CacheAligned`] groups of
/// [`WORDS_PER_LINE`] words). A plain `Box<[AtomicU64]>` is only 8-byte
/// aligned, so the table's first and last words could share a host line with
/// unrelated allocations; the chunked layout pins every group of eight
/// adjacent line-words to exactly one host line. Adjacent heap lines still
/// intentionally share a host line here (they do in real tag arrays too); the
/// `membench` false-sharing A/B quantifies that trade-off in isolation.
pub struct LineTable {
    chunks: Box<[CacheAligned<[AtomicU64; WORDS_PER_LINE]>]>,
    n_lines: usize,
}

impl LineTable {
    /// Create a table covering `n_lines` heap lines.
    pub fn new(n_lines: usize) -> Self {
        // The bitmap layout is the load-bearing invariant of this module; check
        // it at compile time rather than on every access.
        const {
            assert!(
                MAX_THREADS <= 56,
                "packed line word holds at most 56 reader bits"
            );
            assert!(
                std::mem::size_of::<CacheAligned<[AtomicU64; WORDS_PER_LINE]>>() == 64,
                "one table chunk must be exactly one host cache line"
            );
        }
        let mut v = Vec::with_capacity(n_lines.div_ceil(WORDS_PER_LINE));
        v.resize_with(n_lines.div_ceil(WORDS_PER_LINE), CacheAligned::default);
        Self {
            chunks: v.into_boxed_slice(),
            n_lines,
        }
    }

    #[inline(always)]
    fn word(&self, line: Line) -> &AtomicU64 {
        debug_assert!((line as usize) < self.n_lines);
        &self.chunks[line as usize / WORDS_PER_LINE].0[line as usize % WORDS_PER_LINE]
    }

    /// Two-phase conflict resolution for an access that must doom other owners
    /// of the line. Phase 1 installs the claim byte over the snapshot `cur`
    /// (re-read on CAS failure); phase 2 dooms the displaced writer and, when
    /// `doom_readers`, every reader but the requester, while the word is
    /// frozen.
    ///
    /// Returns the word to publish on release: the claimed snapshot with the
    /// writer byte kept for a doomed writer (its rollback clears it) and
    /// dropped for a stale one. `Err(())` means the caller must wait: the line
    /// is already claimed, or a victim is mid-commit (the claim is then
    /// released with the word unchanged). The caller releases by storing its
    /// final word; nothing may block while the claim is held.
    ///
    /// While the claim is held nothing else can change the word: every
    /// registration and non-transactional access backs off on `0xFE`, and
    /// [`LineTable::unregister`] waits for the release. The victims are
    /// therefore exactly the transactions registered when the claim landed.
    /// Dooming from a snapshot *before* the installing CAS would not give that:
    /// a victim could finish, begin again and re-register the same bits in
    /// between (ABA on the word), and the CAS would displace that undoomed
    /// incarnation.
    fn resolve(
        &self,
        reg: &TxRegistry,
        w: &AtomicU64,
        mut cur: u64,
        by: Requester,
        doom_readers: bool,
    ) -> Result<u64, ()> {
        loop {
            if writer_of(cur) == Writer::NtClaim {
                return Err(());
            }
            let claimed = (cur & READERS_MASK) | NT_CLAIM;
            match w.compare_exchange_weak(cur, claimed, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        let mut word = cur;
        if let Writer::Thread(owner) = writer_of(cur) {
            if Requester::Thread(owner) != by {
                match reg.doom(owner, by) {
                    DoomOutcome::MustWait => {
                        w.store(cur, Ordering::SeqCst);
                        return Err(());
                    }
                    DoomOutcome::Doomed => {}
                    DoomOutcome::Gone => word &= !WRITER_MASK,
                }
            }
        }
        if doom_readers {
            let self_bit = match by {
                Requester::Thread(b) => reader_bit(b),
                Requester::External => 0,
            };
            let mut readers = cur & READERS_MASK & !self_bit;
            while readers != 0 {
                let r = readers.trailing_zeros() as ThreadId;
                readers &= readers - 1;
                if reg.doom(r, by) == DoomOutcome::MustWait {
                    w.store(cur, Ordering::SeqCst);
                    return Err(());
                }
            }
        }
        Ok(word)
    }

    /// Register thread `t` as a transactional reader of `line`.
    ///
    /// Dooms a conflicting transactional writer (reading a line in another core's
    /// transactionally-modified state invalidates that transaction). Without a
    /// foreign writer this is one CAS; with one, it resolves under the claim
    /// (see the module docs).
    pub fn tx_read(&self, reg: &TxRegistry, line: Line, t: ThreadId) -> AccessOutcome {
        debug_assert!((t as usize) < MAX_THREADS);
        let w = self.word(line);
        let me = reader_bit(t);
        let mut cur = w.load(Ordering::SeqCst);
        loop {
            match writer_of(cur) {
                Writer::NtClaim => return AccessOutcome::Wait,
                Writer::Thread(owner) if owner != t => {
                    return match self.resolve(reg, w, cur, Requester::Thread(t), false) {
                        Ok(word) => {
                            w.store(word | me, Ordering::SeqCst);
                            AccessOutcome::Ok
                        }
                        Err(()) => AccessOutcome::Wait,
                    };
                }
                _ => {}
            }
            if cur & me != 0 {
                return AccessOutcome::Ok;
            }
            match w.compare_exchange_weak(cur, cur | me, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return AccessOutcome::Ok,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Register thread `t` as the transactional writer of `line`.
    ///
    /// Dooms the conflicting writer and every conflicting reader (a write request
    /// for ownership invalidates all other copies of the line). Reader bits are
    /// left in place — doomed readers unregister themselves during rollback.
    /// Without other owners this is one CAS; with them, it resolves under the
    /// claim (see the module docs).
    pub fn tx_write(&self, reg: &TxRegistry, line: Line, t: ThreadId) -> AccessOutcome {
        debug_assert!((t as usize) < MAX_THREADS);
        let w = self.word(line);
        let mine = writer_word(t);
        let mut cur = w.load(Ordering::SeqCst);
        loop {
            let foreign_writer = match writer_of(cur) {
                Writer::NtClaim => return AccessOutcome::Wait,
                Writer::Thread(owner) => owner != t,
                Writer::None => false,
            };
            if foreign_writer || cur & READERS_MASK & !reader_bit(t) != 0 {
                return match self.resolve(reg, w, cur, Requester::Thread(t), true) {
                    Ok(word) => {
                        w.store((word & READERS_MASK) | mine, Ordering::SeqCst);
                        AccessOutcome::Ok
                    }
                    Err(()) => AccessOutcome::Wait,
                };
            }
            let new = (cur & READERS_MASK) | mine;
            if new == cur {
                return AccessOutcome::Ok;
            }
            match w.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return AccessOutcome::Ok,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Strong atomicity: a non-transactional access to `line` by `by`. A
    /// non-transactional read dooms a transactional writer; a non-transactional
    /// write dooms the writer and all readers.
    ///
    /// Nothing is registered — non-transactional accesses are not monitored.
    pub fn nt_access(
        &self,
        reg: &TxRegistry,
        line: Line,
        is_write: bool,
        by: Requester,
    ) -> AccessOutcome {
        match self.nt_execute(reg, line, is_write, by, || ()) {
            Ok(()) => AccessOutcome::Ok,
            Err(()) => AccessOutcome::Wait,
        }
    }

    /// Execute a non-transactional heap access atomically with its conflict
    /// resolution.
    ///
    /// A *write* runs `op` under the claim byte, after dooming every owner
    /// (see the module docs), closing the window in which a hardware
    /// transaction could register a read between the conflict check and the
    /// non-transactional store and keep a stale value (strong atomicity would
    /// be violated otherwise). A *read* needs no claim: dooming the writer
    /// already prevents its buffered stores from ever publishing, and the
    /// single heap load is itself atomic.
    ///
    /// Returns `Err(())` if a committing peer (or a concurrent claim holder)
    /// forces a wait; the caller retries. The unit error is deliberate: "wait and
    /// retry" carries no information.
    #[allow(clippy::result_unit_err)]
    pub fn nt_execute<R>(
        &self,
        reg: &TxRegistry,
        line: Line,
        is_write: bool,
        by: Requester,
        op: impl FnOnce() -> R,
    ) -> Result<R, ()> {
        let w = self.word(line);
        if !is_write {
            // Read path: doom a conflicting writer, then load. A writer found
            // `Gone` needs nothing: it no longer has a transaction to doom.
            return match writer_of(w.load(Ordering::SeqCst)) {
                Writer::NtClaim => Err(()),
                Writer::Thread(owner) if Requester::Thread(owner) == by => {
                    debug_assert!(
                        false,
                        "non-transactional access to a line in the caller's own active write set"
                    );
                    Ok(op())
                }
                Writer::Thread(owner) => match reg.doom(owner, by) {
                    DoomOutcome::MustWait => Err(()),
                    DoomOutcome::Doomed | DoomOutcome::Gone => Ok(op()),
                },
                Writer::None => Ok(op()),
            };
        }

        // Write path, uncontended fast path: a line nobody monitors is claimed
        // with one CAS and released with one plain store (the claim freezes the
        // word). A failed CAS hands us the observed word for the resolution.
        let cur = match w.compare_exchange(0, NT_CLAIM, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                let out = op();
                w.store(0, Ordering::SeqCst);
                return Ok(out);
            }
            Err(observed) => observed,
        };
        if matches!(writer_of(cur), Writer::Thread(owner) if Requester::Thread(owner) == by) {
            debug_assert!(
                false,
                "non-transactional access to a line in the caller's own active write set"
            );
            // Invalid state; degrade to an unclaimed store rather than
            // displacing the caller's own registration.
            return Ok(op());
        }
        let word = self.resolve(reg, w, cur, by, true)?;
        let out = op();
        w.store(word, Ordering::SeqCst);
        Ok(out)
    }

    /// Remove thread `t`'s registration (reader and/or writer) for `line`: one
    /// atomic RMW, no lock. Called during commit publication and abort cleanup
    /// for every touched line.
    ///
    /// The writer byte is cleared only if it still belongs to `t` — a requester
    /// may have displaced it after dooming `t`. While a claim holds the line
    /// this waits for its release: the release may restore `t`'s writer byte,
    /// and a byte restored after `t` unregistered would outlive `t`'s
    /// transaction with nobody left to clear it.
    pub fn unregister(&self, line: Line, t: ThreadId) {
        let w = self.word(line);
        let me_bit = reader_bit(t);
        let me_writer = writer_word(t);
        let mut backoff = crate::util::Backoff::new();
        let mut cur = w.load(Ordering::SeqCst);
        loop {
            if cur & WRITER_MASK == NT_CLAIM {
                backoff.snooze();
                cur = w.load(Ordering::SeqCst);
                continue;
            }
            let mut new = cur & !me_bit;
            if cur & WRITER_MASK == me_writer {
                new &= !WRITER_MASK;
            }
            if new == cur {
                return;
            }
            match w.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Total number of live line registrations (diagnostics / leak tests).
    pub fn live_entries(&self) -> usize {
        (0..self.n_lines)
            .filter(|&l| self.word(l as Line).load(Ordering::SeqCst) != 0)
            .count()
    }

    /// Raw packed word for `line` (test/diagnostic introspection).
    #[doc(hidden)]
    pub fn raw_word(&self, line: Line) -> u64 {
        self.word(line).load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LineTable, TxRegistry) {
        (LineTable::new(64), TxRegistry::new(8))
    }

    #[test]
    fn read_read_no_conflict() {
        let (tab, reg) = setup();
        reg.begin(0);
        reg.begin(1);
        assert_eq!(tab.tx_read(&reg, 5, 0), AccessOutcome::Ok);
        assert_eq!(tab.tx_read(&reg, 5, 1), AccessOutcome::Ok);
        assert!(!reg.is_doomed(0));
        assert!(!reg.is_doomed(1));
    }

    #[test]
    fn write_dooms_readers() {
        let (tab, reg) = setup();
        reg.begin(0);
        reg.begin(1);
        reg.begin(2);
        tab.tx_read(&reg, 5, 0);
        tab.tx_read(&reg, 5, 1);
        assert_eq!(tab.tx_write(&reg, 5, 2), AccessOutcome::Ok);
        assert!(reg.is_doomed(0));
        assert!(reg.is_doomed(1));
        assert!(!reg.is_doomed(2));
    }

    #[test]
    fn read_dooms_writer() {
        let (tab, reg) = setup();
        reg.begin(0);
        reg.begin(1);
        tab.tx_write(&reg, 9, 0);
        assert_eq!(tab.tx_read(&reg, 9, 1), AccessOutcome::Ok);
        assert!(reg.is_doomed(0));
        assert!(!reg.is_doomed(1));
    }

    #[test]
    fn own_write_then_read_no_self_doom() {
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_write(&reg, 9, 0);
        assert_eq!(tab.tx_read(&reg, 9, 0), AccessOutcome::Ok);
        assert!(!reg.is_doomed(0));
    }

    #[test]
    fn committing_writer_blocks_requester() {
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_write(&reg, 9, 0);
        reg.start_commit(0).unwrap();
        reg.begin(1);
        assert_eq!(tab.tx_read(&reg, 9, 1), AccessOutcome::Wait);
        assert_eq!(tab.tx_write(&reg, 9, 1), AccessOutcome::Wait);
        assert_eq!(
            tab.nt_access(&reg, 9, false, Requester::External),
            AccessOutcome::Wait
        );
        // After the committer finishes and unregisters, access proceeds.
        tab.unregister(9, 0);
        reg.finish(0);
        assert_eq!(tab.tx_read(&reg, 9, 1), AccessOutcome::Ok);
    }

    #[test]
    fn nt_write_dooms_everyone() {
        let (tab, reg) = setup();
        reg.begin(0);
        reg.begin(1);
        tab.tx_read(&reg, 3, 0);
        tab.tx_write(&reg, 3, 1);
        assert_eq!(
            tab.nt_access(&reg, 3, true, Requester::External),
            AccessOutcome::Ok
        );
        assert!(reg.is_doomed(0));
        assert!(reg.is_doomed(1));
    }

    #[test]
    fn nt_read_spares_readers() {
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_read(&reg, 3, 0);
        assert_eq!(
            tab.nt_access(&reg, 3, false, Requester::External),
            AccessOutcome::Ok
        );
        assert!(!reg.is_doomed(0));
    }

    #[test]
    fn nt_access_skips_self() {
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_read(&reg, 3, 0);
        // Thread 0's own non-transactional write to a line it only *reads*
        // transactionally: by=Thread(0) spares thread 0's read entry.
        assert_eq!(
            tab.nt_access(&reg, 3, true, Requester::Thread(0)),
            AccessOutcome::Ok
        );
        assert!(!reg.is_doomed(0));
    }

    #[test]
    fn unregister_cleans_entries() {
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_read(&reg, 1, 0);
        tab.tx_write(&reg, 2, 0);
        assert_eq!(tab.live_entries(), 2);
        tab.unregister(1, 0);
        tab.unregister(2, 0);
        assert_eq!(tab.live_entries(), 0);
    }

    #[test]
    fn packed_word_layout() {
        let (tab, reg) = setup();
        reg.begin(0);
        reg.begin(3);
        tab.tx_read(&reg, 7, 3);
        tab.tx_write(&reg, 7, 0);
        // Reader bit 3 kept, writer byte = 0 + 1.
        assert_eq!(tab.raw_word(7), (1 << 3) | (1u64 << 56));
        tab.unregister(7, 3);
        tab.unregister(7, 0);
        assert_eq!(tab.raw_word(7), 0);
    }

    #[test]
    fn displaced_writer_unregister_keeps_new_owner() {
        let (tab, reg) = setup();
        reg.begin(0);
        reg.begin(1);
        tab.tx_write(&reg, 4, 0);
        // Requester 1 dooms 0 and takes the writer byte.
        assert_eq!(tab.tx_write(&reg, 4, 1), AccessOutcome::Ok);
        assert!(reg.is_doomed(0));
        // Victim 0's rollback must not clobber the new owner's byte.
        tab.unregister(4, 0);
        assert_eq!(tab.raw_word(4) >> 56, 1 + 1);
    }

    #[test]
    fn fast_path_claim_still_blocks_registration() {
        let (tab, reg) = setup();
        reg.begin(0);
        // The line is empty, so this write takes the single-CAS fast path; the
        // claim must still exclude every other party for the duration of `op`.
        let r = tab.nt_execute(&reg, 6, true, Requester::External, || {
            assert_eq!(tab.raw_word(6) >> WRITER_SHIFT, NT_CLAIM_BYTE);
            assert_eq!(tab.tx_read(&reg, 6, 0), AccessOutcome::Wait);
            assert_eq!(tab.tx_write(&reg, 6, 0), AccessOutcome::Wait);
            assert_eq!(
                tab.nt_access(&reg, 6, true, Requester::External),
                AccessOutcome::Wait
            );
            42
        });
        assert_eq!(r, Ok(42));
        assert!(!reg.is_doomed(0), "empty line: nobody to doom");
        assert_eq!(tab.raw_word(6), 0, "claim released");
        assert_eq!(tab.tx_read(&reg, 6, 0), AccessOutcome::Ok);
    }

    #[test]
    fn nt_write_stress_preserves_doom_semantics() {
        // Transactional writers and a non-transactional writer hammer one line.
        // Strong atomicity demands: once a transaction owns the line and reaches
        // Committing undoomed, no nt write can have executed since it registered
        // (the nt writer must either doom it first or wait). The nt writer
        // constantly alternates between the uncontended fast path (line empty)
        // and the two-phase claim (owners present), so both paths are exercised
        // against the same invariant.
        use std::sync::atomic::AtomicU64;
        const NT_WRITES: u64 = 2000;
        let tab = LineTable::new(1);
        let reg = TxRegistry::new(8);
        let cell = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (tab, reg, cell) = (&tab, &reg, &cell);
                s.spawn(move || {
                    for _ in 0..2000 {
                        reg.begin(t);
                        if tab.tx_write(reg, 0, t) == AccessOutcome::Ok {
                            let seen = cell.load(Ordering::SeqCst);
                            std::hint::spin_loop();
                            if reg.start_commit(t).is_ok() {
                                // Undoomed at commit: the nt writer cannot have
                                // run between our registration and now.
                                assert_eq!(
                                    cell.load(Ordering::SeqCst),
                                    seen,
                                    "nt write raced an undoomed owner"
                                );
                            }
                        }
                        tab.unregister(0, t);
                        reg.finish(t);
                    }
                });
            }
            let (tab, reg, cell) = (&tab, &reg, &cell);
            s.spawn(move || {
                for _ in 0..NT_WRITES {
                    while tab
                        .nt_execute(reg, 0, true, Requester::External, || {
                            cell.fetch_add(1, Ordering::SeqCst)
                        })
                        .is_err()
                    {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(cell.load(Ordering::SeqCst), NT_WRITES, "no lost nt writes");
        assert_eq!(tab.live_entries(), 0, "no leaked claims or registrations");
    }

    #[test]
    fn unregister_waits_out_the_claim_that_displaced_it() {
        use std::sync::atomic::AtomicBool;
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_write(&reg, 3, 0);
        let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            // A non-transactional write dooms writer 0, which rolls back while
            // the claim is still held. The unregister cannot finish before the
            // release on any interleaving; the pause only gives a broken one
            // the time to.
            let r = tab.nt_execute(&reg, 3, true, Requester::External, || {
                assert!(reg.is_doomed(0));
                s.spawn(|| {
                    started.store(true, Ordering::SeqCst);
                    tab.unregister(3, 0);
                    done.store(true, Ordering::SeqCst);
                });
                while !started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert!(
                    !done.load(Ordering::SeqCst),
                    "unregister ran under the claim"
                );
            });
            assert_eq!(r, Ok(()));
        });
        reg.finish(0);
        assert_eq!(tab.raw_word(3), 0, "a writer byte outlived its unregister");
        // Thread 0's own non-transactional accesses find the line clean.
        assert_eq!(
            tab.nt_access(&reg, 3, false, Requester::Thread(0)),
            AccessOutcome::Ok
        );
        assert_eq!(
            tab.nt_access(&reg, 3, true, Requester::Thread(0)),
            AccessOutcome::Ok
        );
        assert_eq!(tab.live_entries(), 0);
    }

    #[test]
    fn nt_write_after_unregistered_writer_is_clean() {
        let (tab, reg) = setup();
        reg.begin(0);
        tab.tx_write(&reg, 2, 0);
        tab.unregister(2, 0);
        reg.finish(0);
        assert_eq!(
            tab.nt_access(&reg, 2, true, Requester::External),
            AccessOutcome::Ok
        );
        assert_eq!(tab.raw_word(2), 0, "claim byte must be released");
    }
}
