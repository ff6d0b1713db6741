//! The NVRAM Map-table journal.
//!
//! "To prevent data loss in case of a power failure, the Map table data
//! structure is stored in non-volatile RAM" (paper §III-B). This module
//! is the byte-level format of that structure: an append-only journal of
//! remap/clear records at exactly the paper's **20 bytes per entry**
//! (§IV-D2), each self-checksummed so recovery can detect a torn tail
//! write (the classic NVRAM failure mode) and stop at the last complete
//! record.
//!
//! Recovery rebuilds the redirected LBA→PBA relation from the journal;
//! reference counts and content state are rebuilt by the store's scan,
//! as in any journaled system. [`MapJournal::replay`] is the one
//! decoder: it reads the entries newest first and reports each LBA once,
//! with its final state, so checking the journal against the live Map
//! table needs no hash map — a [`BlockSet`] of LBAs already reported is
//! the only state.

use crate::store::BlockSet;
use pod_types::rng::splitmix64;
use pod_types::{Lba, Pba, PodError, PodResult};

/// Bytes per journal entry: 8 (lba) + 8 (pba) + 1 (op) + 3 (checksum).
pub const JOURNAL_ENTRY_BYTES: usize = 20;

const OP_REMAP: u8 = 1;
const OP_CLEAR: u8 = 2;

/// An entry's 3-byte checksum: the low bytes of a SplitMix64 chain over
/// its three fields, a word at a time. Each link is a bijection of the
/// running word, so any change to one field changes the 64-bit mix.
fn checksum(lba: u64, pba: u64, op: u8) -> [u8; 3] {
    let mix = splitmix64(splitmix64(splitmix64(u64::from(op)) ^ lba) ^ pba);
    let [a, b, c, ..] = mix.to_le_bytes();
    [a, b, c]
}

/// Append-only journal of Map-table mutations.
#[derive(Debug, Clone, Default)]
pub struct MapJournal {
    buf: Vec<u8>,
}

impl MapJournal {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Journal over previously persisted bytes (e.g. read back from
    /// NVRAM after a restart).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { buf: bytes }
    }

    /// Record that `lba` now redirects to `pba`.
    pub fn append_remap(&mut self, lba: Lba, pba: Pba) {
        self.append(OP_REMAP, lba.raw(), pba.raw());
    }

    /// Record that `lba` is no longer redirected (maps home again or was
    /// trimmed).
    pub fn append_clear(&mut self, lba: Lba) {
        self.append(OP_CLEAR, lba.raw(), 0);
    }

    fn append(&mut self, op: u8, lba: u64, pba: u64) {
        let mut entry = [0u8; JOURNAL_ENTRY_BYTES];
        entry[0..8].copy_from_slice(&lba.to_le_bytes());
        entry[8..16].copy_from_slice(&pba.to_le_bytes());
        entry[16] = op;
        entry[17..20].copy_from_slice(&checksum(lba, pba, op));
        self.buf.extend_from_slice(&entry);
    }

    /// Raw persisted bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Complete entries recorded.
    pub fn entries(&self) -> usize {
        self.buf.len() / JOURNAL_ENTRY_BYTES
    }

    /// `true` when nothing was journalled.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Replay the journal: call `visit(lba, state)` once for every LBA
    /// it names, with that LBA's final state — `Some(pba)` when its last
    /// entry redirects it, `None` when its last entry clears it. Entries
    /// are read newest first, so the first entry met for an LBA is its
    /// last; `blocks` is the logical space the journal maps, and sizes
    /// the set of LBAs already reported.
    ///
    /// A torn final entry (incomplete length, bad checksum or unknown op
    /// on the last record) is tolerated and ignored — that is precisely
    /// the state an interrupted NVRAM append leaves behind. Corruption
    /// anywhere *before* the tail, or an LBA at or past `blocks`, is an
    /// integrity error naming the first such entry in append order; the
    /// visits made before an error is returned mean nothing.
    pub fn replay(&self, blocks: u64, mut visit: impl FnMut(u64, Option<u64>)) -> PodResult<()> {
        let complete = self.entries();
        let mut reported = BlockSet::new(blocks);
        let mut error = None;
        let entries = self.buf.chunks_exact(JOURNAL_ENTRY_BYTES).enumerate();
        for (i, entry) in entries.rev() {
            let lba = u64::from_le_bytes(entry[0..8].try_into().expect("8 bytes"));
            let pba = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let op = entry[16];
            let fault = if entry[17..20] != checksum(lba, pba, op) {
                Some(format!("journal entry {i} fails its checksum"))
            } else if op != OP_REMAP && op != OP_CLEAR {
                Some(format!("journal entry {i} has unknown op {op}"))
            } else {
                None
            };
            match fault {
                // Torn tail: an interrupted append, ignored.
                Some(_) if i + 1 == complete => {}
                // Walking backwards, each fault found precedes the last.
                Some(msg) => error = Some(msg),
                None if lba >= blocks => {
                    error = Some(format!(
                        "journal entry {i} names lba {lba} outside the {blocks}-block logical space"
                    ));
                }
                None => {
                    if error.is_none() && reported.insert(lba) {
                        visit(lba, (op == OP_REMAP).then_some(pba));
                    }
                }
            }
        }
        error.map_or(Ok(()), |msg| Err(PodError::Inconsistency(msg)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Logical space of the test journals.
    const BLOCKS: u64 = 1_000;

    /// The redirections `j` recovers, ascending by LBA.
    fn recovered(j: &MapJournal) -> PodResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        j.replay(BLOCKS, |lba, pba| out.extend(pba.map(|p| (lba, p))))?;
        out.sort_unstable();
        Ok(out)
    }

    #[test]
    fn entry_size_matches_paper() {
        let mut j = MapJournal::new();
        j.append_remap(Lba::new(1), Pba::new(2));
        assert_eq!(j.bytes().len(), 20, "§IV-D2: 20 bytes per entry");
        assert_eq!(j.entries(), 1);
    }

    #[test]
    fn replay_rebuilds_mapping() {
        let mut j = MapJournal::new();
        j.append_remap(Lba::new(1), Pba::new(100));
        j.append_remap(Lba::new(2), Pba::new(100));
        j.append_remap(Lba::new(1), Pba::new(200)); // supersedes
        j.append_clear(Lba::new(2));
        assert_eq!(recovered(&j).expect("clean journal replays"), [(1, 200)]);
        // Each LBA is reported once, with its final state.
        let mut visits = Vec::new();
        j.replay(BLOCKS, |lba, pba| visits.push((lba, pba)))
            .expect("replays");
        assert_eq!(visits, [(2, None), (1, Some(200))]);
    }

    #[test]
    fn replay_matches_a_forward_replay_into_a_map() {
        // The spec: apply every entry oldest first to a map.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut j = MapJournal::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..5_000 {
            let lba = next(64) * 13;
            if next(4) == 0 {
                j.append_clear(Lba::new(lba));
                model.remove(&lba);
            } else {
                let pba = next(BLOCKS);
                j.append_remap(Lba::new(lba), Pba::new(pba));
                model.insert(lba, pba);
            }
        }
        let mut want: Vec<(u64, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(recovered(&j).expect("replays"), want);
    }

    #[test]
    fn empty_journal_replays_empty() {
        assert!(recovered(&MapJournal::new()).expect("empty ok").is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let mut j = MapJournal::new();
        j.append_remap(Lba::new(1), Pba::new(100));
        j.append_remap(Lba::new(2), Pba::new(200));
        // Simulate a power cut mid-append: drop 7 bytes of the tail.
        let mut bytes = j.bytes().to_vec();
        bytes.truncate(bytes.len() - 7);
        let torn = MapJournal::from_bytes(bytes);
        assert_eq!(recovered(&torn).expect("tolerates tail"), [(1, 100)]);
    }

    #[test]
    fn corrupt_tail_checksum_is_tolerated() {
        let mut j = MapJournal::new();
        j.append_remap(Lba::new(1), Pba::new(100));
        j.append_remap(Lba::new(2), Pba::new(200));
        let mut bytes = j.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // scribble the final checksum
        let recovered = recovered(&MapJournal::from_bytes(bytes)).expect("tail only");
        assert_eq!(recovered.len(), 1);
    }

    #[test]
    fn every_single_bit_flip_is_caught_before_the_tail_and_tolerated_at_it() {
        let mut j = MapJournal::new();
        j.append_remap(Lba::new(0), Pba::new(0));
        j.append_remap(Lba::new(999), Pba::new(u64::MAX));
        j.append_clear(Lba::new(512));
        j.append_remap(Lba::new(7), Pba::new(0x0123_4567_89AB_CDEF));
        j.append_remap(Lba::new(1), Pba::new(3));
        let clean = recovered(&j).expect("clean journal replays");
        let tail = j.entries() - 1;
        let mut without_tail = j.bytes().to_vec();
        without_tail.truncate(tail * JOURNAL_ENTRY_BYTES);
        let untorn = recovered(&MapJournal::from_bytes(without_tail)).expect("replays");
        for bit in 0..j.bytes().len() * 8 {
            let mut bytes = j.bytes().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let entry = bit / 8 / JOURNAL_ENTRY_BYTES;
            let got = recovered(&MapJournal::from_bytes(bytes));
            if entry == tail {
                assert_eq!(got.as_ref(), Ok(&untorn), "bit {bit} of the tail entry");
            } else {
                assert!(got.is_err(), "bit {bit} of entry {entry} went unnoticed");
            }
        }
        assert_ne!(clean, untorn, "the tail entry matters to the recovery");
    }

    #[test]
    fn mid_journal_corruption_is_an_error() {
        let mut j = MapJournal::new();
        j.append_remap(Lba::new(1), Pba::new(100));
        j.append_remap(Lba::new(2), Pba::new(200));
        j.append_remap(Lba::new(3), Pba::new(300));
        let mut bytes = j.bytes().to_vec();
        bytes[5] ^= 0xFF; // corrupt the FIRST entry
        assert!(recovered(&MapJournal::from_bytes(bytes)).is_err());
    }

    #[test]
    fn the_first_bad_entry_in_append_order_is_named() {
        let mut j = MapJournal::new();
        for i in 0..6 {
            j.append_remap(Lba::new(i), Pba::new(100 + i));
        }
        let mut bytes = j.bytes().to_vec();
        // Entry 1: an op no writer emits, with a valid checksum.
        let e1 = JOURNAL_ENTRY_BYTES;
        bytes[e1 + 16] = 9;
        bytes[e1 + 17..e1 + 20].copy_from_slice(&checksum(1, 101, 9));
        // Entry 3: a bad checksum; entry 5 (the tail): another.
        bytes[3 * JOURNAL_ENTRY_BYTES] ^= 0xFF;
        bytes[5 * JOURNAL_ENTRY_BYTES] ^= 0xFF;
        let err = |bytes: &[u8]| {
            recovered(&MapJournal::from_bytes(bytes.to_vec()))
                .expect_err("corrupt before the tail")
                .to_string()
        };
        assert!(err(&bytes).contains("journal entry 1 has unknown op 9"));
        // Without entry 1's damage, entry 3 is the first.
        let mut fixed = bytes.clone();
        fixed[e1..e1 + JOURNAL_ENTRY_BYTES].copy_from_slice(&j.bytes()[e1..2 * e1]);
        assert!(err(&fixed).contains("journal entry 3 fails its checksum"));
        // An LBA outside the logical space is an error even at the tail.
        let mut far = MapJournal::new();
        far.append_remap(Lba::new(BLOCKS), Pba::new(1));
        assert!(recovered(&far)
            .expect_err("outside the space")
            .to_string()
            .contains("journal entry 0 names lba 1000 outside the 1000-block logical space"));
    }
}
