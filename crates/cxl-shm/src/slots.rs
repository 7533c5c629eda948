//! Offset arithmetic for a slotted exposure window shared by a rank group.
//!
//! The collective data plane (`cmpi-core`'s `dataplane` module) allocates one
//! arena object per communicator and carves it into a fixed grid; the message
//! stream of a promoted pair (`cmpi-core`'s `transport::conn::Stream`) is the
//! same grid with one writer, one reader and one flag cell per slot, and
//! publishes in the same two formats, slot + flag and stamped lines:
//!
//! ```text
//! ┌ control ──────────────────────────────────────┬ data ─────────────────────────┐
//! │ flag cells, slot-major│ done cells            │ writer 0 slots │ writer 1 …   │
//! │ (slot, phase) rows of │ one per reader:       │ slot 0 │ slot 1 │ …           │
//! │ one cell per writer:  │ (value, stamp) entries│ a payload, or stamped lines:  │
//! │ value│stamp│48 B      │                       │ value│stamp│48 B, value│56 B …│
//! └───────────────────────┴───────────────────────┴───────────────────────────────┘
//! ```
//!
//! * **Flag cells** are the notified-RMA publish flags: a writer exposes data
//!   in its slot, then non-temporally stores the occupant's sequence number
//!   into the slot's flag cell; readers poll the flag with non-temporal
//!   loads. A payload of at most [`SLOT_CELL_INLINE`] bytes needs no data
//!   slot at all: it rides in the flag cell behind the value and timestamp
//!   words, so publishing it is one line store and reading it one line load.
//!   In a group window three cells per slot cover three publish phases
//!   within one collective (a host-sliced allreduce exposes the full input
//!   vector, then its host's partial of a block, then the reduced block); a
//!   stream publishes each slot once per lap and has one. The cells are laid
//!   out **slot-major**: the cells all writers raise in one `(slot, phase)` —
//!   what a rank of a flat collective reads in one phase — are a contiguous
//!   *row* in writer order, so a reader acquires them with one streamed read
//!   from the first to the last writer it waits for instead of a device round
//!   trip per writer.
//! * **Stamped lines** carry a payload of a few lines with no flag at all:
//!   every line begins with the exposure's value word, the first one with
//!   the timestamp beside it and [`SLOT_CELL_INLINE`] bytes of payload, every
//!   further one [`SLOT_LINE_PAYLOAD`] ([`stamped_lines`], [`stamped_pos`]).
//!   A reader that finds the value in every line it needs — the first, for
//!   the stamp, and those its bytes lie in ([`stamped_span`]) — has the
//!   payload; a flag cell with its inline payload is the one-line case, and
//!   longer ones sit at the head of their region of a data slot. A stream's
//!   message splits them: its first line is the slot's flag cell (value,
//!   stamp, the message's 16-byte frame and 32 bytes of payload) and the
//!   further ones sit at the head of the slot, so one store stream publishes
//!   it and no flag cell goes up after the data.
//! * **Done cells** close the loop, one per *reader*, so the control region
//!   is linear in the group size. In a group window ([`SlotLayout::new`]) a
//!   reader's cell is its completion line: the reader stores there, once per
//!   collective, the sequence number through which it has finished reading
//!   *everything* exposed to it, whoever wrote it, and one load of that line
//!   tells a writer about all of its slots at once. The line keeps the
//!   `(value, timestamp)` entries of the reader's last `slots` stores, so a
//!   writer finds the stamp of the store that first reached what it waits for
//!   even after the reader has moved on; the readers' lines are contiguous in
//!   reader order, one streamed read for a writer that waits for several. The
//!   single reader of a stream ([`SlotLayout::single_reader`]) keeps an entry
//!   per slot, each with the stamp of exactly the hand-back stored there.
//!
//! Flag cells and stamped lines are one cache line each and done cells a
//! whole number of lines, so a non-temporal store never shares a line with a
//! cell another rank writes. Every value is paired with a `u64` virtual-time timestamp (the
//! writer's clock at the store, merged by whoever observes the value); the
//! timestamp is stored before the value and loaded after it, so an observer
//! never pairs a new value with an old stamp. The PSCW cells and fence slots
//! of an RMA window in `cmpi-core` are this same `(value, timestamp)` entry,
//! stored and loaded by the one pair of helpers these cells go through
//! (`store_stamped` / `load_stamped`).

/// Bytes per flag cell (one cache line).
pub const SLOT_CELL_SIZE: usize = 64;

/// Byte offset of the timestamp word within a flag cell or done entry (the
/// value word is at 0).
pub const SLOT_CELL_TS_OFF: usize = 8;

/// Byte offset of the inline payload within a flag cell.
pub const SLOT_CELL_DATA_OFF: usize = 16;

/// Largest payload that rides in the flag cell itself — the first line of a
/// stamped exposure.
pub const SLOT_CELL_INLINE: usize = SLOT_CELL_SIZE - SLOT_CELL_DATA_OFF;

/// Byte offset of the payload within every line of a stamped exposure but the
/// first: only the sequence word precedes it.
pub const SLOT_LINE_DATA_OFF: usize = 8;

/// Payload bytes of every line of a stamped exposure but the first.
pub const SLOT_LINE_PAYLOAD: usize = SLOT_CELL_SIZE - SLOT_LINE_DATA_OFF;

/// Lines a stamped exposure of `len` bytes takes: [`SLOT_CELL_INLINE`] bytes
/// in the first (beside the stamp), [`SLOT_LINE_PAYLOAD`] in each further one.
/// An empty exposure is its first line alone.
pub fn stamped_lines(len: usize) -> usize {
    1 + len
        .saturating_sub(SLOT_CELL_INLINE)
        .div_ceil(SLOT_LINE_PAYLOAD)
}

/// Where payload byte `p` of a stamped exposure lies: `(line, offset within
/// the line)`.
pub fn stamped_pos(p: usize) -> (usize, usize) {
    match p.checked_sub(SLOT_CELL_INLINE) {
        None => (0, SLOT_CELL_DATA_OFF + p),
        Some(q) => (
            1 + q / SLOT_LINE_PAYLOAD,
            SLOT_LINE_DATA_OFF + q % SLOT_LINE_PAYLOAD,
        ),
    }
}

/// The lines past the first that hold bytes `off..off + len` of a stamped
/// exposure — empty when they all lie in the first line. A reader of the
/// range loads the first line (it carries the stamp) and these.
pub fn stamped_span(off: usize, len: usize) -> std::ops::Range<usize> {
    let first = stamped_pos(off).0.max(1);
    let end = match len {
        0 => first,
        _ => (stamped_pos(off + len - 1).0 + 1).max(first),
    };
    first..end
}

/// Bytes per `(value, timestamp)` entry of a done cell.
pub const SLOT_DONE_ENTRY: usize = 16;

/// Publish phases (flag cells) per slot of a group window.
pub const SLOT_PHASES: usize = 3;

/// The fixed grid of one exposure window: offsets of every flag cell, done
/// entry and data slot, derived from the group size, the slot count and the
/// per-slot capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    ranks: usize,
    slots: usize,
    slot_bytes: usize,
    phases: usize,
    done_entries: usize,
}

impl SlotLayout {
    /// Lay out a group window: `ranks` members, each a writer with `slots`
    /// slots of `slot_bytes` bytes and a reader with `slots` done entries (its
    /// completion line: the last `slots` stores). `slot_bytes` is rounded down
    /// to cache-line alignment so data slots never share a line with each
    /// other.
    pub fn new(ranks: usize, slots: usize, slot_bytes: usize) -> Self {
        SlotLayout {
            ranks,
            slots,
            slot_bytes: slot_bytes & !(SLOT_CELL_SIZE - 1),
            phases: SLOT_PHASES,
            done_entries: slots,
        }
    }

    /// Lay out a window with one writer and one reader (both index 0): one
    /// flag cell per slot, the reader keeping a done entry per slot.
    pub fn single_reader(slots: usize, slot_bytes: usize) -> Self {
        SlotLayout {
            phases: 1,
            done_entries: slots,
            ..Self::new(1, slots, slot_bytes)
        }
    }

    /// Number of writers (the communicator's group size).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Slots per writer.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Usable bytes in one data slot.
    pub fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// Flag cells per slot.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Offset of the publish-flag cell for `(writer, slot, phase)`:
    /// slot-major, so the cells of one `(slot, phase)` are consecutive lines
    /// in writer order.
    pub fn flag_off(&self, writer: usize, slot: usize, phase: usize) -> usize {
        debug_assert!(writer < self.ranks && slot < self.slots && phase < self.phases);
        ((slot * self.phases + phase) * self.ranks + writer) * SLOT_CELL_SIZE
    }

    fn done_base(&self) -> usize {
        self.ranks * self.slots * self.phases * SLOT_CELL_SIZE
    }

    /// Done entries per reader, one per slot: the last `slots` stores of a
    /// completion line in a group window, a hand-back per slot in a
    /// single-reader window.
    pub fn done_entries(&self) -> usize {
        self.done_entries
    }

    fn done_cell_len(&self) -> usize {
        (self.done_entries * SLOT_DONE_ENTRY).next_multiple_of(SLOT_CELL_SIZE)
    }

    /// Offset of `reader`'s done entry number `entry`.
    pub fn done_off(&self, reader: usize, entry: usize) -> usize {
        debug_assert!(reader < self.ranks && entry < self.done_entries);
        self.done_base() + reader * self.done_cell_len() + entry * SLOT_DONE_ENTRY
    }

    /// Length of the control region (all flag + done cells); the creator
    /// zeroes `0..control_len()` before publishing the window.
    pub fn control_len(&self) -> usize {
        self.done_base() + self.ranks * self.done_cell_len()
    }

    /// Offset of `writer`'s data `slot`.
    pub fn data_off(&self, writer: usize, slot: usize) -> usize {
        debug_assert!(writer < self.ranks && slot < self.slots);
        self.control_len() + (writer * self.slots + slot) * self.slot_bytes
    }

    /// Total window size in bytes.
    pub fn total_len(&self) -> usize {
        self.control_len() + self.ranks * self.slots * self.slot_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_bytes_align_down_to_cache_line() {
        let l = SlotLayout::new(3, 4, 1000);
        assert_eq!(l.slot_bytes(), 960);
        let l = SlotLayout::new(3, 4, 1024);
        assert_eq!(l.slot_bytes(), 1024);
    }

    /// Every control cell of `l` as `(offset, len, owner)`: flag cells (owned
    /// by their writer), then each reader's done entries.
    fn control_cells(l: &SlotLayout) -> Vec<(usize, usize, String)> {
        let mut cells = Vec::new();
        for r in 0..l.ranks() {
            for s in 0..l.slots() {
                for p in 0..l.phases() {
                    cells.push((l.flag_off(r, s, p), SLOT_CELL_SIZE, format!("writer {r}")));
                }
            }
            for e in 0..l.done_entries() {
                cells.push((l.done_off(r, e), SLOT_DONE_ENTRY, format!("reader {r}")));
            }
        }
        cells
    }

    fn layouts() -> Vec<SlotLayout> {
        vec![
            SlotLayout::new(3, 2, 256),
            SlotLayout::new(5, 4, 256),
            SlotLayout::new(64, 4, 256),
            // A stream's geometries: a done cell of one line, of two.
            SlotLayout::single_reader(4, 1024),
            SlotLayout::single_reader(8, 64 * 1024),
        ]
    }

    #[test]
    fn no_cell_overlaps_another() {
        for l in layouts() {
            let mut cells = control_cells(&l);
            cells.sort_unstable();
            for pair in cells.windows(2) {
                let ((a, a_len, _), (b, ..)) = (&pair[0], &pair[1]);
                assert!(a + a_len <= *b, "cells at {a}+{a_len} and {b} overlap");
            }
            let (last, last_len, _) = cells.last().unwrap();
            assert!(last + last_len <= l.control_len());
            assert_eq!(l.data_off(0, 0), l.control_len());
            assert_eq!(l.control_len() % SLOT_CELL_SIZE, 0);
        }
    }

    #[test]
    fn no_two_owners_store_into_one_line() {
        // A writer stores its flag cells, a reader its done entries: a line
        // must have a single owner (a rank's two roles count as two — its
        // flags and its completion line are polled by different peers).
        for l in layouts() {
            let mut owner = std::collections::BTreeMap::new();
            for (off, _, who) in control_cells(&l) {
                let line = off / SLOT_CELL_SIZE;
                assert_eq!(owner.entry(line).or_insert_with(|| who.clone()), &who);
            }
        }
    }

    #[test]
    fn the_flag_cells_of_one_slot_and_phase_are_a_row_in_writer_order() {
        for l in layouts() {
            for s in 0..l.slots() {
                for p in 0..l.phases() {
                    for w in 1..l.ranks() {
                        assert_eq!(
                            l.flag_off(w, s, p),
                            l.flag_off(w - 1, s, p) + SLOT_CELL_SIZE
                        );
                    }
                }
            }
            // And so are the readers' completion lines of a group window.
            for r in 1..l.ranks() {
                assert_eq!(l.done_off(r, 0), l.done_off(r - 1, 0) + SLOT_CELL_SIZE);
            }
        }
    }

    #[test]
    fn inline_payload_fills_the_flag_cell() {
        assert_eq!(SLOT_CELL_INLINE, 48);
        assert_eq!(SLOT_CELL_TS_OFF + 8, SLOT_CELL_DATA_OFF);
        assert_eq!(SLOT_CELL_DATA_OFF + SLOT_CELL_INLINE, SLOT_CELL_SIZE);
    }

    #[test]
    fn stamped_lines_carry_48_bytes_then_56_each() {
        for (len, lines) in [
            (0, 1),
            (1, 1),
            (48, 1),
            (49, 2),
            (104, 2),
            (105, 3),
            (1024, 19),
        ] {
            assert_eq!(stamped_lines(len), lines, "{len} B");
        }
        // Every byte has one place, in order, past the line's words.
        let places: Vec<(usize, usize)> = (0..1024).map(stamped_pos).collect();
        assert!(places.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(places[0], (0, SLOT_CELL_DATA_OFF));
        assert_eq!(places[48], (1, SLOT_LINE_DATA_OFF));
        assert_eq!(places[103], (1, SLOT_CELL_SIZE - 1));
        assert_eq!(places[1023].0 + 1, stamped_lines(1024));
        // A range in the first line needs no other; one past it needs the
        // lines it touches, never the ones before it.
        assert_eq!(stamped_span(0, 48), 1..1);
        assert_eq!(stamped_span(40, 16), 1..2);
        assert_eq!(stamped_span(56, 8), 1..2);
        assert_eq!(stamped_span(200, 100), 3..6);
        assert_eq!(stamped_span(200, 0), 3..3);
    }

    #[test]
    fn control_region_is_linear_in_the_group_size() {
        let len = |ranks| SlotLayout::new(ranks, 4, 4096).control_len();
        // One completion line and `slots × phases` flag lines per rank.
        let per_rank = (4 * SLOT_PHASES + 1) * SLOT_CELL_SIZE;
        for ranks in [1, 2, 8, 64, 1024] {
            assert_eq!(len(ranks), ranks * per_rank);
        }
        // The (writer, reader, slot) ack matrix this replaces took
        // 64 × 64 × 4 lines (1 MiB) at 64 ranks on top of the flags.
        assert!(len(64) <= 56 * 1024, "{} bytes", len(64));
    }

    #[test]
    fn data_slots_cover_the_tail_exactly() {
        let l = SlotLayout::new(2, 4, 512);
        assert_eq!(l.data_off(0, 0), l.control_len());
        // Slots tile contiguously, writer-major.
        for w in 0..2 {
            for s in 0..4 {
                let expect = l.control_len() + (w * 4 + s) * 512;
                assert_eq!(l.data_off(w, s), expect);
            }
        }
        assert_eq!(l.total_len(), l.control_len() + 2 * 4 * 512);
    }
}
