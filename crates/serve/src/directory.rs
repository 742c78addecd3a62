//! The tier's id directory: where each swept cell lands in the id-sorted
//! snapshot, kept across ticks so a steady tick places every cell without
//! sorting.
//!
//! [`ServeTier::tick`](crate::ServeTier::tick) sweeps the live engines'
//! reporting cells in a fixed order (engine, then shard, then slot). While
//! membership does not change, that sweep yields the same id sequence
//! every tick, so every cell keeps its rank in id order. The directory
//! records, per sweep position, the cell id and that rank:
//!
//! - **Steady tick.** Each swept id is compared with the directory entry
//!   at its sweep position. On a match the breakdown is written straight
//!   to its rank in the snapshot buffer: no sort, no second buffer.
//! - **Membership change.** A register or deregister, a cell's first
//!   report, or a lane crash or recovery changes the sequence, and the
//!   first mismatch invalidates the directory. The cells placed so far are
//!   compacted to the front of the buffer and the rest of the sweep is
//!   appended. One sort of 16-byte (id, buffer slot, sweep position)
//!   records then yields both the new ranks and the permutation that puts
//!   the buffer in id order, applied in place. The sweep still runs once,
//!   and the 88-byte entries are never sorted.
//!
//! Either way the buffer ends id-ascending with exactly the swept cells,
//! so the snapshot and its aggregates do not depend on which path ran.

use pinnsoc_fleet::{CellId, EstimateBreakdown, SocEstimate};

/// One snapshot entry.
type Entry = (CellId, EstimateBreakdown);

/// Placeholder for buffer slots a steady tick is about to overwrite.
const VACANT: Entry = (
    0,
    EstimateBreakdown {
        best: (0.0, SocEstimate::Coulomb),
        network: None,
        network_fresh: false,
        coulomb: 0.0,
        ekf: None,
        ekf_soc_std: None,
    },
);

/// Sweep position → (cell id, rank in id order), valid for the sweep that
/// last rebuilt it.
#[derive(Debug, Default)]
pub(crate) struct IdDirectory {
    /// Cell id at each sweep position.
    ids: Vec<CellId>,
    /// Rank in id order of each sweep position.
    ranks: Vec<u32>,
    /// Sweep position of each rank (the inverse of `ranks`).
    positions: Vec<u32>,
}

impl IdDirectory {
    /// Starts placing one tick's sweep of at most `capacity` cells into
    /// `cells` (any previous contents are overwritten or discarded).
    pub(crate) fn placement<'a>(
        &'a mut self,
        cells: &'a mut Vec<Entry>,
        capacity: usize,
    ) -> Placement<'a> {
        cells.resize(self.ids.len(), VACANT);
        cells.reserve(capacity.saturating_sub(cells.len()));
        Placement {
            dir: self,
            cells,
            next: 0,
            moves: None,
        }
    }
}

/// One buffer entry on the rebuild path.
#[derive(Debug, Clone, Copy)]
struct Move {
    id: CellId,
    /// Where the entry sits in the buffer now.
    from: u32,
    /// Its sweep position.
    pos: u32,
}

/// Marks a source slot whose entry already reached its rank.
const MOVED: u32 = u32::MAX;

/// One tick's sweep in progress: feed every swept cell to
/// [`place`](Self::place) in sweep order, then [`finish`](Self::finish).
pub(crate) struct Placement<'a> {
    dir: &'a mut IdDirectory,
    cells: &'a mut Vec<Entry>,
    /// Sweep position of the next cell.
    next: usize,
    /// `None` while every swept cell matched the directory; on the
    /// rebuild path, one move per buffer entry, in buffer order.
    moves: Option<Vec<Move>>,
}

impl Placement<'_> {
    /// Places the next swept cell.
    #[inline]
    pub(crate) fn place(&mut self, id: CellId, breakdown: EstimateBreakdown) {
        let pos = self.next;
        self.next += 1;
        if self.moves.is_none() {
            if self.dir.ids.get(pos) == Some(&id) {
                self.cells[self.dir.ranks[pos] as usize] = (id, breakdown);
                return;
            }
            self.invalidate(pos);
        }
        let from = self.cells.len() as u32;
        let moves = self.moves.as_mut().expect("rebuild path");
        moves.push(Move {
            id,
            from,
            pos: pos as u32,
        });
        self.cells.push((id, breakdown));
    }

    /// Switches to the rebuild path after `placed` matching cells: moves
    /// those cells (they sit at ascending ranks) to the front of the
    /// buffer, drops the slots nothing was written to, and starts the
    /// move list.
    fn invalidate(&mut self, placed: usize) {
        let mut moves = Vec::with_capacity(self.cells.capacity());
        for (rank, &pos) in self.dir.positions.iter().enumerate() {
            if (pos as usize) < placed {
                let from = moves.len();
                self.cells[from] = self.cells[rank];
                moves.push(Move {
                    id: self.cells[from].0,
                    from: from as u32,
                    pos,
                });
            }
        }
        self.cells.truncate(moves.len());
        self.moves = Some(moves);
    }

    /// Completes the sweep, leaving the buffer id-ascending. Returns
    /// whether the directory had to be rebuilt.
    pub(crate) fn finish(mut self) -> bool {
        if self.moves.is_none() {
            if self.next == self.dir.ids.len() {
                return false;
            }
            // The sweep ended early: fewer cells than last time.
            self.invalidate(self.next);
        }
        let mut moves = self.moves.take().expect("rebuild path");
        // Ids are unique across the tier, so this ranks every entry.
        moves.sort_unstable_by_key(|m| m.id);
        let dir = &mut *self.dir;
        let cells = &mut *self.cells;
        // Put every entry at its rank in place, one permutation cycle at
        // a time: each slot takes the entry its move names, and the cycle
        // closes on the entry first lifted out. `ranks` serves as the
        // compact list of sources (and done marks) until it is rebuilt.
        let sources = &mut dir.ranks;
        sources.clear();
        sources.extend(moves.iter().map(|m| m.from));
        for start in 0..sources.len() {
            let mut from = sources[start];
            if from == MOVED || from as usize == start {
                continue;
            }
            let lifted = cells[start];
            let mut at = start;
            loop {
                sources[at] = MOVED;
                if from as usize == start {
                    cells[at] = lifted;
                    break;
                }
                cells[at] = cells[from as usize];
                at = from as usize;
                from = sources[at];
            }
        }
        dir.ids.resize(moves.len(), 0);
        dir.positions.resize(moves.len(), 0);
        for (rank, m) in moves.iter().enumerate() {
            dir.ids[m.pos as usize] = m.id;
            dir.ranks[m.pos as usize] = rank as u32;
            dir.positions[rank] = m.pos;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(soc: f64) -> EstimateBreakdown {
        EstimateBreakdown {
            best: (soc, SocEstimate::Network),
            coulomb: soc,
            ..VACANT.1
        }
    }

    /// Places `sweep` (ids, with each id's SoC its own value / 100) and
    /// returns the resulting ids and whether the directory was rebuilt.
    fn tick(dir: &mut IdDirectory, cells: &mut Vec<Entry>, sweep: &[CellId]) -> bool {
        let mut placement = dir.placement(cells, sweep.len());
        for &id in sweep {
            placement.place(id, breakdown(id as f64 / 100.0));
        }
        let rebuilt = placement.finish();
        let mut expected: Vec<CellId> = sweep.to_vec();
        expected.sort_unstable();
        let ids: Vec<CellId> = cells.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, expected, "sweep {sweep:?}");
        for (id, b) in cells.iter() {
            assert_eq!(
                b.best.0,
                *id as f64 / 100.0,
                "cell {id} carries its own value"
            );
        }
        rebuilt
    }

    #[test]
    fn steady_sweeps_skip_the_rebuild() {
        let mut dir = IdDirectory::default();
        let mut cells = Vec::new();
        assert!(tick(&mut dir, &mut cells, &[9, 1, 4, 7]));
        assert!(!tick(&mut dir, &mut cells, &[9, 1, 4, 7]));
        // A fresh buffer (the old one still pinned by a reader) works too.
        let mut fresh = Vec::new();
        assert!(!tick(&mut dir, &mut fresh, &[9, 1, 4, 7]));
    }

    #[test]
    fn every_kind_of_sequence_change_rebuilds() {
        let mut dir = IdDirectory::default();
        let mut cells = Vec::new();
        tick(&mut dir, &mut cells, &[9, 1, 4, 7]);
        // Mismatch in the middle, at the start, at the end, a longer and a
        // shorter sweep, then an empty one.
        for sweep in [
            &[9, 1, 5, 7][..],
            &[2, 1, 5, 7],
            &[2, 1, 5, 8],
            &[2, 1, 5, 8, 3],
            &[2, 1, 5],
            &[],
            &[6, 3],
        ] {
            assert!(tick(&mut dir, &mut cells, sweep), "{sweep:?} must rebuild");
            assert!(!tick(&mut dir, &mut cells, sweep), "{sweep:?} then holds");
        }
    }
}
