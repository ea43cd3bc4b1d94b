//! Indexed ready-queue structures for the RTOS scheduler.
//!
//! [`Rtos`](crate::Rtos) used to pick the next task with a linear
//! `min_by_key` scan over a `Vec<TaskId>` and remove tasks with `retain` —
//! O(n) on every dispatch, on the hottest path of the whole model (the
//! paper's speed claim rests on that path being cheap). [`ReadyQueue`]
//! replaces the scan with one of two indexed structures, chosen per
//! scheduling algorithm by [`ReadyQueue::for_alg`]:
//!
//! * **Indexed** (fixed-priority, FIFO, round-robin, RMS): a sorted array
//!   of distinct *level keys* (the first two components of the
//!   [`Rank`]), an occupancy bitmap over the levels, and one FIFO
//!   `VecDeque` per level ordered by the rank's sequence number. Insertion
//!   at the back and the minimum at the front of the lowest occupied level
//!   are O(1) (amortized); a brand-new level key costs one sorted insert,
//!   and priority levels are few and recur. Each task's slot caches the
//!   level index of its last insert, so re-inserting at the same level
//!   skips the binary search over the keys.
//! * **Heap** (EDF, whose first key component is a continuously varying
//!   deadline): a lazy-deletion binary min-heap over full ranks.
//!
//! Removal is O(1) in both: each task has a *stamp slot*, and an entry in
//! the structure is live only while its recorded stamp matches the slot.
//! Removing a task zeroes its slot. In the indexed variant an entry at the
//! front of its level (a dispatch) is dropped at once; any other stale
//! entry is discarded when it surfaces at a front/top during
//! [`peek`](ReadyQueue::peek). Every entry is cleaned up at most once, so
//! all operations stay amortized O(1) / O(log n).
//!
//! Because ranks never tie (see
//! [`SchedAlg::queue_rank`](crate::SchedAlg)), the structure's minimum is
//! the *unique* rank-minimal task — exactly what the old first-minimal
//! linear scan returned. The scheduler-conformance oracle keeps its own
//! independent linear scan as the cross-check.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::sched::SchedAlg;

/// Normalized scheduling key: `(level_hi, level_lo, seq)`, compared
/// lexicographically, lower is more urgent. The first two components form
/// the priority level; `seq` is the globally unique FIFO sequence number,
/// so two queued ranks are never equal.
pub type Rank = (u64, u64, u64);

/// One queued entry of the indexed variant: `(task, stamp, seq)`.
type Entry = (u32, u64, u64);

/// Per-task liveness slot: an entry in the structure is live iff its stamp
/// matches. Stamp 0 means "not queued".
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u64,
    rank: Rank,
    /// Level index of the task's last insert into the indexed variant.
    /// A new level key shifts the indices after it, so this is a hint,
    /// valid while `Indexed::keys` holds the rank's level key there.
    level: usize,
}

fn is_live(slots: &[Slot], task: u32, stamp: u64) -> bool {
    slots[task as usize].stamp == stamp
}

/// Priority-bitmap + per-level FIFO structure for algorithms whose level
/// key space is small and recurring (static priorities, RMS periods).
#[derive(Debug, Default)]
struct Indexed {
    /// Sorted distinct level keys `(level_hi, level_lo)`.
    keys: Vec<(u64, u64)>,
    /// Parallel per-level FIFOs, each sorted by seq (stale entries
    /// included — a stale duplicate shares its live twin's seq).
    fifos: Vec<VecDeque<Entry>>,
    /// Occupancy bitmap over level indices: bit i set iff `fifos[i]` is
    /// non-empty (it may still hold only stale entries; `peek` drains
    /// those and clears the bit).
    occ: Vec<u64>,
}

impl Indexed {
    fn set_bit(&mut self, i: usize) {
        self.occ[i / 64] |= 1 << (i % 64);
    }

    fn clear_bit(&mut self, i: usize) {
        self.occ[i / 64] &= !(1 << (i % 64));
    }

    fn lowest_occupied(&self) -> Option<usize> {
        self.occ
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Recomputes the bitmap from deque emptiness — only needed after a
    /// new level key shifts the indices.
    fn rebuild_bits(&mut self) {
        self.occ.clear();
        self.occ.resize(self.keys.len().div_ceil(64), 0);
        for i in 0..self.fifos.len() {
            if !self.fifos[i].is_empty() {
                self.set_bit(i);
            }
        }
    }

    /// The index of level `key`: `hint` when it still holds the key
    /// (level keys are distinct), else the sorted position found by
    /// binary search.
    fn level(&self, key: (u64, u64), hint: usize) -> Result<usize, usize> {
        if self.keys.get(hint) == Some(&key) {
            Ok(hint)
        } else {
            self.keys.binary_search(&key)
        }
    }

    /// Queues `task`'s entry and returns the index of its level.
    fn insert(&mut self, slots: &[Slot], task: u32, stamp: u64, rank: Rank, hint: usize) -> usize {
        let key = (rank.0, rank.1);
        let seq = rank.2;
        let i = match self.level(key, hint) {
            Ok(i) => i,
            Err(i) => {
                // First sighting of this level: O(levels) once per key.
                self.keys.insert(i, key);
                self.fifos.insert(i, VecDeque::new());
                self.rebuild_bits();
                i
            }
        };
        let fifo = &mut self.fifos[i];
        // Shed stale entries off the back so the common append is O(1).
        while let Some(&(t, s, _)) = fifo.back() {
            if is_live(slots, t, s) {
                break;
            }
            fifo.pop_back();
        }
        match fifo.back() {
            // Fresh arrival: newest seq goes to the back.
            None => fifo.push_back((task, stamp, seq)),
            Some(&(_, _, back_seq)) if back_seq < seq => fifo.push_back((task, stamp, seq)),
            _ => {
                // Requeue of an old seq (preempted task keeping its FIFO
                // position, or a priority re-rank): usually the new front.
                while let Some(&(t, s, _)) = fifo.front() {
                    if is_live(slots, t, s) {
                        break;
                    }
                    fifo.pop_front();
                }
                match fifo.front() {
                    Some(&(_, _, front_seq)) if seq < front_seq => {
                        fifo.push_front((task, stamp, seq));
                    }
                    _ => {
                        // Rare: lands mid-deque. Keep it sorted by seq.
                        let at = fifo.partition_point(|&(_, _, s)| s < seq);
                        fifo.insert(at, (task, stamp, seq));
                    }
                }
            }
        }
        self.set_bit(i);
        i
    }

    /// Drops `task`'s removed entry at once when it is the front of its
    /// level, the dispatch case, so that `peek` does not meet it stale.
    /// Any other stale entry waits for `peek` or `insert` to shed it.
    fn remove(&mut self, task: u32, stamp: u64, rank: Rank, hint: usize) {
        let Ok(i) = self.level((rank.0, rank.1), hint) else {
            return;
        };
        let fifo = &mut self.fifos[i];
        if fifo
            .front()
            .is_some_and(|&(t, s, _)| (t, s) == (task, stamp))
        {
            fifo.pop_front();
            if fifo.is_empty() {
                self.clear_bit(i);
            }
        }
    }

    fn peek(&mut self, slots: &[Slot]) -> Option<u32> {
        while let Some(i) = self.lowest_occupied() {
            loop {
                match self.fifos[i].front().copied() {
                    None => {
                        self.clear_bit(i);
                        break;
                    }
                    Some((t, s, _)) if is_live(slots, t, s) => return Some(t),
                    Some(_) => {
                        self.fifos[i].pop_front();
                    }
                }
            }
        }
        None
    }
}

#[derive(Debug)]
enum Imp {
    Indexed(Indexed),
    /// Lazy-deletion min-heap over `(rank, task, stamp)`.
    Heap(BinaryHeap<Reverse<(Rank, u32, u64)>>),
}

/// The scheduler's ready queue: O(1)/O(log n) insert, remove, and
/// rank-minimal peek over `u32` task ids, with ranks assigned by the
/// caller (see [`SchedAlg::queue_rank`](crate::SchedAlg)).
///
/// ```
/// use rtos_model::readyq::ReadyQueue;
///
/// let mut q = ReadyQueue::indexed();
/// q.insert(0, (2, 0, 1)); // task 0, priority 2, seq 1
/// q.insert(1, (1, 0, 2)); // task 1, priority 1, seq 2
/// assert_eq!(q.peek(), Some(1)); // lower level wins
/// assert!(q.remove(1));
/// assert_eq!(q.peek(), Some(0));
/// ```
#[derive(Debug)]
pub struct ReadyQueue {
    slots: Vec<Slot>,
    next_stamp: u64,
    live: usize,
    imp: Imp,
}

impl ReadyQueue {
    /// A bitmap-indexed multi-level FIFO queue (fixed-priority / FIFO /
    /// round-robin / RMS ranks, whose level keys are few and recurring).
    #[must_use]
    pub fn indexed() -> Self {
        ReadyQueue {
            slots: Vec::new(),
            next_stamp: 0,
            live: 0,
            imp: Imp::Indexed(Indexed::default()),
        }
    }

    /// A lazy-deletion rank heap (EDF ranks, whose first component is a
    /// continuously varying absolute deadline).
    #[must_use]
    pub fn heap() -> Self {
        ReadyQueue {
            slots: Vec::new(),
            next_stamp: 0,
            live: 0,
            imp: Imp::Heap(BinaryHeap::new()),
        }
    }

    /// The structure suited to `alg`'s rank shape.
    #[must_use]
    pub fn for_alg(alg: SchedAlg) -> Self {
        match alg {
            SchedAlg::Edf => ReadyQueue::heap(),
            _ => ReadyQueue::indexed(),
        }
    }

    /// Number of queued tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no task is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `task` is currently queued.
    #[must_use]
    pub fn contains(&self, task: u32) -> bool {
        self.slots.get(task as usize).is_some_and(|s| s.stamp != 0)
    }

    /// The queued rank of `task`, if it is queued.
    #[must_use]
    pub fn rank_of(&self, task: u32) -> Option<Rank> {
        self.slots
            .get(task as usize)
            .filter(|s| s.stamp != 0)
            .map(|s| s.rank)
    }

    /// Inserts `task` with `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is already queued (re-rank by removing first).
    pub fn insert(&mut self, task: u32, rank: Rank) {
        let idx = task as usize;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, Slot::default());
        }
        let slot = &mut self.slots[idx];
        assert_eq!(slot.stamp, 0, "task {task} is already queued");
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        slot.stamp = stamp;
        slot.rank = rank;
        self.live += 1;
        match &mut self.imp {
            Imp::Indexed(ix) => {
                let hint = self.slots[idx].level;
                self.slots[idx].level = ix.insert(&self.slots, task, stamp, rank, hint);
            }
            Imp::Heap(h) => h.push(Reverse((rank, task, stamp))),
        }
    }

    /// Removes `task` in O(1). The indexed variant drops the task's entry
    /// at once when it is the front of its level; any other entry is
    /// discarded when it later surfaces during a
    /// [`peek`](ReadyQueue::peek). Returns whether the task was queued.
    pub fn remove(&mut self, task: u32) -> bool {
        let Some(slot) = self.slots.get_mut(task as usize).filter(|s| s.stamp != 0) else {
            return false;
        };
        let stamp = std::mem::take(&mut slot.stamp);
        self.live -= 1;
        if let Imp::Indexed(ix) = &mut self.imp {
            ix.remove(task, stamp, slot.rank, slot.level);
        }
        true
    }

    /// The rank-minimal queued task, without removing it. Takes `&mut
    /// self` because stale entries encountered on the way are discarded.
    pub fn peek(&mut self) -> Option<u32> {
        if self.live == 0 {
            return None;
        }
        let ReadyQueue { slots, imp, .. } = self;
        match imp {
            Imp::Indexed(ix) => ix.peek(slots),
            Imp::Heap(h) => loop {
                let &Reverse((_, t, s)) = h.peek()?;
                if is_live(slots, t, s) {
                    return Some(t);
                }
                h.pop();
            },
        }
    }

    /// Removes and returns the rank-minimal queued task.
    pub fn pop(&mut self) -> Option<u32> {
        let t = self.peek()?;
        self.remove(t);
        Some(t)
    }

    /// Queued task ids, in unspecified order (used by the conformance
    /// oracle's independent cross-check and by algorithm switches).
    pub fn iter_live(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.stamp != 0)
            .map(|(i, _)| i as u32)
    }

    /// Removes every queued task (capacity is retained).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
        match &mut self.imp {
            Imp::Indexed(ix) => {
                ix.keys.clear();
                ix.fifos.clear();
                ix.occ.clear();
            }
            Imp::Heap(h) => h.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_level_and_level_order() {
        let mut q = ReadyQueue::indexed();
        q.insert(3, (1, 0, 10));
        q.insert(5, (1, 0, 11));
        q.insert(7, (0, 0, 12)); // more urgent level, later arrival
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn keep_seq_requeue_regains_front_position() {
        let mut q = ReadyQueue::indexed();
        q.insert(0, (2, 0, 1));
        q.insert(1, (2, 0, 2));
        // Task 0 is dispatched, then preempted and requeued with its old
        // seq: it must come back ahead of task 1.
        assert_eq!(q.pop(), Some(0));
        q.insert(0, (2, 0, 1));
        assert_eq!(q.peek(), Some(0));
    }

    #[test]
    fn lazy_removal_skips_stale_entries() {
        let mut q = ReadyQueue::indexed();
        q.insert(0, (1, 0, 1));
        q.insert(1, (1, 0, 2));
        q.insert(2, (1, 0, 3));
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert!(!q.contains(1));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mid_deque_insert_keeps_seq_order() {
        let mut q = ReadyQueue::indexed();
        q.insert(0, (1, 0, 1));
        q.insert(1, (1, 0, 2));
        q.insert(2, (1, 0, 3));
        // Remove the middle task, then requeue it with its old seq while
        // both neighbors are still queued: the general sorted-insert path.
        q.remove(1);
        q.insert(1, (1, 0, 2));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn heap_orders_by_full_rank() {
        let mut q = ReadyQueue::heap();
        q.insert(0, (500, 3, 1));
        q.insert(1, (100, 9, 2));
        q.insert(2, (100, 1, 3));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn heap_rerank_after_remove() {
        let mut q = ReadyQueue::heap();
        q.insert(0, (500, 0, 1));
        q.insert(1, (400, 0, 2));
        assert_eq!(q.peek(), Some(1));
        // Re-rank task 1 to a later deadline: task 0 becomes minimal.
        q.remove(1);
        q.insert(1, (900, 0, 2));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn many_levels_exercise_the_bitmap() {
        let mut q = ReadyQueue::indexed();
        // 130 distinct levels spans three bitmap words.
        for t in 0..130u32 {
            q.insert(t, (u64::from(130 - t), 0, u64::from(t) + 1));
        }
        for t in (0..130u32).rev() {
            assert_eq!(q.pop(), Some(t));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn rank_of_and_clear() {
        let mut q = ReadyQueue::indexed();
        q.insert(4, (2, 0, 9));
        assert_eq!(q.rank_of(4), Some((2, 0, 9)));
        assert_eq!(q.rank_of(0), None);
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(4));
        q.insert(4, (1, 0, 10));
        assert_eq!(q.peek(), Some(4));
    }
}
