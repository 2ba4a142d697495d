//! The per-op policies' ready sets: FCFS ranks by arrival, round-robin
//! by the stamp of each member's last dispatch.

use std::collections::VecDeque;

use super::SchedulePolicy;

/// A per-op policy's ready set: per resource, the admitted requests
/// whose next op waits for that resource, popped in ascending
/// `(key, id)` order. The FCFS key is the arrival time; the
/// round-robin key is the last-scheduled dispatch stamp, 0 before the
/// first dispatch. One set lives for the whole run, and every handler
/// of [`Simulation`](super::device::Simulation) enqueues into it and
/// pops from it.
///
/// Neither key changes while a request waits, so each policy orders its
/// members by a law of its own instead of a heap: FCFS ranks a request
/// once, at admission, and round-robin relies on each resource
/// completing its ops in dispatch-stamp order. The independent check of
/// the pop order is the oracle in `tests/support/oracle.rs`.
pub(super) trait ReadySet: Default {
    /// The policy the set implements.
    const POLICY: SchedulePolicy;
    /// Whether a member popped as the minimum stays the minimum for as
    /// long as the membership and every key are unchanged (true for
    /// FCFS, whose keys are static; false for round-robin, whose
    /// rotation re-keys every dispatch). Inside a single-resource
    /// stretch of [`Simulation::step`](super::device::Simulation::step)
    /// this licenses redispatching the completing member without
    /// touching the set.
    const RETAINS_MIN: bool;
    /// Admits request `id`, which arrived at `arrived_ps`, and queues
    /// it for resource `rs`. Admissions come in ascending
    /// `(arrival, id)` order: ids and arrival events are handed out
    /// together, in push order, and arrivals fire in `(time, push)`
    /// order.
    fn admit(&mut self, rs: usize, arrived_ps: u64, id: u32);
    /// Re-queues member `id` for resource `rs` after its op on resource
    /// `src` completed; `key` is its last-scheduled stamp, the stamp of
    /// that op's dispatch.
    fn enqueue(&mut self, rs: usize, src: usize, key: u64, id: u32);
    /// The queued member minimizing `(key, id)` for `rs`.
    fn peek_min(&self, rs: usize) -> Option<u32>;
    /// Removes and returns [`ReadySet::peek_min`].
    fn pop_min(&mut self, rs: usize) -> Option<u32>;
    /// Members queued for `rs`.
    fn queued(&self, rs: usize) -> usize;
    /// Calls `f` on every member queued for `rs`, in pop order. Returns
    /// false when that order does not follow from the members' keys
    /// alone: round-robin members never scheduled yet pop first, by id.
    /// A layer-period checkpoint records the order; by default there is
    /// none.
    fn pop_order(&self, _rs: usize, _f: impl FnMut(u32)) -> bool {
        false
    }
    /// Adds `by` to every key that is a dispatch stamp: a layer-period
    /// jump moves every dispatch stamp, and so every round-robin key,
    /// forward by `by`. By default no key is a stamp.
    fn shift_keys(&mut self, _by: u64) {}
}

/// FCFS ready set. Arrival keys are static and admissions come in key
/// order, so a request's rank is its admission index, and each
/// resource's set is a rank-indexed bitmask. Pop-min is a trailing-zeros
/// scan from the lowest word that can hold a bit, so it walks the live
/// rank window, not every request admitted so far.
#[derive(Debug, Default)]
pub(super) struct FcfsReady {
    /// Member id per rank.
    order: Vec<u32>,
    /// id → rank, dense over the admitted ids.
    rank: Vec<u32>,
    /// Rank-indexed ready bits per resource.
    mask: [Vec<u64>; 2],
    /// Per resource, a word index with no ready bit below it.
    lo: [usize; 2],
    queued: [usize; 2],
    /// Arrival of the latest admission, for the order check.
    last_arrival: u64,
}

impl FcfsReady {
    #[inline(always)]
    fn set(&mut self, rs: usize, r: usize) {
        let w = r / 64;
        self.mask[rs][w] |= 1u64 << (r % 64);
        self.lo[rs] = self.lo[rs].min(w);
        self.queued[rs] += 1;
    }

    /// Word and bit of the lowest queued rank for `rs`.
    #[inline(always)]
    fn first(&self, rs: usize) -> Option<(usize, usize)> {
        if self.queued[rs] == 0 {
            return None;
        }
        let mask = &self.mask[rs];
        let mut w = self.lo[rs];
        while mask[w] == 0 {
            w += 1;
        }
        Some((w, mask[w].trailing_zeros() as usize))
    }
}

impl ReadySet for FcfsReady {
    const POLICY: SchedulePolicy = SchedulePolicy::Fcfs;
    const RETAINS_MIN: bool = true;

    fn admit(&mut self, rs: usize, arrived_ps: u64, id: u32) {
        debug_assert!(
            self.order
                .last()
                .map_or(true, |&prev| (self.last_arrival, prev) < (arrived_ps, id)),
            "admissions out of (arrival, id) order"
        );
        self.last_arrival = arrived_ps;
        let r = self.order.len();
        self.order.push(id);
        let i = id as usize;
        if self.rank.len() <= i {
            self.rank.resize(i + 1, u32::MAX);
        }
        self.rank[i] = r as u32;
        if r % 64 == 0 {
            for m in &mut self.mask {
                m.push(0);
            }
        }
        self.set(rs, r);
    }

    #[inline]
    fn enqueue(&mut self, rs: usize, _src: usize, _key: u64, id: u32) {
        let r = self.rank[id as usize] as usize;
        debug_assert_ne!(r, u32::MAX as usize, "enqueue of a non-member");
        self.set(rs, r);
    }

    #[inline]
    fn peek_min(&self, rs: usize) -> Option<u32> {
        let (w, b) = self.first(rs)?;
        Some(self.order[w * 64 + b])
    }

    #[inline]
    fn pop_min(&mut self, rs: usize) -> Option<u32> {
        let (w, b) = self.first(rs)?;
        self.mask[rs][w] &= !(1u64 << b);
        self.lo[rs] = w;
        self.queued[rs] -= 1;
        Some(self.order[w * 64 + b])
    }

    #[inline]
    fn queued(&self, rs: usize) -> usize {
        self.queued[rs]
    }
}

/// One ascending FIFO lane of the round-robin ready set: a power-of-two
/// ring whose front key is cached in a register-friendly field
/// (`u64::MAX` when empty), so pop-min compares plain loads. Head and
/// tail grow monotonically and are masked on access; a full ring
/// doubles.
#[derive(Debug)]
pub(super) struct RrLane {
    key: Vec<u64>,
    id: Vec<u32>,
    head: usize,
    tail: usize,
    mask: usize,
    /// Key at the head, `u64::MAX` when empty. Real keys are dispatch
    /// stamps (bounded by the dispatch count), never `u64::MAX`.
    front: u64,
}

impl Default for RrLane {
    fn default() -> Self {
        RrLane {
            key: Vec::new(),
            id: Vec::new(),
            head: 0,
            tail: 0,
            mask: 0,
            front: u64::MAX,
        }
    }
}

impl RrLane {
    #[inline]
    fn push(&mut self, key: u64, id: u32) {
        if self.tail - self.head == self.key.len() {
            self.grow();
        }
        debug_assert!(
            self.head == self.tail || key > self.key[(self.tail - 1) & self.mask],
            "lane keys must ascend"
        );
        if self.head == self.tail {
            self.front = key;
        }
        let t = self.tail & self.mask;
        self.key[t] = key;
        self.id[t] = id;
        self.tail += 1;
    }

    /// Doubles the ring (at least 4 entries), keeping the queued
    /// entries in order.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let n = self.tail - self.head;
        let cap = (2 * n).max(4);
        let mut key = Vec::with_capacity(cap);
        let mut id = Vec::with_capacity(cap);
        for i in self.head..self.tail {
            key.push(self.key[i & self.mask]);
            id.push(self.id[i & self.mask]);
        }
        key.resize(cap, 0);
        id.resize(cap, 0);
        self.key = key;
        self.id = id;
        self.head = 0;
        self.tail = n;
        self.mask = cap - 1;
    }

    #[inline]
    fn peek(&self) -> u32 {
        debug_assert!(self.head < self.tail, "peek of an empty lane");
        self.id[self.head & self.mask]
    }

    #[inline]
    fn pop(&mut self) -> u32 {
        let v = self.peek();
        self.head += 1;
        self.front = if self.head == self.tail {
            u64::MAX
        } else {
            self.key[self.head & self.mask]
        };
        v
    }

    /// Adds `by` to every queued key; the lane stays ascending.
    fn shift(&mut self, by: u64) {
        for i in self.head..self.tail {
            self.key[i & self.mask] += by;
        }
        if self.head != self.tail {
            self.front += by;
        }
    }
}

/// Round-robin ready set. A scheduled member's key is the stamp of its
/// last dispatch, and each resource completes its ops in dispatch-stamp
/// order, so the members one resource's completions re-queue arrive in
/// ascending key order. Per target resource, one ascending FIFO lane
/// per completing resource therefore replaces a heap, and pop-min
/// compares two cached fronts. Keys are unique stamps, so the
/// comparison is total. Never-scheduled members share key 0 and rank
/// by id: they wait in a lane of their own, kept in id order (closed
/// loops and hand-built open traces can admit ids out of order), which
/// wins whenever it is non-empty.
#[derive(Debug, Default)]
pub(super) struct RrReady {
    /// Per resource: never-scheduled members, ascending id.
    fresh: [VecDeque<u32>; 2],
    /// `lanes[rs][src]`: members re-queued for `rs` by a completion on
    /// `src`.
    lanes: [[RrLane; 2]; 2],
    queued: [usize; 2],
}

impl ReadySet for RrReady {
    const POLICY: SchedulePolicy = SchedulePolicy::RoundRobin;
    const RETAINS_MIN: bool = false;

    fn admit(&mut self, rs: usize, _arrived_ps: u64, id: u32) {
        let fresh = &mut self.fresh[rs];
        let at = fresh.partition_point(|&f| f < id);
        fresh.insert(at, id);
        self.queued[rs] += 1;
    }

    #[inline]
    fn enqueue(&mut self, rs: usize, src: usize, key: u64, id: u32) {
        debug_assert!(key > 0, "a re-queued member was scheduled");
        self.lanes[rs][src].push(key, id);
        self.queued[rs] += 1;
    }

    #[inline]
    fn peek_min(&self, rs: usize) -> Option<u32> {
        if let Some(&id) = self.fresh[rs].front() {
            return Some(id);
        }
        let [a, b] = &self.lanes[rs];
        if a.front < b.front {
            Some(a.peek())
        } else if b.front != u64::MAX {
            Some(b.peek())
        } else {
            None
        }
    }

    #[inline]
    fn pop_min(&mut self, rs: usize) -> Option<u32> {
        let id = match self.fresh[rs].pop_front() {
            Some(id) => id,
            None => {
                let [a, b] = &mut self.lanes[rs];
                if a.front < b.front {
                    a.pop()
                } else if b.front != u64::MAX {
                    b.pop()
                } else {
                    return None;
                }
            }
        };
        self.queued[rs] -= 1;
        Some(id)
    }

    #[inline]
    fn queued(&self, rs: usize) -> usize {
        self.queued[rs]
    }

    fn pop_order(&self, rs: usize, mut f: impl FnMut(u32)) -> bool {
        self.fresh[rs].iter().for_each(|&id| f(id));
        // Merge the two ascending lanes by key, as `pop_min` would.
        let [a, b] = &self.lanes[rs];
        let (mut i, mut j) = (a.head, b.head);
        while i < a.tail || j < b.tail {
            let ka = if i < a.tail {
                a.key[i & a.mask]
            } else {
                u64::MAX
            };
            let kb = if j < b.tail {
                b.key[j & b.mask]
            } else {
                u64::MAX
            };
            if ka < kb {
                f(a.id[i & a.mask]);
                i += 1;
            } else {
                f(b.id[j & b.mask]);
                j += 1;
            }
        }
        self.fresh[rs].is_empty()
    }

    fn shift_keys(&mut self, by: u64) {
        debug_assert!(
            self.fresh.iter().all(VecDeque::is_empty),
            "a jump with never-scheduled members"
        );
        for lane in self.lanes.iter_mut().flatten() {
            lane.shift(by);
        }
    }
}
