//! Double buffering.
//!
//! "Each LPA maintains two per-CPU buffers to store captured data, and when
//! one of them has been filled, the dissemination daemon is notified, and
//! the LPA switches to the next buffer. Each such buffer switch requires
//! interrupts to be disabled locally to avoid data corruption." (§2)
//!
//! [`DoubleBuffer::push`] reports each switch so the caller can notify the
//! daemon; the interrupt-disable window itself is not charged.
//! [`DoubleBuffer::drain_each`] hands both sides' records out in order
//! (the daemon turns them straight into raw rows in a buffer of its
//! own), so neither side is ever given away and regrown. A simulated
//! node has one CPU, so an LPA holds one `DoubleBuffer`.

/// Which of the two buffers is currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufferSide {
    A,
    B,
}

impl BufferSide {
    fn other(self) -> BufferSide {
        match self {
            BufferSide::A => BufferSide::B,
            BufferSide::B => BufferSide::A,
        }
    }
}

/// A two-sided record buffer: writers append to the active side; the
/// dissemination daemon drains the inactive side.
///
/// If the daemon has not drained the inactive side by the time the active
/// side fills, the inactive side's contents are **overwritten** — "if the
/// data is not picked up in a timely fashion, it may be overwritten" — and
/// the loss is counted in [`overwritten`](DoubleBuffer::overwritten).
#[derive(Debug, Clone)]
pub struct DoubleBuffer<T> {
    a: Vec<T>,
    b: Vec<T>,
    active: BufferSide,
    capacity: usize,
    overwritten: u64,
    switches: u64,
}

impl<T> DoubleBuffer<T> {
    /// Creates a double buffer whose sides hold `capacity` records each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        DoubleBuffer {
            a: Vec::with_capacity(capacity),
            b: Vec::with_capacity(capacity),
            active: BufferSide::A,
            capacity,
            overwritten: 0,
            switches: 0,
        }
    }

    fn side(&self, side: BufferSide) -> &Vec<T> {
        match side {
            BufferSide::A => &self.a,
            BufferSide::B => &self.b,
        }
    }

    fn side_mut(&mut self, side: BufferSide) -> &mut Vec<T> {
        match side {
            BufferSide::A => &mut self.a,
            BufferSide::B => &mut self.b,
        }
    }

    /// Appends a record to the active side. Returns whether this push
    /// filled the active buffer and triggered a switch (the caller should
    /// notify the daemon).
    pub fn push(&mut self, record: T) -> bool {
        let active = self.active;
        self.side_mut(active).push(record);
        if self.side(active).len() >= self.capacity {
            let inactive = active.other();
            let lost = self.side(inactive).len();
            if lost > 0 {
                self.overwritten += lost as u64;
                self.side_mut(inactive).clear();
            }
            self.active = inactive;
            self.switches += 1;
            true
        } else {
            false
        }
    }

    /// Hands every record to `f`, the full side first, and leaves both
    /// sides empty — what the daemon copies out on a wake. Both sides
    /// keep their allocations, so a buffer that has filled once never
    /// grows again.
    pub fn drain_each(&mut self, mut f: impl FnMut(T)) {
        let active = self.active;
        self.side_mut(active.other()).drain(..).for_each(&mut f);
        self.side_mut(active).drain(..).for_each(f);
    }

    /// Per-side capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records lost to overwrites (daemon too slow).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Number of buffer switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain_all<T>(db: &mut DoubleBuffer<T>) -> Vec<T> {
        let mut out = Vec::new();
        db.drain_each(|r| out.push(r));
        out
    }

    #[test]
    fn push_until_switch() {
        let mut db = DoubleBuffer::new(3);
        assert!(!db.push(1));
        assert!(!db.push(2));
        assert!(db.push(3), "third push fills and switches");
        assert_eq!(db.switches(), 1);
        assert_eq!(drain_all(&mut db), vec![1, 2, 3]);
    }

    #[test]
    fn overwrite_when_daemon_slow() {
        let mut db = DoubleBuffer::new(2);
        db.push(1);
        db.push(2); // switch #1, A full (1,2)
        db.push(3);
        db.push(4); // switch #2: A not drained -> overwritten
        assert_eq!(db.overwritten(), 2);
        assert_eq!(drain_all(&mut db), vec![3, 4]);
    }

    #[test]
    fn drain_all_preserves_order_and_tail() {
        let mut db = DoubleBuffer::new(3);
        for i in 0..5 {
            db.push(i);
        }
        // Side A filled with 0,1,2 (switched), active B holds 3,4.
        assert_eq!(drain_all(&mut db), vec![0, 1, 2, 3, 4]);
        assert!(drain_all(&mut db).is_empty());
    }

    #[test]
    fn drain_each_keeps_both_sides_allocated() {
        let mut db = DoubleBuffer::new(4);
        for i in 0..6 {
            db.push(i);
        }
        assert_eq!(drain_all(&mut db), [0, 1, 2, 3, 4, 5]);
        assert!(db.a.capacity() >= 4 && db.b.capacity() >= 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DoubleBuffer::<u8>::new(0);
    }

    proptest! {
        /// No record is ever silently lost: pushed = drained + overwritten.
        #[test]
        fn prop_conservation(cap in 1usize..16, n in 0usize..200) {
            let mut db = DoubleBuffer::new(cap);
            let mut drained = 0u64;
            for i in 0..n {
                if db.push(i) && i % 3 == 0 {
                    // Daemon keeps up only sometimes.
                    drained += drain_all(&mut db).len() as u64;
                }
            }
            drained += drain_all(&mut db).len() as u64;
            prop_assert_eq!(drained + db.overwritten(), n as u64);
        }
    }
}
