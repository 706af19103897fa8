//! The block-device model: seek + transfer service times, FIFO queueing.
//!
//! The back-end NFS servers in the §3.2 experiment are disk-bound; their
//! order-of-magnitude-higher per-interaction kernel time (Figure 5) is
//! produced by this queue.

use simcore::{SimDuration, SimTime};

/// Static parameters of a disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Average positioning (seek + rotational) time per request.
    pub seek: SimDuration,
    /// Sustained transfer rate in bytes per second.
    pub transfer_bps: u64,
    /// Fixed controller/driver overhead per request.
    pub overhead: SimDuration,
}

impl Default for DiskSpec {
    fn default() -> Self {
        // A ~2005 7200rpm SATA drive.
        DiskSpec {
            seek: SimDuration::from_millis(8),
            transfer_bps: 55_000_000,
            overhead: SimDuration::from_micros(200),
        }
    }
}

impl DiskSpec {
    /// Service time for one request of `bytes` (no queueing).
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        let transfer_ns = (bytes as u128 * 1_000_000_000 / self.transfer_bps.max(1) as u128) as u64;
        self.seek + self.overhead + SimDuration::from_nanos(transfer_ns)
    }
}

/// A disk with a FIFO request queue, modeled by a busy-until horizon.
#[derive(Debug, Clone)]
pub struct Disk {
    nominal: DiskSpec,
    spec: DiskSpec,
    busy_until: SimTime,
    requests: u64,
    bytes: u64,
}

impl Disk {
    /// Creates an idle disk.
    pub fn new(spec: DiskSpec) -> Self {
        Disk {
            nominal: spec,
            spec,
            busy_until: SimTime::ZERO,
            requests: 0,
            bytes: 0,
        }
    }

    /// Serves new requests `factor` times slower than nominal; admitted ones
    /// keep their completion times ([`World::degrade_disk`](crate::World::degrade_disk)).
    pub(crate) fn degrade(&mut self, factor: f64) {
        self.spec = DiskSpec {
            seek: self.nominal.seek.mul_f64(factor),
            transfer_bps: ((self.nominal.transfer_bps as f64 / factor) as u64).max(1),
            overhead: self.nominal.overhead.mul_f64(factor),
        };
    }

    /// Submits a request at `now`; returns when it completes (after all
    /// previously queued requests).
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let service = self.spec.service_time(bytes);
        self.busy_until = start + service;
        self.requests += 1;
        self.bytes += bytes;
        self.busy_until
    }

    /// Total requests ever submitted.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total bytes ever transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn service_time_includes_all_parts() {
        let spec = DiskSpec {
            seek: SimDuration::from_millis(5),
            transfer_bps: 1_000_000, // 1 MB/s: easy math
            overhead: SimDuration::from_micros(100),
        };
        // 1 MB at 1 MB/s = 1 s transfer.
        let t = spec.service_time(1_000_000);
        assert_eq!(
            t,
            SimDuration::from_millis(5) + SimDuration::from_micros(100) + SimDuration::from_secs(1)
        );
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let mut disk = Disk::new(DiskSpec::default());
        let t1 = disk.submit(SimTime::ZERO, 4096);
        let t2 = disk.submit(SimTime::ZERO, 4096);
        assert!(t2 > t1);
        assert_eq!((t2 - t1), DiskSpec::default().service_time(4096));
        assert_eq!(disk.requests(), 2);
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut disk = Disk::new(DiskSpec::default());
        let t1 = disk.submit(SimTime::ZERO, 4096);
        let later = t1 + SimDuration::from_secs(1);
        let t2 = disk.submit(later, 4096);
        assert_eq!(t2 - later, DiskSpec::default().service_time(4096));
    }

    proptest! {
        /// Completions are monotone in submission order.
        #[test]
        fn prop_completions_monotone(sizes in proptest::collection::vec(512u64..1_000_000, 1..50)) {
            let mut disk = Disk::new(DiskSpec::default());
            let mut last = SimTime::ZERO;
            for (i, &s) in sizes.iter().enumerate() {
                let done = disk.submit(SimTime::from_millis(i as u64), s);
                prop_assert!(done >= last);
                last = done;
            }
        }
    }
}
