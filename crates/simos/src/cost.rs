//! What the simulated machine charges and waits: the kernel's price list.
//!
//! The values approximate the paper's testbed: a 2.8 GHz uniprocessor P4
//! running Linux 2.4 with a non-offloading gigabit NIC, where gigabit
//! receive processing consumes most of a CPU (the era's "1 GHz per Gbps"
//! rule, which makes §3.1's Iperf overhead come out the way it does).
//! None of it is configuration: a node sets only its disk and its clock.
//! Kernel-sent monitoring traffic pays [`TX_STACK`] per packet as monitor
//! time, beside what `kprof::cost` and `sysprof::cost` charge.

use simcore::SimDuration;

/// Scheduler timeslice for compute-bound work.
pub const TIMESLICE: SimDuration = SimDuration::from_millis(5);

/// Direct cost of a context switch.
pub const CONTEXT_SWITCH: SimDuration = SimDuration::from_micros(2);

/// Base cost of entering/leaving the kernel for a syscall.
pub const SYSCALL_BASE: SimDuration = SimDuration::from_micros(1);

/// Cost per byte copied between user and kernel space (~700 MB/s).
const COPY_PER_BYTE_NS: f64 = 1.4;

/// NIC receive interrupt handling, per packet.
pub const RX_IRQ: SimDuration = SimDuration::from_micros(3);

/// Protocol (IP+TCP) receive processing, per packet (softirq).
pub const RX_STACK: SimDuration = SimDuration::from_micros(6);

/// Per-packet cost of the user-copy step of `recv`.
pub const RX_DELIVER: SimDuration = SimDuration::from_nanos(1_300);

/// Protocol transmit processing, per packet.
pub const TX_STACK: SimDuration = SimDuration::from_micros(3);

/// Creating a process.
pub const SPAWN: SimDuration = SimDuration::from_micros(50);

/// NIC rx ring capacity in packets: softirq backlog beyond this drops
/// arriving packets at the NIC (receive livelock).
pub const RX_RING_PACKETS: u32 = 300;

/// Socket receive buffer capacity in bytes.
pub const SOCKET_RX_BYTES: u64 = 4 * 1024 * 1024;

/// Receive buffer of a kernel sink's assembly socket, in bytes.
pub const SINK_RX_BYTES: u64 = 16 * 1024 * 1024;

/// Socket/device transmit queue capacity in bytes; senders block when it
/// is full (backpressure) and wake when it drains below half.
pub const SOCKET_TX_BYTES: u64 = 256 * 1024;

/// Handshake latency of a connect between nodes with no RTT estimate.
pub const CONN_SETUP: SimDuration = SimDuration::from_micros(200);

/// How long a connect waits to retry a SYN nobody listened for.
pub const SYN_RETRY: SimDuration = SimDuration::from_millis(5);

/// Delivery delay of a packet a node sends to itself.
pub const LOOPBACK: SimDuration = SimDuration::from_micros(5);

/// From a buffer-full notification to the daemon wake it schedules.
pub const BUFFER_FULL_WAKE: SimDuration = SimDuration::from_micros(10);

/// From a restart to the daemon's first wake after it (the boot delay).
pub const RESTART_BOOT: SimDuration = SimDuration::from_millis(1);

/// Cost of copying `bytes` across the user/kernel boundary.
pub fn copy_cost(bytes: u64) -> SimDuration {
    SimDuration::from_nanos((bytes as f64 * COPY_PER_BYTE_NS) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_linearly() {
        assert_eq!(copy_cost(0), SimDuration::ZERO);
        let one_kb = copy_cost(1024).as_nanos() as i64;
        let two_kb = copy_cost(2048).as_nanos() as i64;
        assert!((two_kb - 2 * one_kb).abs() <= 1, "{one_kb} vs {two_kb}");
    }

    #[test]
    fn defaults_are_sane() {
        assert!(TIMESLICE > CONTEXT_SWITCH);
        const { assert!(RX_RING_PACKETS > 0) };
        const { assert!(SOCKET_RX_BYTES > 0) };
    }
}
