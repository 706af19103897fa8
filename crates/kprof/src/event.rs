//! The binary event vocabulary: what the instrumented kernel emits.

use std::fmt;

use serde::{Deserialize, Serialize};
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{FlowKey, PacketId};

use crate::{BlockReason, DiskId, FileId, GroupId, Pid, SyscallKind};

/// The four event classes of §2 ("Scheduling events, System Call events,
/// Network events, and File System events").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventClass {
    /// Context switches, process creation/deletion, block/wake.
    Scheduling,
    /// System call entry/exit.
    Syscall,
    /// Packet movement through the protocol stack.
    Network,
    /// VFS operations and block I/O.
    FileSystem,
}

/// Where in the network stack a packet was observed.
///
/// Figure 1 of the paper marks the latency at each step of protocol
/// processing; these are those steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetPoint {
    /// Inbound: the NIC raised the receive interrupt.
    RxNic,
    /// Inbound: protocol processing finished; packet placed in the socket
    /// receive buffer.
    RxSocketBuffer,
    /// Inbound: payload copied to user space by a `recv` syscall.
    RxDeliverUser,
    /// Outbound: payload entered the kernel via a `send` syscall.
    TxFromUser,
    /// Outbound: protocol processing finished; packet queued at the device.
    TxDeviceQueue,
    /// Outbound: the NIC finished transmitting the packet.
    TxNicDone,
    /// The packet was dropped (buffer overflow) at this node.
    Drop,
}

/// Discriminant of an instrumentation point; each kind is one bit in an
/// [`EventMask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
#[allow(missing_docs)] // names mirror EventPayload variants, documented there
pub enum EventKind {
    ContextSwitch = 0,
    ProcessCreate = 1,
    ProcessExit = 2,
    ProcessBlock = 3,
    ProcessWake = 4,
    SyscallEntry = 5,
    SyscallExit = 6,
    NetRxNic = 7,
    NetRxSocketBuffer = 8,
    NetRxDeliverUser = 9,
    NetTxFromUser = 10,
    NetTxDeviceQueue = 11,
    NetTxNicDone = 12,
    NetDrop = 13,
    FileOpen = 14,
    FileClose = 15,
    FileRead = 16,
    FileWrite = 17,
    BlockIoStart = 18,
    BlockIoComplete = 19,
}

impl EventKind {
    /// All kinds, in bit order.
    pub const ALL: [EventKind; 20] = [
        EventKind::ContextSwitch,
        EventKind::ProcessCreate,
        EventKind::ProcessExit,
        EventKind::ProcessBlock,
        EventKind::ProcessWake,
        EventKind::SyscallEntry,
        EventKind::SyscallExit,
        EventKind::NetRxNic,
        EventKind::NetRxSocketBuffer,
        EventKind::NetRxDeliverUser,
        EventKind::NetTxFromUser,
        EventKind::NetTxDeviceQueue,
        EventKind::NetTxNicDone,
        EventKind::NetDrop,
        EventKind::FileOpen,
        EventKind::FileClose,
        EventKind::FileRead,
        EventKind::FileWrite,
        EventKind::BlockIoStart,
        EventKind::BlockIoComplete,
    ];

    /// The class this kind belongs to.
    pub fn class(self) -> EventClass {
        use EventKind::*;
        match self {
            ContextSwitch | ProcessCreate | ProcessExit | ProcessBlock | ProcessWake => {
                EventClass::Scheduling
            }
            SyscallEntry | SyscallExit => EventClass::Syscall,
            NetRxNic | NetRxSocketBuffer | NetRxDeliverUser | NetTxFromUser | NetTxDeviceQueue
            | NetTxNicDone | NetDrop => EventClass::Network,
            FileOpen | FileClose | FileRead | FileWrite | BlockIoStart | BlockIoComplete => {
                EventClass::FileSystem
            }
        }
    }
}

/// A set of [`EventKind`]s, used for selective enabling and subscription.
///
/// # Example
///
/// ```
/// use kprof::{EventKind, EventMask};
/// let m = EventMask::NETWORK.with(EventKind::ContextSwitch);
/// assert!(m.contains(EventKind::NetRxNic));
/// assert!(m.contains(EventKind::ContextSwitch));
/// assert!(!m.contains(EventKind::FileRead));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct EventMask(u32);

impl EventMask {
    /// The empty mask.
    pub const NONE: EventMask = EventMask(0);
    /// Every kind.
    pub const ALL: EventMask = EventMask((1 << 20) - 1);
    /// All Scheduling-class kinds.
    pub const SCHEDULING: EventMask = EventMask(0b11111);
    /// All Syscall-class kinds.
    pub const SYSCALL: EventMask = EventMask(0b11 << 5);
    /// All Network-class kinds.
    pub const NETWORK: EventMask = EventMask(0b111_1111 << 7);
    /// All FileSystem-class kinds.
    pub const FILESYSTEM: EventMask = EventMask(0b11_1111 << 14);

    /// A mask covering a whole class.
    pub fn class(class: EventClass) -> EventMask {
        match class {
            EventClass::Scheduling => Self::SCHEDULING,
            EventClass::Syscall => Self::SYSCALL,
            EventClass::Network => Self::NETWORK,
            EventClass::FileSystem => Self::FILESYSTEM,
        }
    }

    /// Whether `kind` is in the mask.
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }

    /// Adds a kind, returning the extended mask.
    #[must_use]
    pub const fn with(self, kind: EventKind) -> EventMask {
        EventMask(self.0 | (1 << kind as u32))
    }

    /// Set intersection.
    #[must_use]
    pub const fn intersect(self, other: EventMask) -> EventMask {
        EventMask(self.0 & other.0)
    }

    /// True if no kinds are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of kinds set.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }
}

impl std::ops::BitOr for EventMask {
    type Output = EventMask;
    fn bitor(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for EventMask {
    fn bitor_assign(&mut self, rhs: EventMask) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for EventMask {
    type Output = EventMask;
    fn bitand(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 & rhs.0)
    }
}

/// The payload of one instrumentation event. Every variant corresponds to a
/// statically instrumented point in the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventPayload {
    /// The CPU switched from one process to another (`None` = idle).
    ContextSwitch {
        /// Previously running process.
        from: Option<Pid>,
        /// Newly running process.
        to: Option<Pid>,
    },
    /// A process was created.
    ProcessCreate {
        /// The new process.
        pid: Pid,
        /// Its parent, if any.
        parent: Option<Pid>,
        /// Its process group.
        gid: GroupId,
    },
    /// A process exited.
    ProcessExit {
        /// The exiting process.
        pid: Pid,
    },
    /// A process blocked.
    ProcessBlock {
        /// The blocking process.
        pid: Pid,
        /// Why it blocked.
        reason: BlockReason,
    },
    /// A blocked process became runnable.
    ProcessWake {
        /// The woken process.
        pid: Pid,
    },
    /// A system call entered the kernel.
    SyscallEntry {
        /// Calling process.
        pid: Pid,
        /// Which call.
        kind: SyscallKind,
    },
    /// A system call returned to user space.
    SyscallExit {
        /// Calling process.
        pid: Pid,
        /// Which call.
        kind: SyscallKind,
        /// Kernel time consumed by the call (what `Figure 1`'s per-step
        /// latencies are made of).
        kernel_time: SimDuration,
    },
    /// A packet was observed at a point in the network stack.
    Net {
        /// Where in the stack.
        point: NetPoint,
        /// The packet's directed flow.
        flow: FlowKey,
        /// Packet id (stable across stack layers on one node).
        packet: PacketId,
        /// Wire size in bytes.
        size: u32,
        /// The process the packet is for/from, where the stack knows it
        /// (socket-buffer and user-copy points).
        pid: Option<Pid>,
        /// ARM-style application correlator, present only when the owning
        /// application opted into Application Response Measurement
        /// tagging (§2: interleaved requests need "domain-specific
        /// knowledge and/or ARM support"). `None` for black-box apps.
        arm: Option<u64>,
    },
    /// A file was opened.
    FileOpen {
        /// Opening process.
        pid: Pid,
        /// The file.
        file: FileId,
    },
    /// A file was closed.
    FileClose {
        /// Closing process.
        pid: Pid,
        /// The file.
        file: FileId,
    },
    /// Bytes were read from a file.
    FileRead {
        /// Reading process.
        pid: Pid,
        /// The file.
        file: FileId,
        /// Bytes read.
        bytes: u64,
    },
    /// Bytes were written to a file.
    FileWrite {
        /// Writing process.
        pid: Pid,
        /// The file.
        file: FileId,
        /// Bytes written.
        bytes: u64,
    },
    /// A block-device transfer started.
    BlockIoStart {
        /// Device.
        disk: DiskId,
        /// Transfer size.
        bytes: u64,
        /// Process the transfer is charged to.
        pid: Option<Pid>,
    },
    /// A block-device transfer completed.
    BlockIoComplete {
        /// Device.
        disk: DiskId,
        /// Transfer size.
        bytes: u64,
        /// Process the transfer is charged to.
        pid: Option<Pid>,
    },
}

impl EventPayload {
    /// The instrumentation-point discriminant of this payload.
    pub fn kind(&self) -> EventKind {
        match self {
            EventPayload::ContextSwitch { .. } => EventKind::ContextSwitch,
            EventPayload::ProcessCreate { .. } => EventKind::ProcessCreate,
            EventPayload::ProcessExit { .. } => EventKind::ProcessExit,
            EventPayload::ProcessBlock { .. } => EventKind::ProcessBlock,
            EventPayload::ProcessWake { .. } => EventKind::ProcessWake,
            EventPayload::SyscallEntry { .. } => EventKind::SyscallEntry,
            EventPayload::SyscallExit { .. } => EventKind::SyscallExit,
            EventPayload::Net { point, .. } => match point {
                NetPoint::RxNic => EventKind::NetRxNic,
                NetPoint::RxSocketBuffer => EventKind::NetRxSocketBuffer,
                NetPoint::RxDeliverUser => EventKind::NetRxDeliverUser,
                NetPoint::TxFromUser => EventKind::NetTxFromUser,
                NetPoint::TxDeviceQueue => EventKind::NetTxDeviceQueue,
                NetPoint::TxNicDone => EventKind::NetTxNicDone,
                NetPoint::Drop => EventKind::NetDrop,
            },
            EventPayload::FileOpen { .. } => EventKind::FileOpen,
            EventPayload::FileClose { .. } => EventKind::FileClose,
            EventPayload::FileRead { .. } => EventKind::FileRead,
            EventPayload::FileWrite { .. } => EventKind::FileWrite,
            EventPayload::BlockIoStart { .. } => EventKind::BlockIoStart,
            EventPayload::BlockIoComplete { .. } => EventKind::BlockIoComplete,
        }
    }

    /// The pid this event is about, if any (used by predicates).
    pub fn pid(&self) -> Option<Pid> {
        match *self {
            EventPayload::ContextSwitch { to, .. } => to,
            EventPayload::ProcessCreate { pid, .. }
            | EventPayload::ProcessExit { pid }
            | EventPayload::ProcessBlock { pid, .. }
            | EventPayload::ProcessWake { pid }
            | EventPayload::SyscallEntry { pid, .. }
            | EventPayload::SyscallExit { pid, .. }
            | EventPayload::FileOpen { pid, .. }
            | EventPayload::FileClose { pid, .. }
            | EventPayload::FileRead { pid, .. }
            | EventPayload::FileWrite { pid, .. } => Some(pid),
            EventPayload::Net { pid, .. }
            | EventPayload::BlockIoStart { pid, .. }
            | EventPayload::BlockIoComplete { pid, .. } => pid,
        }
    }

    /// The flow this event is about, for network events.
    pub fn flow(&self) -> Option<FlowKey> {
        match self {
            EventPayload::Net { flow, .. } => Some(*flow),
            _ => None,
        }
    }
}

/// One monitoring event, as delivered to analyzers.
///
/// `wall` is the **node-local NTP wall-clock** timestamp — analyzers (and
/// especially the cross-node GPA) only ever see wall time, never the
/// simulator's hidden true time, reproducing the clock-correlation problem
/// the paper's GPA must solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Per-node monotone sequence number.
    pub seq: u64,
    /// The node this event occurred on.
    pub node: NodeId,
    /// The CPU it occurred on (index within the node).
    pub cpu: u16,
    /// Node-local wall-clock timestamp.
    pub wall: SimTime,
    /// What happened.
    pub payload: EventPayload,
}

impl Event {
    /// The instrumentation-point discriminant.
    pub fn kind(&self) -> EventKind {
        self.payload.kind()
    }

    /// The event class.
    pub fn class(&self) -> EventClass {
        self.kind().class()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} cpu{} #{}] {:?}",
            self.node,
            self.wall,
            self.cpu,
            self.seq,
            self.kind()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn class_masks_partition_all_kinds() {
        let union =
            EventMask::SCHEDULING | EventMask::SYSCALL | EventMask::NETWORK | EventMask::FILESYSTEM;
        assert_eq!(union, EventMask::ALL);
        // Pairwise disjoint.
        assert!(EventMask::SCHEDULING
            .intersect(EventMask::SYSCALL)
            .is_empty());
        assert!(EventMask::SYSCALL.intersect(EventMask::NETWORK).is_empty());
        assert!(EventMask::NETWORK
            .intersect(EventMask::FILESYSTEM)
            .is_empty());
        assert!(EventMask::SCHEDULING
            .intersect(EventMask::FILESYSTEM)
            .is_empty());
    }

    #[test]
    fn every_kind_is_in_its_class_mask() {
        for kind in EventKind::ALL {
            assert!(EventMask::class(kind.class()).contains(kind), "{kind:?}");
            assert!(EventMask::ALL.contains(kind));
            assert!(!EventMask::NONE.contains(kind));
        }
    }

    #[test]
    fn mask_with_adds_one_kind() {
        let m = EventMask::NONE.with(EventKind::FileRead);
        assert!(m.contains(EventKind::FileRead));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn payload_kind_matches_net_points() {
        let flow = FlowKey::new(
            simnet::EndPoint::new(simnet::Ip(1), simnet::Port(1)),
            simnet::EndPoint::new(simnet::Ip(2), simnet::Port(2)),
        );
        let make = |point| EventPayload::Net {
            point,
            flow,
            packet: PacketId(1),
            size: 100,
            pid: None,
            arm: None,
        };
        assert_eq!(make(NetPoint::RxNic).kind(), EventKind::NetRxNic);
        assert_eq!(make(NetPoint::Drop).kind(), EventKind::NetDrop);
        assert_eq!(make(NetPoint::TxNicDone).kind(), EventKind::NetTxNicDone);
    }

    #[test]
    fn payload_pid_extraction() {
        assert_eq!(
            EventPayload::ProcessWake { pid: Pid(4) }.pid(),
            Some(Pid(4))
        );
        assert_eq!(
            EventPayload::ContextSwitch {
                from: Some(Pid(1)),
                to: None
            }
            .pid(),
            None
        );
        assert_eq!(
            EventPayload::BlockIoStart {
                disk: DiskId(0),
                bytes: 512,
                pid: Some(Pid(2))
            }
            .pid(),
            Some(Pid(2))
        );
    }

    proptest! {
        #[test]
        fn prop_mask_bitops_model_sets(bits_a in 0u32..(1 << 20), bits_b in 0u32..(1 << 20)) {
            let a = EventMask::NONE;
            let mut a = a;
            let mut b = EventMask::NONE;
            for kind in EventKind::ALL {
                if bits_a & (1 << kind as u32) != 0 { a = a.with(kind); }
                if bits_b & (1 << kind as u32) != 0 { b = b.with(kind); }
            }
            let or = a | b;
            let and = a & b;
            for kind in EventKind::ALL {
                prop_assert_eq!(or.contains(kind), a.contains(kind) || b.contains(kind));
                prop_assert_eq!(and.contains(kind), a.contains(kind) && b.contains(kind));
            }
        }
    }
}
