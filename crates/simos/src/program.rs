//! The application programming model: event-driven programs issuing
//! syscall-like actions.
//!
//! A [`Program`] is a state machine. The kernel invokes its callbacks
//! (start, message delivery, I/O completion, timer) while the process
//! runs; the program responds by queuing [`Action`]s through [`ProcCtx`].
//! Actions execute as kernel operations with realistic costs when the
//! process is scheduled.
//!
//! Programs never touch the monitoring layer, the network, or other
//! processes directly — everything flows through kernel abstractions,
//! which is what lets Kprof observe all of it.

use kprof::FileId;
use simcore::{NodeId, SimDuration, SimRng};
use simnet::Port;

use crate::SocketId;

/// A fully reassembled application message, as delivered by `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sender-assigned message id (application framing).
    pub msg_id: u64,
    /// Sender-assigned kind discriminant.
    pub kind: u32,
    /// Payload length in bytes.
    pub bytes: u64,
}

/// Kernel-to-program callbacks, delivered in order while the process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// First activation after spawn.
    Start,
    /// A complete message arrived on a socket.
    Message {
        /// Receiving socket.
        sock: SocketId,
        /// The reassembled message.
        msg: Message,
    },
    /// A connection requested via [`ProcCtx::connect`] is established and
    /// the socket is writable.
    Connected {
        /// The new socket.
        sock: SocketId,
    },
    /// A file operation issued with this token completed.
    IoDone {
        /// Caller-chosen token.
        token: u64,
    },
    /// A timer fired.
    Timer {
        /// Caller-chosen token.
        token: u64,
    },
}

/// Operations a program may request; each becomes kernel work with a cost.
pub enum Action {
    /// Spin the CPU at user level for the given time.
    Compute(SimDuration),
    /// Send an application message on a socket (`send` syscall; may block
    /// on transmit-buffer backpressure).
    Send {
        /// Socket to send on.
        sock: SocketId,
        /// Payload length.
        bytes: u64,
        /// Message id for the receiver's reassembly.
        msg_id: u64,
        /// Message kind for the receiver's dispatch.
        kind: u32,
    },
    /// Start listening on a port; inbound flows to it auto-accept.
    Listen {
        /// Port to listen on.
        port: Port,
    },
    /// Open a connection to a remote listener. Completion is signalled by
    /// [`Callback::Connected`] carrying the pre-assigned socket id.
    Connect {
        /// Pre-assigned local socket id (returned by [`ProcCtx::connect`]).
        sock: SocketId,
        /// Remote node.
        node: NodeId,
        /// Remote listening port.
        port: Port,
    },
    /// Close a socket.
    Close {
        /// Socket to close.
        sock: SocketId,
    },
    /// Read from a file (blocks the process for the disk service time).
    FileRead {
        /// File to read.
        file: FileId,
        /// Bytes to read.
        bytes: u64,
        /// Completion token.
        token: u64,
    },
    /// Write to a file. `sync` writes block until the disk completes (NFS
    /// v2 server semantics); buffered writes only pay the copy.
    FileWrite {
        /// File to write.
        file: FileId,
        /// Bytes to write.
        bytes: u64,
        /// Whether to wait for stable storage.
        sync: bool,
        /// Completion token.
        token: u64,
    },
    /// Sleep for a duration, then receive [`Callback::Timer`].
    Sleep {
        /// How long.
        duration: SimDuration,
        /// Completion token.
        token: u64,
    },
    /// Spawn a child process running `program` on the same node.
    Spawn {
        /// The child's program.
        program: Box<dyn Program>,
        /// The child's name (diagnostics).
        name: String,
    },
    /// Terminate this process.
    Exit,
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Compute(d) => write!(f, "Compute({d})"),
            Action::Send {
                sock,
                bytes,
                msg_id,
                kind,
            } => {
                write!(f, "Send {{ {sock}, {bytes}B, msg {msg_id}, kind {kind} }}")
            }
            Action::Listen { port } => write!(f, "Listen {{ :{port} }}"),
            Action::Connect { sock, node, port } => {
                write!(f, "Connect {{ {sock} -> {node}:{port} }}")
            }
            Action::Close { sock } => write!(f, "Close {{ {sock} }}"),
            Action::FileRead { file, bytes, token } => {
                write!(f, "FileRead {{ {file}, {bytes}B, token {token} }}")
            }
            Action::FileWrite {
                file,
                bytes,
                sync,
                token,
            } => {
                write!(
                    f,
                    "FileWrite {{ {file}, {bytes}B, sync {sync}, token {token} }}"
                )
            }
            Action::Sleep { duration, token } => {
                write!(f, "Sleep {{ {duration}, token {token} }}")
            }
            Action::Spawn { name, .. } => write!(f, "Spawn {{ {name:?} }}"),
            Action::Exit => f.write_str("Exit"),
        }
    }
}

/// The syscall surface handed to program callbacks.
///
/// Methods queue [`Action`]s; the kernel executes them (with costs,
/// blocking, instrumentation) after the callback returns, in order.
pub struct ProcCtx<'a> {
    actions: &'a mut Vec<Action>,
    rng: &'a mut SimRng,
    now_wall: simcore::SimTime,
    node: NodeId,
    next_sock: &'a mut u64,
    next_msg: &'a mut u64,
}

impl<'a> ProcCtx<'a> {
    pub(crate) fn new(
        actions: &'a mut Vec<Action>,
        rng: &'a mut SimRng,
        now_wall: simcore::SimTime,
        node: NodeId,
        next_sock: &'a mut u64,
        next_msg: &'a mut u64,
    ) -> Self {
        ProcCtx {
            actions,
            rng,
            now_wall,
            node,
            next_sock,
            next_msg,
        }
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node-local wall-clock time (what `gettimeofday` would return).
    pub fn now(&self) -> simcore::SimTime {
        self.now_wall
    }

    /// The process's private random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Burns CPU at user level.
    pub fn compute(&mut self, duration: SimDuration) {
        self.actions.push(Action::Compute(duration));
    }

    /// Sends an application message; returns the message id the receiver
    /// will see.
    pub fn send(&mut self, sock: SocketId, bytes: u64, kind: u32) -> u64 {
        let msg_id = *self.next_msg;
        *self.next_msg += 1;
        self.actions.push(Action::Send {
            sock,
            bytes,
            msg_id,
            kind,
        });
        msg_id
    }

    /// Sends a reply correlated to a request the application protocol
    /// already knows about (reuses the caller-supplied message id).
    pub fn send_with_id(&mut self, sock: SocketId, bytes: u64, kind: u32, msg_id: u64) {
        self.actions.push(Action::Send {
            sock,
            bytes,
            msg_id,
            kind,
        });
    }

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: Port) {
        self.actions.push(Action::Listen { port });
    }

    /// Opens a connection to `node:port`; the returned socket id becomes
    /// usable when [`Callback::Connected`] arrives.
    pub fn connect(&mut self, node: NodeId, port: Port) -> SocketId {
        let sock = SocketId(*self.next_sock);
        *self.next_sock += 1;
        self.actions.push(Action::Connect { sock, node, port });
        sock
    }

    /// Closes a socket.
    pub fn close(&mut self, sock: SocketId) {
        self.actions.push(Action::Close { sock });
    }

    /// Reads from a file; [`Callback::IoDone`] carries `token` when the
    /// data is in memory.
    pub fn read_file(&mut self, file: FileId, bytes: u64, token: u64) {
        self.actions.push(Action::FileRead { file, bytes, token });
    }

    /// Writes to a file. Synchronous writes block until stable.
    pub fn write_file(&mut self, file: FileId, bytes: u64, sync: bool, token: u64) {
        self.actions.push(Action::FileWrite {
            file,
            bytes,
            sync,
            token,
        });
    }

    /// Sleeps; [`Callback::Timer`] carries `token` on expiry.
    pub fn sleep(&mut self, duration: SimDuration, token: u64) {
        self.actions.push(Action::Sleep { duration, token });
    }

    /// Spawns a child process on this node.
    pub fn spawn(&mut self, name: &str, program: Box<dyn Program>) {
        self.actions.push(Action::Spawn {
            program,
            name: name.to_owned(),
        });
    }

    /// Terminates this process after pending actions complete.
    pub fn exit(&mut self) {
        self.actions.push(Action::Exit);
    }
}

/// An application: a state machine the kernel drives.
///
/// All callbacks run "in process context" — the process is scheduled, the
/// callback's decisions are charged as the enclosing syscall's user/kernel
/// time. Callbacks must not loop forever; they queue actions and return.
pub trait Program {
    /// Called once when the process first runs.
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>);

    /// Called when a complete application message has been copied to user
    /// space.
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        let _ = (ctx, sock, msg);
    }

    /// Called when a connection opened with [`ProcCtx::connect`] is ready.
    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        let _ = (ctx, sock);
    }

    /// Called when a file operation completes.
    fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when a timer fires.
    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn ctx_queues_actions_in_order() {
        let mut actions = Vec::new();
        let mut rng = SimRng::seed(1);
        let mut next_sock = 10u64;
        let mut next_msg = 100u64;
        let mut ctx = ProcCtx::new(
            &mut actions,
            &mut rng,
            SimTime::from_micros(5),
            NodeId(3),
            &mut next_sock,
            &mut next_msg,
        );
        assert_eq!(ctx.node(), NodeId(3));
        assert_eq!(ctx.now(), SimTime::from_micros(5));
        ctx.compute(SimDuration::from_micros(10));
        let s = ctx.connect(NodeId(1), Port(80));
        assert_eq!(s, SocketId(10));
        let id = ctx.send(s, 2048, 7);
        assert_eq!(id, 100);
        ctx.exit();
        assert_eq!(actions.len(), 4);
        assert!(matches!(actions[0], Action::Compute(_)));
        assert!(matches!(
            actions[1],
            Action::Connect {
                sock: SocketId(10),
                ..
            }
        ));
        assert!(matches!(
            actions[2],
            Action::Send {
                bytes: 2048,
                msg_id: 100,
                kind: 7,
                ..
            }
        ));
        assert!(matches!(actions[3], Action::Exit));
        assert_eq!(next_sock, 11);
        assert_eq!(next_msg, 101);
    }
}
