//! Kernel process table entries.

use std::collections::VecDeque;

use kprof::{BlockReason, GroupId, Pid};
use simcore::{SimDuration, SimRng};

use crate::program::{Action, Program};
use crate::SocketId;

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// On a run queue.
    Runnable,
    /// Currently on a CPU.
    Running,
    /// Off the run queues, waiting.
    Blocked(BlockReason),
    /// Terminated (awaiting reaping).
    Exited,
}

/// Kernel-side record of work awaiting delivery to the program. Message
/// payloads are resolved lazily at delivery time (the data sits in the
/// socket buffer until the process actually `recv`s it — that is what
/// makes kernel-buffer queueing time observable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingWork {
    /// Initial activation.
    Start,
    /// A socket has (at least) one complete message ready.
    MsgReady(SocketId),
    /// A connect completed.
    Connected(SocketId),
    /// A file operation completed.
    IoDone(u64),
    /// A timer fired.
    Timer(u64),
}

/// A process: program + kernel bookkeeping.
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Process group (the paper's predicate dimension).
    pub gid: GroupId,
    /// Diagnostic name.
    pub name: String,
    /// Scheduler state.
    pub state: ProcState,
    /// The application logic.
    pub program: Option<Box<dyn Program>>,
    /// Kernel operations queued by the program, executed in order.
    pub ops: VecDeque<Action>,
    /// Kernel-to-program work awaiting delivery.
    pub pending: VecDeque<PendingWork>,
    /// Private deterministic random stream.
    pub rng: SimRng,
    /// Cumulative user-mode CPU time.
    pub user_time: SimDuration,
    /// Cumulative kernel-mode CPU time (syscalls executed on its behalf).
    pub kernel_time: SimDuration,
    /// If true, this process models a kernel daemon (like the in-kernel
    /// NFS server): all its CPU time is accounted as kernel time and its
    /// message handling never pays the user-copy step.
    pub kernel_daemon: bool,
    /// What is left of the `Action::Compute` being run.
    pub remaining_compute: SimDuration,
    /// When the process exited, if it has.
    pub exited_at: Option<simcore::SimTime>,
    /// Whether the application opted into ARM-style request tagging: its
    /// network events carry the application message id as a correlator.
    /// Off by default (SysProf is a black-box monitor).
    pub arm_enabled: bool,
}

impl Process {
    /// Creates a new runnable process with [`PendingWork::Start`] queued.
    pub fn new(
        pid: Pid,
        gid: GroupId,
        name: String,
        program: Box<dyn Program>,
        rng: SimRng,
    ) -> Self {
        let mut pending = VecDeque::new();
        pending.push_back(PendingWork::Start);
        Process {
            pid,
            gid,
            name,
            state: ProcState::Runnable,
            program: Some(program),
            ops: VecDeque::new(),
            pending,
            rng,
            user_time: SimDuration::ZERO,
            kernel_time: SimDuration::ZERO,
            kernel_daemon: false,
            remaining_compute: SimDuration::ZERO,
            exited_at: None,
            arm_enabled: false,
        }
    }

    /// True if the process has exited.
    pub fn is_exited(&self) -> bool {
        matches!(self.state, ProcState::Exited)
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("state", &self.state)
            .field("ops", &self.ops.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProcCtx;

    struct Nop;
    impl Program for Nop {
        fn on_start(&mut self, _ctx: &mut ProcCtx<'_>) {}
    }

    #[test]
    fn new_process_has_start_pending() {
        let p = Process::new(
            Pid(1),
            GroupId(0),
            "t".into(),
            Box::new(Nop),
            SimRng::seed(0),
        );
        assert_eq!(p.state, ProcState::Runnable);
        assert_eq!(p.pending.len(), 1);
        assert!(!p.is_exited());
    }
}
