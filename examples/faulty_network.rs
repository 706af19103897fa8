//! Fault injection demo: SysProf monitoring a client/server pair over a
//! network that loses, duplicates, reorders — and for half a second,
//! completely partitions — the monitoring path. The dissemination
//! protocol (per-subscription sequence numbers + ACK/NACK retransmits)
//! repairs every hole; the run prints what broke and what got fixed.
//!
//! ```text
//! cargo run --example faulty_network
//! ```

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{FaultPlan, LinkFaults, LinkSpec, Port};
use simos::programs::EchoServer;
use simos::{Message, ProcCtx, Program, SocketId, WorldBuilder};
use sysprof::{MonitorConfig, SysProf};

/// A client that fires a request every 4 ms.
struct PeriodicClient {
    server: NodeId,
    sock: Option<SocketId>,
    sent: u32,
}

impl Program for PeriodicClient {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.connect(self.server, Port(80));
    }
    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        self.sock = Some(sock);
        ctx.send(sock, 2_000, 1);
        self.sent += 1;
    }
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, _sock: SocketId, _reply: Message) {
        if self.sent >= 400 {
            ctx.exit();
            return;
        }
        ctx.sleep(SimDuration::from_millis(4), 0);
    }
    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, _token: u64) {
        let sock = self.sock.expect("connected");
        ctx.send(sock, 2_000, 1);
        self.sent += 1;
    }
}

fn main() {
    let client = NodeId(0);
    let server = NodeId(1);
    let monitor = NodeId(2);

    // 1. A hostile monitoring path: 4% loss, 2% duplication, 2%
    //    reordering, 200 µs of jitter — and an outright partition from
    //    0.8 s to 1.3 s. The application link stays clean; only SysProf's
    //    own traffic suffers.
    let plan = FaultPlan::default()
        .with_link(
            server,
            monitor,
            LinkFaults {
                loss: 0.04,
                duplicate: 0.02,
                reorder: 0.02,
                jitter: SimDuration::from_micros(200),
                reorder_delay: SimDuration::from_millis(1),
            },
        )
        .with_partition(
            vec![server],
            vec![monitor],
            SimTime::from_millis(800),
            SimTime::from_millis(1300),
        );

    let mut world = WorldBuilder::new(99)
        .node("client")
        .node("server")
        .node("monitor")
        .full_mesh(LinkSpec::gigabit_lan())
        .faults(plan)
        .build()
        .expect("valid topology");

    let sysprof = SysProf::deploy(&mut world, &[server], monitor, MonitorConfig::default());

    world.spawn(
        server,
        "app-server",
        Box::new(EchoServer::new(
            Port(80),
            512,
            SimDuration::from_micros(300),
        )),
    );
    world.spawn(
        client,
        "client",
        Box::new(PeriodicClient {
            server,
            sock: None,
            sent: 0,
        }),
    );

    // 2. Run four simulated seconds — enough for backed-off retransmits
    //    to drain after the partition heals.
    world.run_until(SimTime::from_secs(4));

    // 3. What the network did to the monitoring stream…
    let faults = world.network().fault_stats();
    println!("--- injected faults (monitoring link) ---");
    println!("random losses:    {}", faults.injected_losses);
    println!("partition drops:  {}", faults.partition_drops);
    println!("duplicates:       {}", faults.duplicates);
    println!("reordered:        {}", faults.reorders);
    println!("jittered:         {}", faults.jittered);

    // 4. …and how the protocol repaired it.
    let d = sysprof.daemon_stats(server).expect("daemon deployed");
    println!("\n--- daemon (sender) ---");
    println!("batches retransmitted: {}", d.retransmits);
    println!("acks received:         {}", d.acks_received);
    println!("nacks received:        {}", d.nacks_received);
    println!("resend-buffer evictions: {}", d.resend_evictions);

    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    let gs = gpa.gpa_stats();
    println!("\n--- GPA (receiver) ---");
    println!("sequenced batches:  {}", gs.batches_received);
    println!("duplicates dropped: {}", gs.duplicate_batches);
    println!("buffered o-o-o:     {}", gs.out_of_order);
    println!(
        "gaps: {} detected, {} recovered, {} abandoned",
        gs.gaps_detected, gs.gaps_recovered, gs.gaps_abandoned
    );
    println!("acks/nacks sent:    {}/{}", gs.acks_sent, gs.nacks_sent);
    println!(
        "\ninteractions delivered exactly once: {}",
        gpa.interaction_count()
    );
    println!("streams converged: {}", gpa.streams_converged());

    // 5. Where each end of the stream stands, as `/proc` would show it.
    println!("\n--- streams ---");
    let tx = sysprof.sender(server);
    print!(
        "{}",
        sysprof::procfs::render_streams(tx.as_deref(), Some(gpa.receiver()))
    );

    assert!(
        gpa.streams_converged(),
        "every gap must be repaired or accounted for"
    );
}
