//! Quickstart: deploy SysProf on a tiny client/server cluster, generate
//! some traffic, and inspect what the monitor saw — per-interaction
//! records, `/proc`-style views, the cluster-wide GPA summary and what
//! the GPA's digest program compiled to.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::programs::EchoServer;
use simos::{Message, ProcCtx, Program, SocketId, WorldBuilder};
use sysprof::{procfs, MonitorConfig, SysProf};

/// A GPA-side digest: request volume and worst service time, folded
/// over every interaction record the GPA ingests.
const DIGEST: &str = "
    static int requests = 0;
    static int worst_us = 0;
    requests = requests + 1;
    worst_us = max(worst_us, end_us - start_us);
    return requests;
";

/// A client that sends a request every 5 ms and reads the reply.
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

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, _reply: Message) {
        if self.sent >= 200 {
            ctx.exit();
            return;
        }
        ctx.sleep(SimDuration::from_millis(5), 0);
        let _ = sock;
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, _token: u64) {
        let sock = self.sock.expect("connected");
        ctx.send(sock, 2_000, 1);
        self.sent += 1;
    }
}

fn main() {
    // 1. A three-node cluster: client, server, and a monitoring node
    //    hosting the global performance analyzer.
    let mut world = WorldBuilder::new(42)
        .node("client")
        .node("server")
        .node("monitor")
        .full_mesh(LinkSpec::gigabit_lan())
        .build()
        .expect("valid topology");

    // 2. Deploy SysProf: an LPA + dissemination daemon on the server, the
    //    GPA on the monitoring node, connected over the simulated wire.
    let sysprof = SysProf::deploy(
        &mut world,
        &[NodeId(1)],
        NodeId(2),
        MonitorConfig::default(),
    );
    sysprof
        .gpa()
        .borrow_mut()
        .install_digest(DIGEST, 2)
        .expect("the digest verifies");

    // 3. The application under diagnosis: an echo server with 300 µs of
    //    per-request compute, driven by a periodic client. Neither is
    //    instrumented in any way.
    world.spawn(
        NodeId(1),
        "app-server",
        Box::new(EchoServer::new(
            Port(80),
            512,
            SimDuration::from_micros(300),
        )),
    );
    world.spawn(
        NodeId(0),
        "client",
        Box::new(PeriodicClient {
            server: NodeId(1),
            sock: None,
            sent: 0,
        }),
    );

    // 4. Run two simulated seconds.
    world.run_until(SimTime::from_secs(2));

    // 5. What did the monitor see? First the node-local view…
    let lpa = sysprof.lpa(&world, NodeId(1)).expect("LPA deployed");
    println!("--- /proc/sysprof/status (server) ---");
    println!(
        "{}",
        procfs::render_status(NodeId(1), world.kprof(NodeId(1)), lpa)
    );
    println!("--- /proc/sysprof/interactions (last few) ---");
    let interactions = procfs::render_interactions(lpa);
    for line in interactions.lines().take(6) {
        println!("{line}");
    }

    // 6. …then the cluster-wide GPA view.
    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    println!("\n--- GPA summary ---");
    println!("{}", procfs::render_gpa_summary(&gpa));
    println!("--- GPA digest ---");
    println!("{}", procfs::render_digest(&gpa));
    let summary = gpa
        .class_summary(NodeId(1), Port(80))
        .expect("interactions were observed");
    println!(
        "class :80 on server: {} interactions, mean total {:.0} µs \
         (kernel-in {:.0} µs, user {:.0} µs, kernel-out {:.0} µs)",
        summary.count,
        summary.mean_total_us,
        summary.mean_kernel_in_us,
        summary.mean_user_us,
        summary.mean_kernel_out_us,
    );
    println!(
        "\nmonitoring overhead on the server: {:.3}% of CPU",
        sysprof.overhead_fraction(&world, NodeId(1)) * 100.0
    );
}
