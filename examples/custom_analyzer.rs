//! Custom Performance Analyzers: install an E-Code program into the
//! running kernel at runtime (§2's CPAs) and use a dynamic E-Code filter
//! on a monitoring channel.
//!
//! The CPA here watches NIC receive events and maintains a per-event
//! running average packet size plus a count of jumbo-ish packets, all
//! inside the (simulated) kernel, fuel-metered. No application changes,
//! no recompilation — the program is compiled and installed while the
//! system runs.
//!
//! ```text
//! cargo run --example custom_analyzer
//! ```

use kprof::EventMask;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::programs::{EchoServer, OneShotSender};
use simos::WorldBuilder;
use sysprof::CpaAnalyzer;

const CPA_SOURCE: &str = r#"
    // Persistent state lives in statics, like a tiny in-kernel eBPF map.
    static int packets = 0;
    static int big_packets = 0;
    static double total_bytes = 0.0;

    // Inputs per event: kind, pid, wall_us, size, aux, port_src, port_dst.
    if (kind == 7) {                 // NetRxNic
        packets = packets + 1;
        total_bytes = total_bytes + size;
        if (size >= 1400) {
            big_packets = big_packets + 1;
        }
        out(0, total_bytes / packets);   // slot 0: running mean size
        out(1, big_packets);             // slot 1: jumbo count
    }
    return size >= 1400;                 // flag full-MTU packets
"#;

fn main() {
    let mut world = WorldBuilder::new(7)
        .node("client")
        .node("server")
        .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
        .build()
        .expect("valid topology");

    // Compile and "download into the kernel" at runtime.
    let cpa = CpaAnalyzer::compile("rx-size-profile", CPA_SOURCE, EventMask::NETWORK)
        .expect("the program is valid E-Code");
    println!("compiled CPA: {} bytecode instructions", {
        // Show that this really is compiled, not interpreted source.
        ecode::Program::compile(CPA_SOURCE, &sysprof::EVENT_INPUTS)
            .expect("compiles")
            .code_len()
    });
    let cpa_id = world.kprof_mut(NodeId(1)).register(Box::new(cpa));

    // Traffic: one 400 KB transfer to an echo server.
    world.spawn(
        NodeId(1),
        "server",
        Box::new(EchoServer::new(
            Port(80),
            1_000,
            SimDuration::from_micros(50),
        )),
    );
    world.spawn(
        NodeId(0),
        "client",
        Box::new(OneShotSender::new(NodeId(1), Port(80), 400_000)),
    );
    world.run_until(SimTime::from_secs(1));

    // Read the CPA's accumulated state back out.
    let kprof = world.kprof(NodeId(1));
    let cpa = kprof
        .analyzer_as::<CpaAnalyzer>(cpa_id)
        .expect("still installed");
    println!("events seen by the CPA : {}", cpa.events());
    println!("events flagged (>=1400B): {}", cpa.flagged());
    println!(
        "running mean packet size: {:.0} B (slot 0)",
        cpa.output(0).expect("traffic flowed")
    );
    println!(
        "jumbo packet count      : {:.0} (slot 1)",
        cpa.output(1).expect("traffic flowed")
    );
    println!(
        "kernel-side state       : packets={:?} big={:?}",
        cpa.global("packets"),
        cpa.global("big_packets")
    );
    println!(
        "fuel aborts             : {} (budget enforced per event)",
        cpa.aborted()
    );
    println!(
        "monitoring CPU charged  : {}",
        world.node_stats(NodeId(1)).cpu.monitor
    );
    println!("what it compiled to, and its cost (/proc/sysprof/cpa/rx-size-profile):");
    print!("{}", sysprof::procfs::render_cpa(cpa));
}
