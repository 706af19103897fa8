//! Microbenchmarks of SysProf's hot paths — the real-time cost of each
//! stage the paper's low-overhead claims rest on: event dispatch, LPA
//! analysis, E-Code filters, PBIO encoding, channel fan-out.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kprof::{CountingAnalyzer, EventMask, EventPayload, Kprof, NetPoint, Pid};
use pbio::{RecordReader, RecordWriter};
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};
use sysprof::{InteractionRecord, Lpa, LpaConfig};

fn net_payload(i: u64) -> EventPayload {
    EventPayload::Net {
        point: NetPoint::RxNic,
        flow: FlowKey::new(
            EndPoint::new(Ip(0x0A000001), Port(40000)),
            EndPoint::new(Ip(0x0A000002), Port(2049)),
        ),
        packet: PacketId(i),
        size: 1500,
        pid: Some(Pid(7)),
        arm: None,
    }
}

fn bench_kprof_emit(c: &mut Criterion) {
    let mut g = c.benchmark_group("kprof");

    g.bench_function("emit_suppressed", |b| {
        let mut kprof = Kprof::new(NodeId(0));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let ev = kprof.make_event(SimTime::from_nanos(i), 0, net_payload(i));
            std::hint::black_box(kprof.emit(&ev));
        });
    });

    g.bench_function("emit_counting_subscriber", |b| {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::ALL)));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let ev = kprof.make_event(SimTime::from_nanos(i), 0, net_payload(i));
            std::hint::black_box(kprof.emit(&ev));
        });
    });

    g.finish();
}

fn bench_lpa(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpa");
    g.bench_function("net_event", |b| {
        let mut lpa = Lpa::new(NodeId(0), Ip(0x0A000002), LpaConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            use kprof::Analyzer;
            i += 1;
            let ev = kprof::Event {
                seq: i,
                node: NodeId(0),
                cpu: 0,
                wall: SimTime::from_nanos(i * 1000),
                payload: net_payload(i),
            };
            std::hint::black_box(lpa.on_event(&ev));
        });
    });
    g.finish();
}

fn bench_ecode(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecode");
    let src = r#"
        static int count = 0;
        static double total = 0.0;
        if (kind == 7 && size > 1000) {
            count = count + 1;
            total = total + size;
            out(0, total / count);
        }
        return count % 100 == 0;
    "#;
    g.bench_function("compile", |b| {
        b.iter(|| {
            std::hint::black_box(
                ecode::Program::compile(src, &sysprof::EVENT_INPUTS).expect("compiles"),
            )
        });
    });
    g.bench_function("run_per_event", |b| {
        let program = ecode::Program::compile(src, &sysprof::EVENT_INPUTS).expect("compiles");
        let mut inst = ecode::Instance::new(&program);
        use ecode::Value::Int;
        let inputs = [
            Int(7),
            Int(7),
            Int(1_000_000),
            Int(1500),
            Int(0),
            Int(40000),
            Int(2049),
        ];
        b.iter(|| std::hint::black_box(inst.run(&inputs, 10_000).expect("runs").fuel_used));
    });
    g.finish();
}

fn bench_pbio(c: &mut Criterion) {
    let mut g = c.benchmark_group("pbio");
    let schema = InteractionRecord::schema();
    let record = InteractionRecord {
        node: NodeId(1),
        flow: FlowKey::new(
            EndPoint::new(Ip(0x0A000001), Port(40000)),
            EndPoint::new(Ip(0x0A000002), Port(2049)),
        ),
        class_port: Port(2049),
        pid: 17,
        start_us: 1_000_000,
        end_us: 1_002_500,
        req_packets: 6,
        req_bytes: 8_400,
        resp_packets: 1,
        resp_bytes: 190,
        kernel_in_us: 700,
        user_us: 120,
        kernel_out_us: 80,
        blocked_us: 1_500,
        blocked_io_us: 1_400,
    };
    let values = record.to_values();
    let encode = || {
        let mut w = RecordWriter::new(&schema);
        for v in &values {
            w.push_value(v).expect("schema matches");
        }
        w.finish().expect("complete")
    };
    g.bench_function("encode_interaction", |b| {
        b.iter(|| std::hint::black_box(encode()));
    });
    let encoded = encode();
    g.bench_function("decode_interaction", |b| {
        b.iter(|| {
            std::hint::black_box(
                RecordReader::new(&schema, &encoded)
                    .read_all()
                    .expect("decodes"),
            )
        });
    });
    g.finish();
}

fn bench_pubsub(c: &mut Criterion) {
    let mut g = c.benchmark_group("pubsub");
    let schema = InteractionRecord::schema();
    let values = InteractionRecord {
        node: NodeId(1),
        flow: FlowKey::new(
            EndPoint::new(Ip(1), Port(1)),
            EndPoint::new(Ip(2), Port(2049)),
        ),
        class_port: Port(2049),
        pid: 1,
        start_us: 0,
        end_us: 100,
        req_packets: 1,
        req_bytes: 100,
        resp_packets: 1,
        resp_bytes: 100,
        kernel_in_us: 10,
        user_us: 5,
        kernel_out_us: 2,
        blocked_us: 0,
        blocked_io_us: 0,
    }
    .to_values();

    g.bench_function("publish_filtered_4_subscribers", |b| {
        b.iter_batched(
            || {
                let mut hub = pubsub::Hub::new();
                let t = hub.topic("interactions");
                for i in 0..4u32 {
                    hub.subscribe_with_schema(
                        t,
                        EndPoint::new(Ip(i + 10), Port(9999)),
                        Some("return kernel_in_us > 5;"),
                        &schema,
                    )
                    .expect("subscribes");
                }
                (hub, t)
            },
            |(mut hub, t)| {
                std::hint::black_box(hub.publish(t, &schema, &values).expect("publishes"))
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Ablations called out in DESIGN.md: what each design choice buys.
fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");

    // LPA with vs without scheduling attribution (the Full vs
    // Interactions controller levels).
    g.bench_function("lpa_full_vs_no_sched/full", |b| {
        let mut lpa = Lpa::new(NodeId(0), Ip(0x0A000002), LpaConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            use kprof::Analyzer;
            i += 1;
            let ev = kprof::Event {
                seq: i,
                node: NodeId(0),
                cpu: 0,
                wall: SimTime::from_nanos(i * 1000),
                payload: net_payload(i),
            };
            std::hint::black_box(lpa.on_event(&ev));
        });
    });
    g.bench_function("lpa_full_vs_no_sched/no_sched", |b| {
        let cfg = LpaConfig {
            track_scheduling: false,
            ..LpaConfig::default()
        };
        let mut lpa = Lpa::new(NodeId(0), Ip(0x0A000002), cfg);
        let mut i = 0u64;
        b.iter(|| {
            use kprof::Analyzer;
            i += 1;
            let ev = kprof::Event {
                seq: i,
                node: NodeId(0),
                cpu: 0,
                wall: SimTime::from_nanos(i * 1000),
                payload: net_payload(i),
            };
            std::hint::black_box(lpa.on_event(&ev));
        });
    });

    // Binary records vs a text rendering (the anti-CBE/XML argument).
    let record = InteractionRecord {
        node: NodeId(1),
        flow: FlowKey::new(
            EndPoint::new(Ip(0x0A000001), Port(40000)),
            EndPoint::new(Ip(0x0A000002), Port(2049)),
        ),
        class_port: Port(2049),
        pid: 17,
        start_us: 1_000_000,
        end_us: 1_002_500,
        req_packets: 6,
        req_bytes: 8_400,
        resp_packets: 1,
        resp_bytes: 190,
        kernel_in_us: 700,
        user_us: 120,
        kernel_out_us: 80,
        blocked_us: 1_500,
        blocked_io_us: 1_400,
    };
    let schema = InteractionRecord::schema();
    let values = record.to_values();
    g.bench_function("encoding/pbio_binary", |b| {
        b.iter(|| {
            let mut w = RecordWriter::new(&schema);
            for v in &values {
                w.push_value(v).expect("matches");
            }
            std::hint::black_box(w.finish().expect("complete"))
        });
    });
    g.bench_function("encoding/json_text", |b| {
        b.iter(|| std::hint::black_box(serde_json::to_vec(&record).expect("serializes")));
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_kprof_emit,
    bench_lpa,
    bench_ecode,
    bench_pbio,
    bench_pubsub,
    bench_ablations
);
criterion_main!(benches);
