//! Criterion hot-path suite: events/sec through the emit → dispatch →
//! E-Code VM → encode pipeline, plus E1/E2/F6 end-to-end wall-clock.
//!
//! The `hotpath` binary drives the same [`sysprof_bench::hotpath`]
//! pipeline and records the committed `BENCH_hotpath.json` baseline; this
//! suite is for statistically careful local comparisons (`cargo bench
//! --bench hotpath`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simcore::SimDuration;
use sysprof_bench::hotpath::{
    cpa_eval_instance, pump_cpa, synth_record, CpaEventStream, HotPipeline, CPA_EVAL_SET,
};
use sysprof_bench::{exp_e1_linpack, exp_e2_iperf, exp_f6_dwcs};

const BLOCK: u64 = 4096;

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.bench_function("emit_dispatch_vm_encode", |b| {
        let mut pipe = HotPipeline::new();
        b.iter(|| pipe.pump(BLOCK));
    });
    g.finish();
}

/// The representative CPA set on the compiled tier — the statistically
/// careful companion to the `cpa_eval` arm of the `hotpath` binary
/// (which records the committed baseline and gate).
fn bench_cpa_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpa_eval");
    g.throughput(Throughput::Elements(BLOCK));
    let stream = CpaEventStream::generate(0, BLOCK);
    for (name, src) in CPA_EVAL_SET {
        g.bench_function(name, |b| {
            let (mut inst, fuel) = cpa_eval_instance(src);
            b.iter(|| pump_cpa(&mut inst, &stream, fuel, 1).flagged);
        });
    }
    g.finish();
}

/// Per-record `RecordWriter` vs the compiled row codec over the
/// all-U64 interaction schema — the `pbio_encode` win the codec's hot
/// loop exists for (identical output bytes, pinned by pbio's tests).
fn bench_pbio_encode(c: &mut Criterion) {
    const RECORDS: usize = 1024;
    let schema = sysprof::InteractionRecord::schema();
    let stride = schema.len();
    let mut rows = Vec::with_capacity(RECORDS * stride);
    let mut row = Vec::with_capacity(stride);
    for i in 0..RECORDS as u64 {
        synth_record(i).to_raw_row(&mut row);
        rows.extend_from_slice(&row);
    }

    let mut g = c.benchmark_group("pbio_encode");
    g.throughput(Throughput::Elements(RECORDS as u64));
    g.bench_function("record_writer_per_row", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            for row in rows.chunks_exact(stride) {
                let mut w = pbio::RecordWriter::new(&schema);
                for &v in row {
                    w.push_u64(v as u64).unwrap();
                }
                out.extend_from_slice(&w.finish().unwrap());
            }
            out.len()
        });
    });
    g.bench_function("encode_row_into", |b| {
        let enc = pbio::BatchEncoder::new(&schema).unwrap();
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            for row in rows.chunks_exact(enc.stride()) {
                enc.encode_row_into(row, &mut out).unwrap();
            }
            out.len()
        });
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("e1_linpack", |b| b.iter(|| exp_e1_linpack(42)));
    g.bench_function("e2_iperf_200ms", |b| {
        b.iter(|| exp_e2_iperf(SimDuration::from_millis(200), 42))
    });
    g.bench_function("f6_dwcs_2s", |b| {
        b.iter(|| exp_f6_dwcs(SimDuration::from_secs(2), 42))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_cpa_eval,
    bench_pbio_encode,
    bench_end_to_end
);
criterion_main!(benches);
