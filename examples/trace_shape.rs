//! Workload substitution, audited: generate the synthetic coflow trace,
//! print its distributional fingerprint, export it in Coflow-Benchmark
//! format, re-import it, and verify the round trip. Point the optional
//! argument at a real `FB2010-1Hr-150-0.txt` to fingerprint the actual
//! Facebook trace instead.
//!
//! Run with: `cargo run --release --example trace_shape [trace.txt]`

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use sharebackup::sim::{SimRng, Time};
use sharebackup::topo::{FatTree, FatTreeConfig, HostAddr, NodeId};
use sharebackup::workload::{BenchmarkTrace, CoflowTrace, TraceConfig, TraceShape};

fn rack_to_host(ft: &FatTree, k: usize) -> impl FnMut(usize, u64) -> NodeId + '_ {
    let half = k / 2;
    move |rack, salt| {
        let racks = k * half;
        let rack = rack % racks;
        ft.host(HostAddr {
            pod: rack / half,
            edge: rack % half,
            host: (salt as usize) % half,
        })
    }
}

fn main() {
    let k = 16;
    let ft = FatTree::build(FatTreeConfig::new(k));

    if let Some(path) = std::env::args().nth(1) {
        // Fingerprint a real Coflow-Benchmark file.
        let text = std::fs::read_to_string(&path).expect("readable trace file");
        let bench = BenchmarkTrace::parse(&text).expect("valid Coflow-Benchmark format");
        println!(
            "{path}: {} racks, {} coflows",
            bench.racks,
            bench.coflows.len()
        );
        let trace = bench.instantiate(rack_to_host(&ft, k));
        println!("{}", TraceShape::of(&trace));
        return;
    }

    // Synthetic trace at the paper's scale.
    let cfg = TraceConfig::fb_like(k * k / 2, Time::from_secs(300));
    let mut rng = SimRng::seed_from_u64(42);
    let trace = CoflowTrace::generate(&cfg, &mut rng, rack_to_host(&ft, k));
    let shape = TraceShape::of(&trace);
    println!("synthetic 5-minute trace on {} racks:", k * k / 2);
    println!("{shape}");
    println!(
        "\nheavy-tailed fingerprint (the shape §2.2's findings depend on): {}",
        if shape.is_heavy_tailed() { "YES" } else { "NO" }
    );

    // Round-trip through the interchange format: rack-level export.
    // (Export uses one synthetic mapper/reducer per flow endpoint rack.)
    let bench = BenchmarkTrace {
        racks: k * k / 2,
        coflows: trace
            .coflows
            .iter()
            .map(|cf| {
                let first = cf.flows[0];
                sharebackup::workload::BenchmarkCoflow {
                    id: cf.id.0 as u64,
                    arrival_ms: trace.specs[first].arrival.as_nanos() / 1_000_000,
                    mappers: vec![0],
                    reducers: vec![(
                        1,
                        cf.flows.iter().map(|&i| trace.specs[i].bytes).sum::<u64>() as f64 / 1e6,
                    )],
                }
            })
            .collect(),
    };
    let text = bench.to_text();
    let again = BenchmarkTrace::parse(&text).expect("round trip");
    assert_eq!(bench, again);
    println!(
        "\nexported {} coflows to Coflow-Benchmark text ({} KB) and re-imported losslessly",
        again.coflows.len(),
        text.len() / 1024
    );
}
