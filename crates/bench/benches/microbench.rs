//! Micro-benchmarks of the engine and the recovery fast path.
//!
//! These complement the per-figure harness binaries: they measure how fast
//! the *simulator itself* runs (event throughput, topology construction,
//! max-min allocation) and how cheap ShareBackup's recovery primitive is
//! (slot replacement = a handful of circuit reconfigurations).
//!
//! The harness is self-contained (`harness = false`): a warmup pass followed
//! by timed batches, reporting mean and best ns/iteration. This file is the
//! workspace's only wall-clock reader: timing is its whole point, and no
//! simulated result depends on it.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark times real code with `Instant`; its timings never feed a simulation"
)]
use std::hint::black_box;
use std::time::Instant;

use sharebackup_core::{diagnose, Controller, ControllerConfig, DetectionConfig};
use sharebackup_flowsim::max_min_rates;
use sharebackup_packet::{PacketNetConfig, PacketSim, PktFlowSpec};
use sharebackup_routing::{ecmp_path, FlowKey, GlobalReroute, TwoLevelTables};
use sharebackup_sim::{Engine, Time};
use sharebackup_topo::{
    FatTree, FatTreeConfig, GroupId, HostAddr, LinkId, ShareBackup, ShareBackupConfig,
};

/// Criterion-shaped driver so the benchmark bodies read like upstream ones.
struct Criterion {
    /// Target measurement time per benchmark, in nanoseconds.
    budget_ns: u128,
}

struct Bencher {
    samples: Vec<u128>,
    budget_ns: u128,
}

#[allow(dead_code)]
enum BatchSize {
    SmallInput,
}

impl Criterion {
    fn new() -> Self {
        Criterion {
            budget_ns: 200_000_000,
        }
    }

    fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            samples: Vec::new(),
            budget_ns: self.budget_ns,
        };
        f(&mut b);
        let n = b.samples.len().max(1) as u128;
        let mean = b.samples.iter().sum::<u128>() / n;
        let best = b.samples.iter().min().copied().unwrap_or(0);
        println!("{name:<40} {mean:>12} ns/iter (best {best} ns, {n} samples)");
    }
}

impl Bencher {
    /// Time `f` repeatedly until the budget is exhausted.
    fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup and per-sample calibration.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_nanos().max(1);
        let per_sample = (self.budget_ns / 50 / once).clamp(1, 10_000);
        let mut spent = once;
        while spent < self.budget_ns && self.samples.len() < 200 {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(f());
            }
            let d = t.elapsed().as_nanos();
            self.samples.push(d / per_sample.max(1));
            spent += d;
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is excluded.
    fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let mut spent = 0u128;
        while spent < self.budget_ns && self.samples.len() < 200 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            let d = t.elapsed().as_nanos();
            self.samples.push(d);
            spent += d;
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/100k_events", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            for i in 0..100_000u64 {
                engine.schedule(Time::from_nanos(i), i);
            }
            let mut sum = 0u64;
            engine.run(&mut |_: &mut Engine<u64>, _now, ev: u64| sum += ev);
            sum
        });
    });
}

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topo/fattree_k16_build", |b| {
        b.iter(|| FatTree::build(FatTreeConfig::new(16)));
    });
    c.bench_function("topo/sharebackup_k16_n1_build", |b| {
        b.iter(|| ShareBackup::build(ShareBackupConfig::new(16, 1)));
    });
}

fn bench_routing(c: &mut Criterion) {
    let ft = FatTree::build(FatTreeConfig::new(16));
    let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
    let dst = ft.host(HostAddr { pod: 9, edge: 3, host: 2 });
    c.bench_function("routing/ecmp_path_k16", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            ecmp_path(&ft, &FlowKey::new(src, dst, id))
        });
    });
    c.bench_function("routing/twolevel_tables_k48", |b| {
        b.iter(|| TwoLevelTables::build(48));
    });
    c.bench_function("routing/global_reroute_100_flows", |b| {
        let mut net = FatTree::build(FatTreeConfig::new(8));
        let dead = net.core(0);
        net.net.set_node_up(dead, false);
        let flows: Vec<FlowKey> = (0..100)
            .map(|id| {
                FlowKey::new(
                    net.host(HostAddr { pod: 0, edge: 0, host: 0 }),
                    net.host(HostAddr { pod: 3, edge: 1, host: 1 }),
                    id,
                )
            })
            .collect();
        b.iter(|| GlobalReroute::route_all(&net, &flows));
    });
}

fn bench_maxmin(c: &mut Criterion) {
    // 500 flows over 200 links, 3 links each.
    let flows: Vec<Vec<LinkId>> = (0..500)
        .map(|i| {
            vec![
                LinkId((i % 200) as u32),
                LinkId(((i * 7) % 200) as u32),
                LinkId(((i * 13) % 200) as u32),
            ]
        })
        .collect();
    c.bench_function("flowsim/maxmin_500_flows", |b| {
        b.iter(|| max_min_rates(&flows, |_| 10e9));
    });
}

fn bench_recovery(c: &mut Criterion) {
    c.bench_function("core/replace_edge_slot_k16", |b| {
        b.iter_batched(
            || {
                let sb = ShareBackup::build(ShareBackupConfig::new(16, 1));
                Controller::new(sb, ControllerConfig::default())
            },
            |mut ctl| {
                let slot = GroupId::edge(0).slot(0);
                let victim = ctl.sb.occupant(slot);
                ctl.sb.set_phys_healthy(victim, false);
                ctl.handle_node_failure(victim, Time::ZERO)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_control_plane(c: &mut Criterion) {
    c.bench_function("core/offline_diagnosis_k16", |b| {
        b.iter_batched(
            || {
                let mut sb = ShareBackup::build(ShareBackupConfig::new(16, 1));
                let g = GroupId::agg(0);
                let victim = sb.occupant(g.slot(0));
                let spare = sb.spares(g)[0];
                sb.replace(g.slot(0), spare);
                (sb, victim)
            },
            |(mut sb, victim)| diagnose(&mut sb, victim, 8),
            BatchSize::SmallInput,
        );
    });
    c.bench_function("core/detection_simulation", |b| {
        use sharebackup_sim::Duration;
        b.iter(|| {
            sharebackup_core::simulate_detection(
                DetectionConfig::default(),
                Duration::from_micros(123),
                Duration::from_micros(777),
                Time::from_millis(5),
            )
        });
    });
}

fn bench_workload(c: &mut Criterion) {
    use sharebackup_sim::SimRng;
    use sharebackup_workload::{CoflowTrace, TraceConfig};
    c.bench_function("workload/trace_5min_128racks", |b| {
        b.iter(|| {
            let cfg = TraceConfig::fb_like(128, Time::from_secs(300));
            let mut rng = SimRng::seed_from_u64(1);
            CoflowTrace::generate(&cfg, &mut rng, |rack, salt| {
                sharebackup_topo::NodeId((rack as u32) * 8 + (salt % 8) as u32)
            })
        });
    });
}

fn bench_f10(c: &mut Criterion) {
    use sharebackup_routing::F10Router;
    use sharebackup_topo::F10Topology;
    let mut f10 = F10Topology::build(FatTreeConfig::new(16));
    // A downward failure so routing takes the detour path.
    let healthy = F10Router::route(
        &f10,
        &FlowKey::new(
            f10.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            f10.host(HostAddr { pod: 1, edge: 1, host: 1 }),
            3,
        ),
    )
    .expect("connected");
    let core = healthy[3];
    let a2 = healthy[4];
    let l = f10.net.link_between(core, a2).expect("downlink");
    f10.net.set_link_up(l, false);
    let src = f10.host(HostAddr { pod: 0, edge: 0, host: 0 });
    let dst = f10.host(HostAddr { pod: 1, edge: 1, host: 1 });
    c.bench_function("routing/f10_detour_route_k16", |b| {
        b.iter(|| F10Router::route(&f10, &FlowKey::new(src, dst, 3)));
    });
}

fn bench_packet(c: &mut Criterion) {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
    let dst = ft.host(HostAddr { pod: 1, edge: 1, host: 1 });
    let path = ecmp_path(&ft, &FlowKey::new(src, dst, 1));
    c.bench_function("packet/1MB_transfer_k4", |b| {
        b.iter(|| {
            PacketSim::new(PacketNetConfig::default()).run(
                &ft.net,
                &[PktFlowSpec {
                    path: path.clone(),
                    bytes: 1_000_000,
                    start: Time::ZERO,
                }],
                vec![],
                Time::from_secs(5),
            )
        });
    });
}

fn main() {
    let mut c = Criterion::new();
    bench_engine(&mut c);
    bench_topology(&mut c);
    bench_routing(&mut c);
    bench_maxmin(&mut c);
    bench_recovery(&mut c);
    bench_control_plane(&mut c);
    bench_workload(&mut c);
    bench_f10(&mut c);
    bench_packet(&mut c);
}
