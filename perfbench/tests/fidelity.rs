//! The benchmark measures the real harness path, and measuring it does not
//! change it.

use std::rc::Rc;

use sharebackup_bench::fig1::run_fig1c_trial;
use sharebackup_flowsim::SimOutcome;
use sharebackup_perfbench::chaos::Chaos;
use sharebackup_perfbench::fig1c::Fig1c;
use sharebackup_perfbench::packet::Packet;
use sharebackup_perfbench::workload::{Done, Job, Output, SetupClock, Workload, World};
use sharebackup_topo::FatTree;

fn run_all(jobs: Vec<Job>, probe: bool) -> Vec<Done> {
    jobs.into_iter().map(|j| j.run(probe)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_sim(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.flows, b.flows, "{label}: per-flow outcomes");
    assert_eq!(a.finished_at, b.finished_at, "{label}: finish time");
    assert_eq!(a.events, b.events, "{label}: loop steps");
    let links = |o: &SimOutcome| -> Vec<(u32, u64)> {
        o.link_bits
            .iter()
            .map(|(l, b)| (l.0, b.to_bits()))
            .collect()
    };
    assert_eq!(links(a), links(b), "{label}: per-link bits");
}

/// Run `w` plain and probed from two identical set-ups and require
/// bit-identical outputs.
fn assert_probes_are_inert<W: Workload>(w: &W) {
    let (plain_jobs, _) = w.prepare(&mut SetupClock::default());
    let (probed_jobs, _) = w.prepare(&mut SetupClock::default());
    let plain = run_all(plain_jobs, false);
    let probed = run_all(probed_jobs, true);
    assert_eq!(plain.len(), probed.len());
    for (a, b) in plain.iter().zip(&probed) {
        match (&a.output, &b.output) {
            (Output::Flow { out: x, world: wx }, Output::Flow { out: y, world: wy }) => {
                assert!(a.layers.is_none() && b.layers.is_some());
                assert_same_sim(x, y, &a.label);
                assert_eq!(
                    format!("{:?}", wx.stats()),
                    format!("{:?}", wy.stats()),
                    "{}: controller counters",
                    a.label
                );
            }
            (Output::Packet { out: x, drops: dx }, Output::Packet { out: y, drops: dy }) => {
                assert_eq!(x, y, "{}", a.label);
                assert_eq!(dx, dy, "{}", a.label);
            }
            _ => panic!("{}: run kinds differ", a.label),
        }
    }
}

#[test]
fn probed_runs_are_bit_identical_to_plain_runs() {
    assert_probes_are_inert(&Fig1c::new(8, 11, 2));
    assert_probes_are_inert(&Chaos {
        k: 4,
        seed: 11,
        trials: 1,
    });
    assert_probes_are_inert(&Packet {
        k: 4,
        seed: 11,
        bytes: 200_000,
    });
}

#[test]
fn probes_attribute_the_whole_run() {
    let w = Fig1c::new(8, 5, 1);
    let (jobs, _) = w.prepare(&mut SetupClock::default());
    for d in run_all(jobs, true) {
        let l = d.layers.expect("probed");
        let Output::Flow { out, .. } = &d.output else {
            panic!("flow-level")
        };
        // One solve before the loop plus one per step.
        assert_eq!(l.solves, out.events + 1, "{}", d.label);
        assert_eq!(l.solve_call_ns.len() as u64, l.solves);
        assert_eq!(l.route_call_ns.len() as u64, l.route_calls);
        let stamped = l.route_ns + l.reroute_ns + l.epoch_ns + l.poll_ns + l.solve_ns;
        assert!(stamped <= l.run_ns, "{}: layers exceed the run", d.label);
        assert_eq!(stamped + l.advance_ns(), l.run_ns);
        assert!(l.run_ns <= d.wall_ns);
    }
}

#[test]
fn fig1c_workload_reproduces_the_harness_trial() {
    let w = Fig1c::new(8, 23, 2);
    let (jobs, ctx) = w.prepare(&mut SetupClock::default());
    let done = run_all(jobs, false);
    let ours = w.slowdowns(&ctx, &done);
    let ft = FatTree::build(w.setup.ft_config());
    for (trial, (failure, mine)) in w.failures().into_iter().zip(&ours).enumerate() {
        let theirs = run_fig1c_trial(&w.setup, &ft, trial, failure);
        for (system, (a, b)) in
            ["ft", "f10", "sb"]
                .iter()
                .zip(mine.iter().zip([&theirs.ft, &theirs.f10, &theirs.sb]))
        {
            assert_eq!(bits(&a.0), bits(&b.0), "trial {trial} {system}: slowdowns");
            assert_eq!(a.1, b.1, "trial {trial} {system}: stranded coflows");
        }
    }
}

#[test]
fn chaos_treatments_replay_one_schedule() {
    let w = Chaos {
        k: 4,
        seed: 5,
        trials: 3,
    };
    let (jobs, ctx) = w.prepare(&mut SetupClock::default());
    assert_eq!(jobs.len(), 6);
    let timeline = |j: &Job| match j {
        Job::Flow {
            world: World::Sb(w),
            epochs,
            flows,
            ..
        } => (format!("{:?}", w.events), epochs.clone(), flows.clone()),
        _ => panic!("chaos jobs are ShareBackup flow-level runs"),
    };
    let mut schedules = Vec::new();
    for (pair, cpair) in jobs.chunks(2).zip(ctx.chunks(2)) {
        let (stall, reroute) = (timeline(&pair[0]), timeline(&pair[1]));
        assert!(Rc::ptr_eq(&cpair[0].failures, &cpair[1].failures));
        assert!(!cpair[0].failures.is_empty(), "full-chaos injects failures");
        assert_eq!(stall.0, reroute.0, "epoch events");
        assert_eq!(stall.1, reroute.1, "epoch instants");
        assert!(Rc::ptr_eq(&stall.2, &reroute.2), "traffic");
        schedules.push(stall.0);
    }
    assert_ne!(schedules[0], schedules[1], "trials draw distinct schedules");
}
