//! Communication-metering integration tests: the recorded matrices and
//! per-level volumes must match what the plans predict, exactly.

use std::time::Duration;
use xct_comm::{
    execute_hierarchical, run_ranks, run_ranks_traced, run_ranks_traced_wired, Backoff, CommReport,
    Footprints, HierarchicalPlan, Ownership, PartialData, Topology, TrafficClass, WireModel,
};
use xct_fp16::F16;
use xct_telemetry::{MetricId, Phase, Telemetry};

/// Shared fixture: 8 ranks on a 2-node × 2-socket × 2-GPU topology,
/// 32 rows, deterministic staggered footprints (mirrors the unit fixture
/// in `xct-comm`'s plan tests).
fn fixture() -> (Footprints, Ownership, Topology) {
    let topo = Topology::new(2, 2, 2);
    let owner: Vec<u32> = (0..32u32).map(|r| r / 4).collect();
    let fp: Vec<Vec<u32>> = (0..8usize)
        .map(|p| {
            (0..32u32)
                .filter(|&r| (r as usize * 7 + p * 3) % 5 < 3)
                .collect()
        })
        .collect();
    (Footprints::new(fp), Ownership::new(owner, 8), topo)
}

#[test]
fn ring_exchange_records_exact_byte_matrix() {
    const N: usize = 4;
    const VALS: usize = 8; // 8 × f32 = 32 payload bytes per message
    let stats = run_ranks(N, |comm| {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let payload = vec![comm.rank() as f32; VALS];
        comm.send_vals::<f32>(next, 7, &payload).unwrap();
        let got = comm.recv_vals::<f32>(prev, 7).unwrap();
        assert_eq!(got.len(), VALS);
        comm.comm_stats()
    });
    let report = CommReport::new(stats);
    let mut expected = vec![vec![0u64; N]; N];
    for src in 0..N {
        expected[src][(src + 1) % N] = (VALS * std::mem::size_of::<f32>()) as u64;
    }
    assert_eq!(report.byte_matrix(), expected);
    for (src, row) in report.message_matrix().iter().enumerate() {
        for (dst, &msgs) in row.iter().enumerate() {
            assert_eq!(msgs, u64::from(dst == (src + 1) % N), "msgs {src}->{dst}");
        }
    }
    // Plain sends outside any plan scope land in the Other class.
    assert_eq!(
        report.level_bytes()[TrafficClass::Other as usize],
        (N * VALS * std::mem::size_of::<f32>()) as u64
    );
}

#[test]
fn hierarchical_reduction_volumes_match_plan_prediction() {
    let (fp, own, topo) = fixture();
    let plan = HierarchicalPlan::build(&fp, &own, &topo);
    let (socket_el, node_el, global_el) = plan.level_elements();

    let run = |elem_bytes: u64, stats: Vec<xct_comm::RankCommStats>| {
        let report = CommReport::new(stats);
        let levels = report.level_bytes();
        assert_eq!(
            levels[TrafficClass::Socket as usize],
            socket_el * elem_bytes,
            "socket level"
        );
        assert_eq!(
            levels[TrafficClass::Node as usize],
            node_el * elem_bytes,
            "node level"
        );
        assert_eq!(
            levels[TrafficClass::Global as usize],
            global_el * elem_bytes,
            "global level"
        );
        assert_eq!(levels[TrafficClass::Control as usize], 0);
        assert_eq!(levels[TrafficClass::Other as usize], 0);
        assert_eq!(
            report.total_bytes(),
            (socket_el + node_el + global_el) * elem_bytes
        );
    };

    // Single precision: 4 bytes per element on every level.
    let stats = run_ranks(8, |comm| {
        let p = comm.rank();
        let rows = fp.per_rank[p].clone();
        let vals: Vec<f32> = rows.iter().map(|&r| r as f32).collect();
        let mine = PartialData::new(rows, vals);
        execute_hierarchical(comm, &plan, &own, &mine).unwrap();
        comm.comm_stats()
    });
    run(4, stats);

    // Half precision literally moves half the bytes (Table IV's point).
    let stats = run_ranks(8, |comm| {
        let p = comm.rank();
        let rows = fp.per_rank[p].clone();
        let vals: Vec<F16> = rows.iter().map(|&r| F16::from_f32(r as f32)).collect();
        let mine = PartialData::new(rows, vals);
        execute_hierarchical(comm, &plan, &own, &mine).unwrap();
        comm.comm_stats()
    });
    run(2, stats);
}

#[test]
fn traced_ranks_record_per_level_spans_on_their_own_tracks() {
    let (fp, own, topo) = fixture();
    let plan = HierarchicalPlan::build(&fp, &own, &topo);
    let tele = Telemetry::enabled();
    run_ranks_traced(8, &tele, |comm| {
        let p = comm.rank();
        assert_eq!(comm.telemetry().track(), p as u32);
        let rows = fp.per_rank[p].clone();
        let vals: Vec<f32> = rows.iter().map(|&r| r as f32).collect();
        let mine = PartialData::new(rows, vals);
        execute_hierarchical(comm, &plan, &own, &mine).unwrap();
    });
    let snap = tele.snapshot();
    for rank in 0..8u32 {
        for phase in [Phase::ReduceSocket, Phase::ReduceNode, Phase::ReduceGlobal] {
            assert_eq!(
                snap.spans
                    .iter()
                    .filter(|s| s.track == rank && s.phase == phase)
                    .count(),
                1,
                "rank {rank} {phase}"
            );
        }
    }
}

/// The `comm.wait` backoff used to be tune-blind: nothing measured how
/// often a bounded-backoff wait spun, yielded, or slept, so its
/// constants could never be tuned against evidence. Worse, the drain
/// loops re-entered a self-contained backoff helper in a `while`,
/// restarting the ladder at the yield rung every call — the wait never escalated to parks and
/// burned the core the compute pipeline needed. Under a wire model that
/// holds the message back long enough to exhaust the yield phase, a
/// loop-owned [`Backoff`] must (a) reach its parking tier and (b) keep
/// the total failed-poll count small: the doubling pauses cover 3 ms of
/// wire in ~10 parks on top of the 16 yields, nowhere near the hundreds
/// of polls a ladder-resetting loop needs.
#[test]
fn backoff_counters_move_under_a_wired_run() {
    let wire = WireModel {
        latency: Duration::from_millis(3),
        bytes_per_sec: f64::INFINITY,
        ranks_per_node: 1, // every pair inter-node: all messages wired
    };
    let tele = Telemetry::enabled();
    run_ranks_traced_wired(2, &tele, Some(wire), |comm| {
        if comm.rank() == 0 {
            comm.send_vals::<f32>(1, 5, &[1.0, 2.0]).unwrap();
        } else {
            let mut req = comm.irecv(0, 5).unwrap();
            // 3 ms of wire time far exceeds the 16-poll yield phase, so
            // the persistent ladder must reach its sleeping tier before
            // this completes.
            let mut backoff = Backoff::new();
            while !req.test(comm).unwrap() {
                backoff.wait(comm);
            }
            let got = req.wait(comm).unwrap();
            assert_eq!(got.len(), 8);
            comm.recycle(got);
        }
    });
    let metrics = tele.metrics_snapshot();
    let receiver = metrics.track(1).expect("rank 1 recorded metrics");
    let spins = receiver.counter(MetricId::CommWaitSpins);
    assert!(spins >= 17, "spins: {spins} (must pass the yield phase)");
    assert!(
        spins <= 64,
        "spins: {spins} — a persistent ladder covers 3 ms of wire in \
         well under 64 polls; hundreds means the escalation reset is back"
    );
    let yields = receiver.counter(MetricId::CommWaitYields);
    assert_eq!(
        yields,
        u64::from(Backoff::YIELD_POLLS),
        "one wait event yields exactly through the yield phase"
    );
    assert!(
        receiver.counter(MetricId::CommWaitParks) >= 1,
        "parks: {}",
        receiver.counter(MetricId::CommWaitParks)
    );
    assert_eq!(
        spins,
        yields + receiver.counter(MetricId::CommWaitParks),
        "every failed poll either yields or parks"
    );
    // The sender track never waited.
    let sender = metrics.track(0).expect("rank 0 recorded metrics");
    assert_eq!(sender.counter(MetricId::CommWaitSpins), 0);
    // Send/recv accounting is exact: one 8-byte payload each way of the
    // metered channel (plus nothing else in this run).
    assert_eq!(sender.counter(MetricId::CommSendBytes), 8);
    assert_eq!(receiver.counter(MetricId::CommRecvBytes), 8);
    assert_eq!(metrics.inflight_bytes(), 0, "all messages matched");
}

/// A blocking `recv` that arrives late parks on the condvar; the park
/// counter and the comm.wait mailbox-depth gauge must reflect it.
#[test]
fn blocking_recv_counts_parks_and_depth() {
    let wire = WireModel {
        latency: Duration::from_millis(2),
        bytes_per_sec: f64::INFINITY,
        ranks_per_node: 1,
    };
    let tele = Telemetry::enabled();
    run_ranks_traced_wired(2, &tele, Some(wire), |comm| {
        if comm.rank() == 0 {
            comm.send_vals::<f32>(1, 9, &[3.0]).unwrap();
        } else {
            let got = comm.recv_vals::<f32>(0, 9).unwrap();
            assert_eq!(got, vec![3.0]);
        }
    });
    let metrics = tele.metrics_snapshot();
    let receiver = metrics.track(1).expect("rank 1 recorded metrics");
    assert!(
        receiver.counter(MetricId::CommWaitParks) >= 1,
        "parks: {}",
        receiver.counter(MetricId::CommWaitParks)
    );
    assert_eq!(
        receiver.gauge(MetricId::CommMailboxDepth),
        Some(0.0),
        "mailbox drained by the final match"
    );
}
