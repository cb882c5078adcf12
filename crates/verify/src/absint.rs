//! Interval-domain bounds proofs over compiled index programs.
//!
//! [`crate::compiled_check`] *executes* the index programs with tokens,
//! which proves routing but only touches the indices a matched
//! send/recv pair actually drives. This pass is the complementary
//! abstract interpretation: every index table of every level program is
//! abstracted to the interval `[min, max]` of its entries, and the
//! interval is checked against the declared length of the buffer the
//! table addresses — sends gather from the level's *input* buffer,
//! keeps read the input and write the output, recv landings and the
//! final restriction write the *output*. Buffer lengths are not assumed:
//! they are chained through the pipeline exactly as execution chains
//! them (`in_len → level.out_len → … → owned_len` forward, reversed for
//! the scatter), so a program whose levels disagree about buffer sizes
//! is caught as a chain break even when every table is internally
//! consistent.
//!
//! The abstraction is sound and complete for this property: an access
//! set is in bounds iff its maximum is, so `[min, max] ⊆ [0, len)`
//! neither misses a violation nor reports a spurious one. What the pass
//! does **not** prove is value routing (that is `compiled_check`'s
//! token simulation) or anything about message timing (the explorer's
//! job).
//!
//! The clean-verdict path allocates nothing: intervals are folded in
//! registers and a passing [`VerifyReport`] never pushes. The root
//! package's `tests/alloc_free.rs` asserts this with its counting
//! allocator.

use crate::diag::{AccessKind, ExchangeLevel, VerifyReport, ViolationKind};
use xct_comm::{CompiledPlans, LevelProgram, RankPlan};

/// The interval abstraction of one index table: `None` for the empty
/// table (no access, trivially safe), else `Some((min, max))`.
fn interval(idx: &[u32]) -> Option<(u32, u32)> {
    idx.iter().fold(None, |acc, &i| match acc {
        None => Some((i, i)),
        Some((lo, hi)) => Some((lo.min(i), hi.max(i))),
    })
}

/// Checks one table's interval against the addressed buffer length.
fn check_table(
    rank: usize,
    level: ExchangeLevel,
    access: AccessKind,
    idx: &[u32],
    len: usize,
    report: &mut VerifyReport,
) {
    if let Some((_, hi)) = interval(idx) {
        if hi as usize >= len {
            report.push(
                rank,
                Some(level),
                ViolationKind::IndexOutOfBounds {
                    access,
                    index: hi,
                    len,
                },
            );
        }
    }
}

/// Checks every table of one level against its input length, returning
/// the output length for chaining.
fn check_level(
    rank: usize,
    name: ExchangeLevel,
    level: &LevelProgram,
    in_len: usize,
    report: &mut VerifyReport,
) -> usize {
    let out_len = level.out_len();
    for t in level.sends() {
        check_table(rank, name, AccessKind::SendGather, &t.idx, in_len, report);
    }
    for &(s, d) in level.keeps() {
        if s as usize >= in_len {
            report.push(
                rank,
                Some(name),
                ViolationKind::IndexOutOfBounds {
                    access: AccessKind::KeepSrc,
                    index: s,
                    len: in_len,
                },
            );
        }
        if d as usize >= out_len {
            report.push(
                rank,
                Some(name),
                ViolationKind::IndexOutOfBounds {
                    access: AccessKind::KeepDst,
                    index: d,
                    len: out_len,
                },
            );
        }
    }
    for t in level.recvs() {
        check_table(rank, name, AccessKind::RecvLanding, &t.idx, out_len, report);
    }
    out_len
}

/// Names the forward levels of one rank, mirroring execution order.
fn reduce_names(num_local: usize) -> impl Iterator<Item = ExchangeLevel> {
    (0..num_local)
        .map(move |i| match (num_local, i) {
            (2, 0) => ExchangeLevel::Socket,
            _ => ExchangeLevel::Node,
        })
        .chain(std::iter::once(ExchangeLevel::Global))
}

fn scatter_names(num_local: usize) -> impl Iterator<Item = ExchangeLevel> {
    std::iter::once(ExchangeLevel::ScatterGlobal).chain((0..num_local).map(move |i| {
        match (num_local, i) {
            (2, 0) => ExchangeLevel::ScatterNode,
            _ => ExchangeLevel::ScatterSocket,
        }
    }))
}

/// Proves every index of one rank's programs in bounds, chaining buffer
/// lengths through both pipelines.
fn check_rank(rank: usize, rp: &RankPlan, report: &mut VerifyReport) {
    // Forward: footprint → local levels → global → owned.
    let mut len = rp.in_len();
    let mut names = reduce_names(rp.local_levels().len());
    for level in rp.local_levels() {
        // xct-allow(no-panic): infallible — reduce_names yields one name per local level plus Global
        let name = names.next().expect("level name");
        len = check_level(rank, name, level, len, report);
    }
    // xct-allow(no-panic): infallible — the Global name is always the iterator's last element
    let gname = names.next().expect("global name");
    len = check_level(rank, gname, rp.global_level(), len, report);
    if len != rp.owned_len() {
        report.push(
            rank,
            Some(ExchangeLevel::Global),
            ViolationKind::Malformed {
                detail: format!(
                    "forward pipeline ends with buffer length {len}, owned length is {}",
                    rp.owned_len()
                ),
            },
        );
    }
    // Scatter: owned → global stage → fan-out levels → restriction.
    let mut len = rp.owned_len();
    let num_local = rp.scatter_local_levels().len();
    let mut names = scatter_names(num_local);
    // xct-allow(no-panic): infallible — scatter_names always starts with ScatterGlobal
    let sgname = names.next().expect("scatter-global name");
    len = check_level(rank, sgname, rp.scatter_global_level(), len, report);
    let mut last = sgname;
    for level in rp.scatter_local_levels() {
        // xct-allow(no-panic): infallible — scatter_names yields one name per fan-out level
        let name = names.next().expect("scatter level name");
        len = check_level(rank, name, level, len, report);
        last = name;
    }
    check_table(
        rank,
        last,
        AccessKind::Restrict,
        rp.restrict_idx(),
        len,
        report,
    );
    if rp.restrict_idx().len() != rp.in_len() {
        report.push(
            rank,
            Some(last),
            ViolationKind::Malformed {
                detail: format!(
                    "restriction covers {} positions for footprint length {}",
                    rp.restrict_idx().len(),
                    rp.in_len()
                ),
            },
        );
    }
}

/// Interval-domain bounds proof for every Transfer table, keep pair, and
/// restriction index of `plans`, on both pipelines of every rank.
pub fn verify_bounds(plans: &CompiledPlans) -> VerifyReport {
    let mut report = VerifyReport::new();
    for rank in 0..plans.num_ranks() {
        check_rank(rank, plans.rank(rank), &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_comm::{Footprints, HierarchicalPlan, Ownership, Topology};

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
    fn compiled_hierarchical_plans_prove_in_bounds() {
        let (fp, own, topo) = fixture();
        let plan = HierarchicalPlan::build(&fp, &own, &topo);
        let plans = CompiledPlans::compile_hierarchical(&fp, &own, &plan);
        verify_bounds(&plans).assert_ok("hierarchical bounds");
    }

    #[test]
    fn interval_of_empty_table_is_none() {
        assert_eq!(interval(&[]), None);
        assert_eq!(interval(&[4]), Some((4, 4)));
        assert_eq!(interval(&[7, 2, 9, 3]), Some((2, 9)));
    }

    #[test]
    fn planner_topology_sweep_proves_in_bounds() {
        // "Arbitrary topologies produced by the planner": the seeded case
        // generator sweeps world sizes and footprint shapes.
        for seed in 0..16u64 {
            let case = crate::corpus::gen_case(seed);
            let plan = HierarchicalPlan::build(&case.footprints, &case.ownership, &case.topology);
            let plans =
                CompiledPlans::compile_hierarchical(&case.footprints, &case.ownership, &plan);
            let report = verify_bounds(&plans);
            assert!(report.ok(), "seed {seed}: {report}");
        }
    }
}
