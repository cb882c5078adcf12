//! Static tag-disjointness verification.
//!
//! The runtime matches messages by `(source, tag)` with per-key FIFO, so
//! two *different* exchanges that are ever in flight concurrently must
//! never emit messages with the same `(src, dst, tag)` triple — otherwise
//! one exchange's receive can drain the other's payload (exactly PR 3's
//! allreduce reply-tag bug). A [`TagClaimSet`] enumerates every triple a
//! set of concurrent exchanges can put in flight, each labelled with the
//! exchange that claims it, and [`TagClaimSet::check`] proves pairwise
//! disjointness across labels (same-label duplicates are legal: per-key
//! FIFO orders them).
//!
//! What counts as "concurrent" comes from the overlap pipeline's
//! concurrency contract (DESIGN.md §3c): under overlap, slice `s`'s
//! global exchange drains while slice `s+1` runs its *entire* pipeline,
//! and scalar collectives (allreduce, barrier) may interleave with any of
//! it. [`claims_for_compiled`] builds the corresponding claim set.

use crate::diag::{VerifyReport, ViolationKind};
use std::collections::HashMap;
use xct_comm::{CompiledPlans, LevelProgram, REPLY_TAG_SALT};

/// The per-slice tag salt of the overlap pipeline (mirrors the fused
/// slice salt in `xct-core`'s distributed operator: slice `s` XORs its
/// level tags with `(s + 1) << 44`).
pub fn slice_salt(slice: usize) -> u64 {
    ((slice as u64) + 1) << 44
}

/// One potential in-flight message: who sends it, who can match it, and
/// under which tag, attributed to a named exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagClaim {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// The wire tag.
    pub tag: u64,
    /// The exchange claiming the triple (for the collision witness).
    pub exchange: String,
    /// Whether this is internal reply traffic (allowed to use the
    /// reserved reply bit).
    pub reply: bool,
}

/// A set of claims from exchanges that may be in flight concurrently.
#[derive(Debug, Clone, Default)]
pub struct TagClaimSet {
    claims: Vec<TagClaim>,
}

impl TagClaimSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The claims recorded so far.
    pub fn claims(&self) -> &[TagClaim] {
        &self.claims
    }

    /// Records one application claim.
    pub fn claim(&mut self, src: usize, dst: usize, tag: u64, exchange: &str) {
        self.claims.push(TagClaim {
            src,
            dst,
            tag,
            exchange: exchange.to_string(),
            reply: false,
        });
    }

    /// Records one reply-namespace claim.
    pub fn claim_reply(&mut self, src: usize, dst: usize, tag: u64, exchange: &str) {
        self.claims.push(TagClaim {
            src,
            dst,
            tag,
            exchange: exchange.to_string(),
            reply: true,
        });
    }

    /// Records every message of one compiled level under `salt`.
    pub fn claim_level(&mut self, levels: &[&LevelProgram], salt: u64, exchange: &str) {
        for (src, level) in levels.iter().enumerate() {
            for t in level.sends() {
                self.claim(src, t.peer, level.tag() ^ salt, exchange);
            }
        }
    }

    /// Records the gather + reply legs of a scalar collective rooted at
    /// rank 0 (the runtime's `allreduce_max` / `allreduce_sum` shape)
    /// using the reserved reply namespace.
    pub fn claim_allreduce(&mut self, n: usize, tag: u64, exchange: &str) {
        for r in 1..n {
            self.claim(r, 0, tag, exchange);
            self.claim_reply(0, r, tag ^ REPLY_TAG_SALT, exchange);
        }
    }

    /// Proves pairwise disjointness: no `(src, dst, tag)` triple may be
    /// claimed by two different exchanges, and no application claim may
    /// set the reserved reply bit.
    pub fn check(&self) -> VerifyReport {
        let mut report = VerifyReport::new();
        let mut seen: HashMap<(usize, usize, u64), &TagClaim> = HashMap::new();
        for claim in &self.claims {
            if !claim.reply && claim.tag & REPLY_TAG_SALT != 0 {
                report.push(
                    claim.src,
                    None,
                    ViolationKind::ReservedTagBit {
                        tag: claim.tag,
                        exchange: claim.exchange.clone(),
                    },
                );
            }
            match seen.get(&(claim.src, claim.dst, claim.tag)) {
                Some(first) if first.exchange != claim.exchange => {
                    report.push(
                        claim.dst,
                        None,
                        ViolationKind::TagCollision {
                            src: claim.src,
                            dst: claim.dst,
                            tag: claim.tag,
                            first: first.exchange.clone(),
                            second: claim.exchange.clone(),
                        },
                    );
                }
                Some(_) => {}
                None => {
                    seen.insert((claim.src, claim.dst, claim.tag), claim);
                }
            }
        }
        report
    }
}

/// All levels of one slice of the compiled pipeline, as named claim
/// groups.
fn claim_slice(set: &mut TagClaimSet, plans: &CompiledPlans, slice: usize) {
    let n = plans.num_ranks();
    let salt = slice_salt(slice);
    let num_local = plans.rank(0).local_levels().len();
    for li in 0..num_local {
        let levels: Vec<&LevelProgram> =
            (0..n).map(|p| &plans.rank(p).local_levels()[li]).collect();
        set.claim_level(&levels, salt, &format!("slice {slice} local level {li}"));
    }
    let global: Vec<&LevelProgram> = (0..n).map(|p| plans.rank(p).global_level()).collect();
    set.claim_level(&global, salt, &format!("slice {slice} global"));
    let sg: Vec<&LevelProgram> = (0..n)
        .map(|p| plans.rank(p).scatter_global_level())
        .collect();
    set.claim_level(&sg, salt, &format!("slice {slice} scatter-global"));
    let num_scatter = plans.rank(0).scatter_local_levels().len();
    for li in 0..num_scatter {
        let levels: Vec<&LevelProgram> = (0..n)
            .map(|p| &plans.rank(p).scatter_local_levels()[li])
            .collect();
        set.claim_level(
            &levels,
            salt,
            &format!("slice {slice} scatter local level {li}"),
        );
    }
}

/// Builds the concurrent claim set for `plans`: with `overlap`, the
/// levels of two adjacent slices (both globals are briefly in flight when
/// slice `s+1` begins before slice `s` finishes) plus the solver's
/// control collectives; without, a single slice plus the collectives.
pub fn claims_for_compiled(plans: &CompiledPlans, overlap: bool) -> TagClaimSet {
    let n = plans.num_ranks();
    let mut set = TagClaimSet::new();
    claim_slice(&mut set, plans, 0);
    if overlap {
        claim_slice(&mut set, plans, 1);
    }
    // Control traffic that may interleave with the exchanges: the solver's
    // normalization allreduces and CG inner products.
    set.claim_allreduce(n, 0x7000, "allreduce 0x7000");
    set.claim_allreduce(n, 0x7100, "allreduce 0x7100");
    set.claim_allreduce(n, 0x9000, "cg inner product 0x9000");
    set.claim_allreduce(n, 0x9002, "cg inner product 0x9002");
    set
}

/// Verifies tag disjointness for a compiled plan under the given overlap
/// mode.
pub fn verify_tags(plans: &CompiledPlans, overlap: bool) -> VerifyReport {
    claims_for_compiled(plans, overlap).check()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_bit_boundary_is_exact() {
        // The highest application tag — every bit below the reply bit
        // set — is legal, and the reply namespace may use the bit from
        // its side. Only an *application* claim carrying bit 63 trips
        // the rule.
        let mut set = TagClaimSet::new();
        set.claim(0, 1, REPLY_TAG_SALT - 1, "app tag just below the bit");
        set.claim_reply(1, 0, REPLY_TAG_SALT, "reply tag at the bit");
        set.check().assert_ok("boundary tags from the right sides");

        let mut bad = TagClaimSet::new();
        bad.claim(0, 1, REPLY_TAG_SALT, "app tag at the bit");
        let report = bad.check();
        assert!(
            report.violations.iter().any(|v| matches!(
                &v.kind,
                ViolationKind::ReservedTagBit { tag, .. } if *tag == REPLY_TAG_SALT
            )),
            "expected the exact reserved-bit witness, got: {report}"
        );
    }

    #[test]
    fn largest_legal_fusing_salt_stays_clear_of_the_bit() {
        // slice_salt(MAX_FUSING_TAGS - 1) is the widest salt a legal
        // plan can emit; it must not reach bit 63, while one slice more
        // would (the plan_fits boundary test asserts the rejection).
        let top = slice_salt(xct_plan::MAX_FUSING_TAGS - 1);
        assert_eq!(top & REPLY_TAG_SALT, 0);
        assert_ne!(slice_salt(xct_plan::MAX_FUSING_TAGS) & REPLY_TAG_SALT, 0);
    }
}
