//! Order statistics and the derived throughput formula.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Millions of voxel-iterations per second: the iteration-proportional
/// work of one reconstruction over the time that scales with iterations.
/// `None` when the set-up time is not below the reconstruction time.
pub fn mvox_it_per_s(voxel_iterations: f64, recon_s: f64, setup_s: f64) -> Option<f64> {
    let iter_s = recon_s - setup_s;
    (iter_s > 0.0).then(|| voxel_iterations / iter_s / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99), Some(4.96));
    }

    #[test]
    fn mvox_formula_divides_work_by_iteration_time() {
        // 8 slices · 128² voxels · 24 iterations in (5.3 − 1.2) s.
        let work = (8 * 128 * 128 * 24) as f64;
        let got = mvox_it_per_s(work, 5.3, 1.2).expect("positive iteration time");
        assert!((got - 3_145_728.0 / 4.1 / 1e6).abs() < 1e-12, "{got}");
        assert_eq!(mvox_it_per_s(work, 1.0, 1.0), None);
        assert_eq!(mvox_it_per_s(work, 1.0, 2.0), None);
    }
}
