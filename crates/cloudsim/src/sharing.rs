//! Fair-sharing rate computation: progressive filling (Bertsekas &
//! Gallager) over individual flows.
//!
//! Raise every unfrozen flow's rate uniformly until some resource
//! saturates, freeze the flows through it at the current level, repeat.
//! Resources are scanned in index order and the first one to reach the
//! lowest saturation level wins a tie, so the allocation — and with it
//! every simulated trajectory — is a pure function of the flow set.

use crate::flow::FlowSpec;
use crate::resource::Resource;

/// Numeric slack used when deciding that a flow has finished or a resource
/// has saturated; keeps the event loop robust against floating-point drift.
pub(crate) const EPS: f64 = 1e-9;

/// Progressive filling over individual flows.  Writes the max-min fair rate
/// of every flow in `active` into `rates`.
pub(crate) fn max_min_flow_rates(
    resources: &[Resource],
    flows: &[FlowSpec],
    active: &[usize],
    rates: &mut [f64],
    frozen: &mut [bool],
    unfrozen_count: &mut [usize],
    res_remaining: &mut [f64],
) {
    for r in 0..resources.len() {
        unfrozen_count[r] = 0;
        res_remaining[r] = resources[r].capacity;
    }
    for &i in active {
        frozen[i] = false;
        rates[i] = 0.0;
        for r in &flows[i].path {
            unfrozen_count[r.0] += 1;
        }
    }

    let mut level = 0.0f64;
    let mut left = active.len();
    while left > 0 {
        // The resource that saturates first as the fill level rises.
        let mut best_r = usize::MAX;
        let mut best_level = f64::INFINITY;
        for r in 0..resources.len() {
            if unfrozen_count[r] > 0 {
                let sat = level + res_remaining[r] / unfrozen_count[r] as f64;
                if sat < best_level {
                    best_level = sat;
                    best_r = r;
                }
            }
        }
        debug_assert!(best_r != usize::MAX, "active flows but no loaded resource");

        let delta = best_level - level;
        for r in 0..resources.len() {
            if unfrozen_count[r] > 0 {
                res_remaining[r] -= delta * unfrozen_count[r] as f64;
            }
        }
        level = best_level;

        // Freeze every unfrozen flow through a saturated resource.  The
        // chosen resource is saturated by construction; floating-point
        // drift can saturate others in the same step, handle them too.
        for &i in active {
            if frozen[i] {
                continue;
            }
            let hits_saturated = flows[i]
                .path
                .iter()
                .any(|r| r.0 == best_r || res_remaining[r.0] <= EPS * resources[r.0].capacity);
            if hits_saturated {
                frozen[i] = true;
                rates[i] = level;
                left -= 1;
                for r in &flows[i].path {
                    unfrozen_count[r.0] -= 1;
                }
            }
        }
    }
}
