//! §8 scale: the ten-datacenter deployment inventory.
//!
//! The paper's deployment manages "over 1.5 million state variables"
//! across ten datacenters, the largest at 394K. The `paper_claims`
//! binary's `checker_scale` section seeds each DC of this inventory in
//! turn, runs its checker passes (each < 10 s) and asserts the fleet's
//! total and its largest DC; whole rounds up to 4M variables are the
//! `delta_pipeline` binary's stage trees.

use statesman_topology::DcnSpec;

/// The ten-datacenter inventory: per-DC device/link/variable counts sized
/// so the fleet total matches the paper's "over 1.5 million state
/// variables", with the largest DC at ~394K.
pub fn deployment_inventory() -> Vec<(String, DcnSpec, usize)> {
    // Mixed fleet: one flagship DC at the paper's 394K, a mid tier, and
    // smaller edge DCs, totalling ≥ 1.5M.
    let sizes = [
        394_000, 250_000, 200_000, 160_000, 130_000, 110_000, 90_000, 80_000, 60_000, 50_000,
    ];
    sizes
        .iter()
        .enumerate()
        .map(|(i, &target)| {
            let name = format!("dc{}", i + 1);
            let spec = DcnSpec::sized_for_variables(name.clone(), target);
            let vars = spec.estimated_variables();
            (name, spec, vars)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_totals_exceed_paper_fleet() {
        let inv = deployment_inventory();
        assert_eq!(inv.len(), 10);
        let total: usize = inv.iter().map(|(_, _, v)| v).sum();
        assert!(total >= 1_500_000, "total {total}");
        assert!(inv[0].2 >= 394_000);
    }
}
