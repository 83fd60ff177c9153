//! Generated seeds that once panicked. Each is a `per_source_trees`
//! scenario in which a link failure leaves the physical graph
//! partitioned after the tree was repaired over a logical link; building
//! the next shortest-path source tree then indexed an empty path. The
//! affected submissions are now rejected with an error, and every oracle
//! must hold on what remains.

use cosmos_testkit::{check_scenario, gen};

const SEEDS: [u64; 13] = [
    101, 131, 135, 248, 257, 301, 303, 323, 398, 467, 522, 572, 581,
];

#[test]
fn partitioned_repair_seeds_pass() {
    for seed in SEEDS {
        if let Err(f) = check_scenario(&gen::generate(seed)) {
            panic!("seed {seed}: {f}");
        }
    }
}

#[test]
fn partitioned_repair_seeds_pass_disordered() {
    for seed in SEEDS {
        if let Err(f) = check_scenario(&gen::generate_disordered(seed)) {
            panic!("seed {seed} (disorder): {f}");
        }
    }
}
