//! The memory-accounting invariant, property-tested.
//!
//! `memory::current_bytes` is process-global, so an exact assertion on it
//! races with any sibling test that allocates. This binary therefore holds
//! exactly one test function (the idiom of `sptransx/tests/alloc_regression.rs`).

use proptest::prelude::*;
use tensor::{memory, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tensor allocation is balanced by its drop.
    #[test]
    fn memory_accounting_balances(
        (m, n, data) in (1usize..8, 1usize..8)
            .prop_flat_map(|(m, n)| (Just(m), Just(n), prop::collection::vec(-3.0f32..3.0, m * n))),
    ) {
        let before = memory::current_bytes();
        {
            let t = Tensor::from_vec(m, n, data);
            let c = t.clone();
            prop_assert_eq!(
                memory::current_bytes(),
                before + 2 * (m * n * 4) as u64
            );
            drop(c);
        }
        prop_assert_eq!(memory::current_bytes(), before);
    }
}
