//! Property: any workload file survives `to_string_pretty` then
//! `from_str` unchanged, including names that need escaping.

use mia_cli::{EdgeSpec, PlatformSpec, TaskSpec, WorkloadFile};
use proptest::prelude::*;

/// Names drawn from characters the writer escapes (quote, backslash,
/// control characters), the ones it passes through (`/`, DEL) and
/// multibyte UTF-8.
fn name() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1f}', '\u{7f}', 'é', '→', '😀',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Integers from every decimal width, not only small ones.
fn wide_u64() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(n, shift)| n >> shift)
}

fn task() -> impl Strategy<Value = TaskSpec> {
    (
        name(),
        wide_u64(),
        wide_u64(),
        any::<bool>(),
        wide_u64(),
        wide_u64(),
    )
        .prop_map(
            |(name, wcet, min_release, has_deadline, deadline, accesses)| TaskSpec {
                name,
                wcet,
                min_release,
                deadline: has_deadline.then_some(deadline),
                accesses,
            },
        )
}

fn file() -> impl Strategy<Value = WorkloadFile> {
    (
        (1usize..64, 1usize..64, wide_u64()),
        prop::sample::select(vec!["per-core".to_owned(), "single".to_owned()]),
        prop::collection::vec(task(), 0..6),
        prop::collection::vec((any::<u32>(), any::<u32>(), wide_u64()), 0..6),
        prop::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(
            |((cores, banks, access_cycles), bank_policy, tasks, edges, mapping)| WorkloadFile {
                platform: PlatformSpec {
                    cores,
                    banks,
                    access_cycles,
                },
                bank_policy,
                tasks,
                edges: edges
                    .into_iter()
                    .map(|(src, dst, words)| EdgeSpec { src, dst, words })
                    .collect(),
                mapping,
                orders: None,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_json_round_trips(original in file()) {
        let json = serde_json::to_string_pretty(&original).unwrap();
        let back: WorkloadFile = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, original);
        let compact = serde_json::to_string(&original).unwrap();
        prop_assert_eq!(serde_json::from_str::<WorkloadFile>(&compact).unwrap(), original);
    }
}
