//! Property-based tests for the model crate's core data structures.

use mia_model::{BankDemand, BankId, Cycles, Mapping, Platform, Problem, Task, TaskGraph};
use proptest::prelude::*;

/// Strategy: an arbitrary DAG built by only adding forward edges
/// (src < dst in insertion order), which guarantees acyclicity.
fn arb_dag(max_tasks: usize) -> impl Strategy<Value = TaskGraph> {
    (2..=max_tasks)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec(
                (0..n, 0..n, 1u64..50).prop_filter_map("forward edge", |(a, b, w)| {
                    if a < b {
                        Some((a, b, w))
                    } else {
                        None
                    }
                }),
                0..(n * 2),
            );
            let wcets = proptest::collection::vec(1u64..1000, n);
            (Just(n), edges, wcets)
        })
        .prop_map(|(n, edges, wcets)| {
            let mut g = TaskGraph::with_capacity(n);
            let ids: Vec<_> = (0..n)
                .map(|i| g.add_task(Task::builder(format!("t{i}")).wcet(Cycles(wcets[i]))))
                .collect();
            for (a, b, w) in edges {
                // Duplicate edges are rejected; ignore those.
                let _ = g.add_edge(ids[a], ids[b], w);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topological_order_is_a_permutation_respecting_edges(g in arb_dag(40)) {
        let order = g.topological_order().unwrap();
        prop_assert_eq!(order.len(), g.len());
        let mut pos = vec![usize::MAX; g.len()];
        for (i, t) in order.iter().enumerate() {
            prop_assert_eq!(pos[t.index()], usize::MAX, "duplicate in order");
            pos[t.index()] = i;
        }
        for e in g.edges() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn layers_strictly_increase_along_edges(g in arb_dag(40)) {
        let layers = g.layers().unwrap();
        for e in g.edges() {
            prop_assert!(layers[e.src.index()] < layers[e.dst.index()]);
        }
    }

    #[test]
    fn critical_path_bounds(g in arb_dag(30)) {
        let cp = g.critical_path().unwrap();
        let max_wcet = g.iter().map(|(_, t)| t.wcet()).max().unwrap();
        prop_assert!(cp >= max_wcet);
        prop_assert!(cp <= g.total_wcet());
    }

    #[test]
    fn bank_demand_merge_is_commutative_and_total_adds(
        pairs1 in proptest::collection::vec((0u32..8, 1u64..100), 0..10),
        pairs2 in proptest::collection::vec((0u32..8, 1u64..100), 0..10),
    ) {
        let d1: BankDemand = pairs1.iter().map(|&(b, n)| (BankId(b), n)).collect();
        let d2: BankDemand = pairs2.iter().map(|&(b, n)| (BankId(b), n)).collect();
        let mut m1 = d1.clone();
        m1.merge(&d2);
        let mut m2 = d2.clone();
        m2.merge(&d1);
        prop_assert_eq!(&m1, &m2);
        prop_assert_eq!(m1.total(), d1.total() + d2.total());
    }

    #[test]
    fn bank_demand_iteration_is_sorted_and_positive(
        pairs in proptest::collection::vec((0u32..32, 0u64..100), 0..20),
    ) {
        let d: BankDemand = pairs.iter().map(|&(b, n)| (BankId(b), n)).collect();
        let banks: Vec<BankId> = d.banks().collect();
        let mut sorted = banks.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(&banks, &sorted);
        for (_, n) in d.iter() {
            prop_assert!(n > 0);
        }
    }

    #[test]
    fn round_robin_mapping_always_validates(g in arb_dag(40), cores in 1u32..16) {
        let assignment: Vec<u32> = (0..g.len() as u32).map(|i| i % cores).collect();
        let m = Mapping::from_assignment(&g, &assignment).unwrap();
        m.validate(&g).unwrap();
        // from_assignment orders by task id, which is consistent with the
        // forward-edge DAG, so the combined relation must be acyclic.
        let p = Problem::new(g, m, Platform::new(16, 16)).unwrap();
        // Every dependency edge strictly raises the rank: the fact that
        // lets a mapping without rank inversions skip the cycle search.
        for e in p.graph().edges() {
            prop_assert!(p.table().rank(e.src) < p.table().rank(e.dst));
        }
    }

    #[test]
    fn problem_demands_cover_edge_words(g in arb_dag(30)) {
        let assignment: Vec<u32> = (0..g.len() as u32).map(|i| i % 4).collect();
        let m = Mapping::from_assignment(&g, &assignment).unwrap();
        let p = Problem::new(g, m, Platform::new(4, 4)).unwrap();
        // Every edge contributes its words twice (producer write + consumer read).
        let total_words: u64 = p.graph().edges().iter().map(|e| e.words).sum();
        let total_demand: u64 = p.demands().iter().map(BankDemand::total).sum();
        prop_assert_eq!(total_demand, 2 * total_words);
    }

    #[test]
    fn serde_round_trip_graph(g in arb_dag(15)) {
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, g);
    }
}
