//! The on-disk workload schema.

use serde::{Deserialize, Serialize};

use mia_model::{
    BankPolicy, Cycles, Mapping, ModelError, Platform, Problem, Task, TaskGraph, TaskId,
};

/// Platform geometry as written in workload files.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct PlatformSpec {
    /// Number of cores.
    pub cores: usize,
    /// Number of memory banks.
    pub banks: usize,
    /// Cycles one word access occupies a bank (default 1).
    #[serde(default = "default_access_cycles")]
    pub access_cycles: u64,
}

fn default_access_cycles() -> u64 {
    1
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec {
            cores: 16,
            banks: 16,
            access_cycles: 1,
        }
    }
}

/// One task as written in workload files.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct TaskSpec {
    /// Human-readable name.
    pub name: String,
    /// WCET in isolation (cycles).
    pub wcet: u64,
    /// Earliest release instant (default 0).
    #[serde(default)]
    pub min_release: u64,
    /// Relative deadline on the response time, if any.
    #[serde(default)]
    pub deadline: Option<u64>,
    /// Private memory accesses (folded onto the task's core bank).
    #[serde(default)]
    pub accesses: u64,
}

/// One dependency edge as written in workload files.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Producer task index.
    pub src: u32,
    /// Consumer task index.
    pub dst: u32,
    /// Words communicated.
    #[serde(default)]
    pub words: u64,
}

/// A complete workload file: platform + tasks + edges + mapping, plus
/// optional per-core execution orders.
///
/// # Example
///
/// ```
/// let text = r#"{
///   "platform": { "cores": 2, "banks": 2 },
///   "tasks": [
///     { "name": "a", "wcet": 10 },
///     { "name": "b", "wcet": 20, "min_release": 5 }
///   ],
///   "edges": [ { "src": 0, "dst": 1, "words": 4 } ],
///   "mapping": [0, 1]
/// }"#;
/// let file: mia_cli::WorkloadFile = serde_json::from_str(text).unwrap();
/// let problem = file.into_problem().unwrap();
/// assert_eq!(problem.len(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct WorkloadFile {
    /// Platform geometry.
    #[serde(default)]
    pub platform: PlatformSpec,
    /// Bank policy: `"per-core"` (default) or `"single"`.
    #[serde(default = "default_policy")]
    pub bank_policy: String,
    /// The tasks, indexed by position.
    pub tasks: Vec<TaskSpec>,
    /// The dependency edges.
    #[serde(default)]
    pub edges: Vec<EdgeSpec>,
    /// Core id per task.
    pub mapping: Vec<u32>,
    /// Task ids in execution order, per core, agreeing with `mapping`.
    /// When absent, the tasks of a core run in task order.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub orders: Option<Vec<Vec<u32>>>,
}

fn default_policy() -> String {
    "per-core".to_owned()
}

impl WorkloadFile {
    /// The [`BankPolicy`] named by the file's `bank_policy` string —
    /// the single place the accepted aliases are defined.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyPlatform`] for an unknown policy string (the
    /// same error [`WorkloadFile::into_problem`] reports).
    pub fn parsed_policy(&self) -> Result<BankPolicy, ModelError> {
        match self.bank_policy.as_str() {
            "per-core" | "per_core" | "percore" => Ok(BankPolicy::PerCoreBank),
            "single" | "shared" => Ok(BankPolicy::SingleBank),
            _ => Err(ModelError::EmptyPlatform),
        }
    }

    /// Validates the file into an analysable [`Problem`].
    ///
    /// # Errors
    ///
    /// Any [`ModelError`] raised during construction (unknown tasks,
    /// duplicate edges, cycles, mapping/platform mismatches, orders that
    /// disagree with the mapping, …), plus
    /// [`ModelError::EmptyPlatform`] for an unknown bank policy string.
    pub fn into_problem(self) -> Result<Problem, ModelError> {
        let policy = self.parsed_policy()?;
        let mut graph = TaskGraph::with_capacity(self.tasks.len());
        for spec in &self.tasks {
            let mut builder = Task::builder(&spec.name)
                .wcet(Cycles(spec.wcet))
                .min_release(Cycles(spec.min_release))
                .private_demand(mia_model::BankDemand::single(
                    mia_model::BankId(0),
                    spec.accesses,
                ));
            if let Some(d) = spec.deadline {
                builder = builder.deadline(Cycles(d));
            }
            graph.add_task(builder);
        }
        for e in &self.edges {
            graph.add_edge(TaskId(e.src), TaskId(e.dst), e.words)?;
        }
        let mapping = match self.orders {
            None => Mapping::from_assignment(&graph, &self.mapping)?,
            Some(orders) => {
                let orders = orders
                    .into_iter()
                    .map(|order| order.into_iter().map(TaskId).collect())
                    .collect();
                let mapping = Mapping::from_orders(&graph, orders)?;
                if self.mapping.len() != graph.len() {
                    return Err(ModelError::LengthMismatch {
                        expected: graph.len(),
                        found: self.mapping.len(),
                    });
                }
                if let Some(task) = graph
                    .task_ids()
                    .find(|&t| mapping.core_of(t).0 != self.mapping[t.index()])
                {
                    return Err(ModelError::OrderMismatch(task));
                }
                mapping
            }
        };
        let platform = Platform::try_new(
            self.platform.cores,
            self.platform.banks,
            Cycles(self.platform.access_cycles),
        )?;
        Problem::with_policy(graph, mapping, platform, policy)
    }

    /// Builds a file from a problem under the per-core-bank policy
    /// (inverse of [`WorkloadFile::into_problem`]): what `mia generate`
    /// writes. The
    /// per-core `orders` are written only when some core does not run
    /// its tasks in task order.
    pub fn from_problem(problem: &Problem) -> Self {
        let (graph, mapping, platform) = (problem.graph(), problem.mapping(), problem.platform());
        let in_task_order = mapping
            .iter()
            .all(|(_, order)| order.windows(2).all(|w| w[0] < w[1]));
        WorkloadFile {
            platform: PlatformSpec {
                cores: platform.cores(),
                banks: platform.banks(),
                access_cycles: platform.access_cycles().as_u64(),
            },
            bank_policy: default_policy(),
            tasks: graph
                .iter()
                .map(|(_, t)| TaskSpec {
                    name: t.name().to_owned(),
                    wcet: t.wcet().as_u64(),
                    min_release: t.min_release().as_u64(),
                    deadline: t.deadline().map(Cycles::as_u64),
                    accesses: t.private_demand().total(),
                })
                .collect(),
            edges: graph
                .edges()
                .iter()
                .map(|e| EdgeSpec {
                    src: e.src.0,
                    dst: e.dst.0,
                    words: e.words,
                })
                .collect(),
            mapping: graph.task_ids().map(|t| mapping.core_of(t).0).collect(),
            orders: (!in_task_order).then(|| {
                mapping
                    .iter()
                    .map(|(_, order)| order.iter().map(|t| t.0).collect())
                    .collect()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::CoreId;

    fn figure1_json() -> String {
        r#"{
            "platform": { "cores": 4, "banks": 4 },
            "tasks": [
                { "name": "n0", "wcet": 2 },
                { "name": "n1", "wcet": 2, "min_release": 2 },
                { "name": "n2", "wcet": 1, "min_release": 4 },
                { "name": "n3", "wcet": 3 },
                { "name": "n4", "wcet": 2, "min_release": 4 }
            ],
            "edges": [
                { "src": 0, "dst": 1, "words": 1 },
                { "src": 0, "dst": 2, "words": 1 },
                { "src": 1, "dst": 2, "words": 1 },
                { "src": 3, "dst": 2, "words": 1 },
                { "src": 3, "dst": 4, "words": 1 }
            ],
            "mapping": [0, 1, 1, 2, 3]
        }"#
        .to_owned()
    }

    #[test]
    fn figure1_file_round_trips_to_makespan_7() {
        let file: WorkloadFile = serde_json::from_str(&figure1_json()).unwrap();
        let problem = file.into_problem().unwrap();
        let s = mia_core::analyze(&problem, &mia_arbiter_stub::Rr).unwrap();
        assert_eq!(s.makespan(), Cycles(7));
    }

    /// Local RR so the test does not add a dependency edge for one assert.
    mod mia_arbiter_stub {
        use mia_model::arbiter::{Arbiter, InterfererDemand};
        use mia_model::{CoreId, Cycles};

        pub struct Rr;

        impl Arbiter for Rr {
            fn name(&self) -> &str {
                "rr"
            }

            fn bank_interference(
                &self,
                _v: CoreId,
                d: u64,
                s: &[InterfererDemand],
                a: Cycles,
            ) -> Cycles {
                a * s.iter().map(|i| d.min(i.accesses)).sum::<u64>()
            }
        }
    }

    #[test]
    fn defaults_are_applied() {
        let text = r#"{ "tasks": [ { "name": "t", "wcet": 5 } ], "mapping": [0] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        assert_eq!(file.platform.cores, 16);
        assert_eq!(file.bank_policy, "per-core");
        assert!(file.edges.is_empty());
        file.into_problem().unwrap();
    }

    #[test]
    fn bad_policy_is_rejected() {
        let text = r#"{ "bank_policy": "mystery", "tasks": [ { "name": "t", "wcet": 5 } ], "mapping": [0] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        assert!(file.into_problem().is_err());
    }

    #[test]
    fn bad_edges_are_rejected_with_model_errors() {
        let text = r#"{ "tasks": [ { "name": "t", "wcet": 5 } ],
                        "edges": [ { "src": 0, "dst": 9 } ], "mapping": [0] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        assert!(matches!(
            file.into_problem(),
            Err(ModelError::UnknownTask(_))
        ));
    }

    #[test]
    fn orders_set_the_execution_order() {
        let text = r#"{ "tasks": [ { "name": "a", "wcet": 5 }, { "name": "b", "wcet": 7 } ],
                        "mapping": [0, 0], "orders": [[1, 0]] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        let json = serde_json::to_string(&file).unwrap();
        assert!(json.contains(r#""orders":[[1,0]]"#), "{json}");
        let problem = file.into_problem().unwrap();
        assert_eq!(problem.mapping().order(CoreId(0)), &[TaskId(1), TaskId(0)]);
        // Without orders, a core runs its tasks in task order and the
        // field is not written.
        let text = r#"{ "tasks": [ { "name": "a", "wcet": 5 }, { "name": "b", "wcet": 7 } ],
                        "mapping": [0, 0] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        assert!(!serde_json::to_string(&file).unwrap().contains("orders"));
        let problem = file.into_problem().unwrap();
        assert_eq!(problem.mapping().order(CoreId(0)), &[TaskId(0), TaskId(1)]);
    }

    #[test]
    fn orders_must_agree_with_the_mapping() {
        let text = r#"{ "tasks": [ { "name": "a", "wcet": 5 }, { "name": "b", "wcet": 7 } ],
                        "mapping": [0, 1], "orders": [[0, 1]] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        assert_eq!(
            file.into_problem().err(),
            Some(ModelError::OrderMismatch(TaskId(1)))
        );
        let text = r#"{ "tasks": [ { "name": "a", "wcet": 5 }, { "name": "b", "wcet": 7 } ],
                        "mapping": [0, 0], "orders": [[0]] }"#;
        let file: WorkloadFile = serde_json::from_str(text).unwrap();
        assert!(matches!(
            file.into_problem(),
            Err(ModelError::IncompleteMapping { .. })
        ));
    }

    #[test]
    fn generator_output_round_trips() {
        use mia_dag_gen::{Family, LayeredDag};
        let problem = LayeredDag::new(Family::FixedLayerSize(4).config(32, 3))
            .generate()
            .into_problem(&Platform::mppa256_cluster())
            .unwrap();
        let file = WorkloadFile::from_problem(&problem);
        assert!(file.orders.is_none(), "generated cores run in task order");
        let json = serde_json::to_string(&file).unwrap();
        let back: WorkloadFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
        let p1 = back.into_problem().unwrap();
        assert_eq!(p1.graph(), problem.graph());
        assert_eq!(p1.mapping(), problem.mapping());
    }

    #[test]
    fn orders_out_of_task_order_round_trip() {
        let text = r#"{ "tasks": [ { "name": "a", "wcet": 5 }, { "name": "b", "wcet": 7 } ],
                        "mapping": [0, 0], "orders": [[1, 0]] }"#;
        let problem = serde_json::from_str::<WorkloadFile>(text)
            .unwrap()
            .into_problem()
            .unwrap();
        let file = WorkloadFile::from_problem(&problem);
        assert_eq!(file.orders, Some(vec![vec![1, 0]]));
        assert_eq!(file.into_problem().unwrap().mapping(), problem.mapping());
    }
}
