//! Byte-for-byte pins of the JSON the workload schema serializes to.
//! The expected strings were produced by the tree-building serializer
//! this writer replaced; the streaming writer must reproduce them.

use mia_cli::{EdgeSpec, PlatformSpec, TaskSpec, WorkloadFile};

/// Two tasks whose names need escaping (quote, backslash, newline, tab,
/// a control character) or are multibyte UTF-8, an absent and a present
/// `Option`, and one edge.
fn small_file() -> WorkloadFile {
    WorkloadFile {
        platform: PlatformSpec {
            cores: 2,
            banks: 2,
            access_cycles: 3,
        },
        bank_policy: "per-core".to_owned(),
        tasks: vec![
            TaskSpec {
                name: "load \"a\"\\\n\t".to_owned(),
                wcet: 10,
                min_release: 0,
                deadline: None,
                accesses: 4,
            },
            TaskSpec {
                name: "filtre-é→😀\u{1}".to_owned(),
                wcet: 20,
                min_release: 5,
                deadline: Some(40),
                accesses: 0,
            },
        ],
        edges: vec![EdgeSpec {
            src: 0,
            dst: 1,
            words: 2,
        }],
        mapping: vec![0, 1],
        orders: None,
    }
}

const PRETTY: &str = r#"{
  "platform": {
    "cores": 2,
    "banks": 2,
    "access_cycles": 3
  },
  "bank_policy": "per-core",
  "tasks": [
    {
      "name": "load \"a\"\\\n\t",
      "wcet": 10,
      "min_release": 0,
      "deadline": null,
      "accesses": 4
    },
    {
      "name": "filtre-é→😀\u0001",
      "wcet": 20,
      "min_release": 5,
      "deadline": 40,
      "accesses": 0
    }
  ],
  "edges": [
    {
      "src": 0,
      "dst": 1,
      "words": 2
    }
  ],
  "mapping": [
    0,
    1
  ]
}"#;

const COMPACT: &str = r#"{"platform":{"cores":2,"banks":2,"access_cycles":3},"bank_policy":"per-core","tasks":[{"name":"load \"a\"\\\n\t","wcet":10,"min_release":0,"deadline":null,"accesses":4},{"name":"filtre-é→😀\u0001","wcet":20,"min_release":5,"deadline":40,"accesses":0}],"edges":[{"src":0,"dst":1,"words":2}],"mapping":[0,1]}"#;

const NO_EDGES: &str = r#"{
  "platform": {
    "cores": 2,
    "banks": 2,
    "access_cycles": 3
  },
  "bank_policy": "per-core",
  "tasks": [
    {
      "name": "load \"a\"\\\n\t",
      "wcet": 10,
      "min_release": 0,
      "deadline": null,
      "accesses": 4
    }
  ],
  "edges": [],
  "mapping": [
    0
  ]
}"#;

#[test]
fn pretty_workload_file_is_pinned() {
    let json = serde_json::to_string_pretty(&small_file()).unwrap();
    assert_eq!(json, PRETTY);
    assert_eq!(
        serde_json::from_str::<WorkloadFile>(&json).unwrap(),
        small_file()
    );
}

#[test]
fn compact_workload_file_is_pinned() {
    let json = serde_json::to_string(&small_file()).unwrap();
    assert_eq!(json, COMPACT);
    assert_eq!(
        serde_json::from_str::<WorkloadFile>(&json).unwrap(),
        small_file()
    );
}

#[test]
fn empty_edge_list_is_written_as_brackets() {
    let mut file = small_file();
    file.tasks.truncate(1);
    file.edges.clear();
    file.mapping.truncate(1);
    assert_eq!(serde_json::to_string_pretty(&file).unwrap(), NO_EDGES);
}
