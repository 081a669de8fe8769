//! Seeded input generation, independent of the program's own generators.
//!
//! The LS16- and NL16-shaped workloads follow the layer-by-layer shape of
//! the paper's evaluation (Tobita–Kasahara style): tasks in layers, edges
//! only between consecutive layers, cyclic mapping inside a layer on a
//! 16-core, 16-bank platform. The benchmark owns this code so that a
//! change to `mia generate` or `mia-dag-gen` never changes what a
//! workload reads.

use std::fmt::Write as _;

/// SplitMix64: small, fast and fully specified, so a seed names the same
/// inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d69_615f_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Platform geometry of every generated workload (the MPPA-256 compute
/// cluster of the paper: 16 cores, 16 banks, one cycle per access).
pub const CORES: usize = 16;

/// One generated task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    pub name: String,
    pub wcet: u64,
    pub min_release: u64,
    pub accesses: u64,
}

/// A generated workload: what the program reads, kept in memory so the
/// output checks compare against the input without re-parsing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    pub tasks: Vec<Task>,
    /// `(src, dst, words)`, sources in earlier layers.
    pub edges: Vec<(u32, u32, u64)>,
    /// Core of each task.
    pub mapping: Vec<u32>,
}

/// Parameter ranges of the layered shape.
const WCET: (u64, u64) = (550, 650);
const ACCESSES: (u64, u64) = (250, 550);
const WORDS: (u64, u64) = (0, 100);
const EDGE_PROBABILITY: f64 = 0.5;
/// First-layer tasks get a release offset in this range, so the
/// `release >= min_release` check has something to bite on.
const FIRST_LAYER_RELEASE: (u64, u64) = (0, 200);

/// LS16 shape: layers of 16 tasks, as many layers as `tasks` needs (the
/// remainder joins the last layer).
pub fn ls16(tasks: usize, seed: u64) -> Dag {
    let layers = (tasks / 16).max(1);
    let size = 16.min(tasks);
    layered(layers, size, tasks - layers * size, seed)
}

/// NL16 shape: 16 layers of `tasks / 16` tasks (the remainder joins the
/// last layer).
pub fn nl16(tasks: usize, seed: u64) -> Dag {
    let layers = 16.min(tasks);
    let size = tasks / layers;
    layered(layers, size, tasks - layers * size, seed)
}

/// The layer-by-layer generator: WCETs in `[550, 650]`, private accesses
/// in `[250, 550]`, an edge between each pair of tasks in consecutive
/// layers with probability 0.5 carrying `[0, 100]` words, every task
/// connected to the next layer, and each task's total demand (accesses
/// plus the words of its edges) capped at its WCET so that `mia
/// simulate` accepts the workload.
fn layered(layers: usize, size: usize, remainder: usize, seed: u64) -> Dag {
    let mut rng = Rng::new(seed);
    let mut tasks = Vec::new();
    let mut mapping = Vec::new();
    let mut budget = Vec::new();
    let mut members: Vec<std::ops::Range<usize>> = Vec::with_capacity(layers);
    for layer in 0..layers {
        let count = if layer + 1 == layers {
            size + remainder
        } else {
            size
        };
        let first = tasks.len();
        for pos in 0..count {
            let wcet = rng.range(WCET.0, WCET.1);
            let accesses = rng.range(ACCESSES.0, ACCESSES.1).min(wcet);
            let min_release = if layer == 0 {
                rng.range(FIRST_LAYER_RELEASE.0, FIRST_LAYER_RELEASE.1)
            } else {
                0
            };
            budget.push(wcet - accesses);
            tasks.push(Task {
                name: format!("L{layer}T{pos}"),
                wcet,
                min_release,
                accesses,
            });
            mapping.push((pos % CORES) as u32);
        }
        members.push(first..tasks.len());
    }
    let mut edges = Vec::new();
    let charge = |budget: &mut [u64], src: usize, dst: usize, words: u64| {
        let words = words.min(budget[src]).min(budget[dst]);
        budget[src] -= words;
        budget[dst] -= words;
        words
    };
    for pair in members.windows(2) {
        let (here, next) = (pair[0].clone(), pair[1].clone());
        let mut has_pred = vec![false; next.len()];
        for src in here.clone() {
            let mut has_succ = false;
            for dst in next.clone() {
                if rng.unit() < EDGE_PROBABILITY {
                    let words = charge(&mut budget, src, dst, rng.range(WORDS.0, WORDS.1));
                    edges.push((src as u32, dst as u32, words));
                    has_succ = true;
                    has_pred[dst - next.start] = true;
                }
            }
            if !has_succ {
                let dst = next.start + rng.range(0, next.len() as u64 - 1) as usize;
                let words = charge(&mut budget, src, dst, rng.range(WORDS.0, WORDS.1));
                edges.push((src as u32, dst as u32, words));
                has_pred[dst - next.start] = true;
            }
        }
        for (j, pred) in has_pred.iter().enumerate() {
            if !pred {
                // No edge reaches this task yet, so this one is new.
                let src = here.start + rng.range(0, here.len() as u64 - 1) as usize;
                let dst = next.start + j;
                let words = charge(&mut budget, src, dst, rng.range(WORDS.0, WORDS.1));
                edges.push((src as u32, dst as u32, words));
            }
        }
    }
    Dag {
        tasks,
        edges,
        mapping,
    }
}

impl Dag {
    /// The workload as `mia` reads it: the JSON workload schema, laid out
    /// the way `mia generate` writes it (pretty, two-space indent), so the
    /// front-end parses the same kind of bytes users feed it.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.tasks.len() * 120 + self.edges.len() * 70);
        out.push_str("{\n  \"platform\": {\n");
        let _ = write!(
            out,
            "    \"cores\": {CORES},\n    \"banks\": {CORES},\n    \"access_cycles\": 1\n  }},\n"
        );
        out.push_str("  \"bank_policy\": \"per-core\",\n  \"tasks\": [\n");
        for (i, t) in self.tasks.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\n      \"name\": \"{}\",\n      \"wcet\": {},\n      \"min_release\": {},\n      \"deadline\": null,\n      \"accesses\": {}\n    }}{}\n",
                t.name,
                t.wcet,
                t.min_release,
                t.accesses,
                if i + 1 == self.tasks.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, (src, dst, words)) in self.edges.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\n      \"src\": {src},\n      \"dst\": {dst},\n      \"words\": {words}\n    }}{}\n",
                if i + 1 == self.edges.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"mapping\": [\n");
        for (i, core) in self.mapping.iter().enumerate() {
            let comma = if i + 1 == self.mapping.len() { "" } else { "," };
            let _ = writeln!(out, "    {core}{comma}");
        }
        out.push_str("  ]\n}");
        out
    }
}

/// The benchmark's copy of the H.263 decoder graph (SDF3 format).
pub const H263_SDF3: &str = include_str!("../data/h263.sdf3");

/// The H.263 graph with each actor's execution time scaled by a factor
/// drawn from `[0.995, 1.005]`: the seed varies the timing, never the
/// graph's structure.
pub fn h263(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::with_capacity(H263_SDF3.len());
    let mut rest = H263_SDF3;
    const MARK: &str = "<executionTime time=\"";
    while let Some(at) = rest.find(MARK) {
        let (head, tail) = rest.split_at(at + MARK.len());
        out.push_str(head);
        let end = tail.find('"').expect("closing quote");
        let time: u64 = tail[..end].parse().expect("numeric execution time");
        let scaled = time * rng.range(995, 1005) / 1000;
        let _ = write!(out, "{scaled}");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_requested_sizes() {
        let ls = ls16(1000, 3);
        assert_eq!(ls.tasks.len(), 1000);
        assert_eq!(
            ls.tasks
                .iter()
                .filter(|t| t.name.starts_with("L0T"))
                .count(),
            16
        );
        let nl = nl16(600, 3);
        assert_eq!(nl.tasks.len(), 600);
        assert!(nl.tasks.last().unwrap().name.starts_with("L15T"));
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(ls16(300, 9), ls16(300, 9));
        assert_ne!(ls16(300, 9), ls16(300, 10));
        assert_eq!(h263(4), h263(4));
        assert_ne!(h263(4), h263(5));
    }

    #[test]
    fn demand_fits_wcet_and_edges_link_consecutive_layers() {
        let dag = nl16(600, 1);
        let mut demand: Vec<u64> = dag.tasks.iter().map(|t| t.accesses).collect();
        let layer = |i: u32| -> usize {
            let name = &dag.tasks[i as usize].name;
            name[1..name.find('T').unwrap()].parse().unwrap()
        };
        for &(s, d, w) in &dag.edges {
            assert_eq!(layer(s) + 1, layer(d));
            demand[s as usize] += w;
            demand[d as usize] += w;
        }
        for (t, total) in dag.tasks.iter().zip(&demand) {
            assert!(*total <= t.wcet, "{t:?}");
        }
    }

    #[test]
    fn json_is_a_valid_workload_file() {
        let dag = ls16(64, 2);
        let file: mia_cli::WorkloadFile = serde_json::from_str(&dag.to_json()).unwrap();
        assert_eq!(file.tasks.len(), 64);
        assert_eq!(file.edges.len(), dag.edges.len());
        file.into_problem().unwrap();
    }
}
