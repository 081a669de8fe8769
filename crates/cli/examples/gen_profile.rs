//! Regenerates the committed example runtime profile
//! (`examples/profile.trace.json`): one analysis of the ROSACE case study
//! plus a burst of in-process `mia serve` requests, so the trace carries
//! both span families — analysis phases (`analysis.*`) and the serve
//! request lifecycle (`serve.*`) — next to the analysed schedule.
//!
//! ```text
//! cargo run -p mia-cli --example gen_profile -- examples/profile.trace.json
//! ```

use std::sync::Arc;

use mia_serve::testkit::{ServeHandle, ToyEngine};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "profile.trace.json".to_owned());
    mia_obs::set_enabled(true);
    drop(mia_obs::take_spans());

    let graph = mia_sdf::rosace().expand(2).expect("rosace expands").graph;
    let mapping = mia_mapping::earliest_finish(&graph, 16).expect("mapping");
    let problem =
        mia_model::Problem::new(graph, mapping, mia_model::Platform::new(16, 16)).expect("problem");
    let arbiter = mia_arbiter::RoundRobin::new();
    let schedule = mia_core::analyze(&problem, &arbiter).expect("analysis succeeds");

    // A burst of served requests for queue-wait and execute spans.
    let handle = ServeHandle::spawn_default(Arc::new(ToyEngine::instant()));
    let mut client = handle.client();
    for _ in 0..4 {
        client.run("analyze", "w", &[]).expect("served");
    }
    handle.shutdown();

    let spans = mia_obs::take_spans();
    let trace = mia_trace::to_chrome_trace_with_runtime(
        &problem,
        &schedule,
        &spans,
        mia_obs::spans_dropped(),
    );
    std::fs::write(&out, &trace).expect("profile written");
    eprintln!("wrote {out} ({} spans)", spans.len());
}
