//! Saving a snapshot over a file that a live engine has mapped must not
//! pull the pages out from under that engine — the "write the new model,
//! then reload" flow. Before `ServeSnapshot::save` wrote through a
//! temporary file and a rename, it truncated the mapped file in place and
//! the next read of the mapping died with SIGBUS. That crash would take the
//! whole test process down, so this test lives in its own binary.

use sigma_serve::{EngineConfig, InferenceEngine, MappedSnapshot};
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::Arc;

#[test]
fn saving_over_a_mapped_snapshot_keeps_the_old_mapping_readable() {
    let graph = random_graph(40, 12, 61);
    let n = graph.num_nodes();
    let fixture = serving_fixture(&graph, 6, 61);
    let path = std::env::temp_dir().join(format!(
        "sigma-save-over-mapped-{}.snapshot",
        std::process::id()
    ));
    fixture.snapshot.save(&path).expect("first save");
    let mapped = Arc::new(MappedSnapshot::open(&path).expect("map"));
    let engine =
        InferenceEngine::from_mapped(mapped.clone(), EngineConfig::default()).expect("engine");
    let before = engine.predict(n - 1).expect("predict before");
    let similar_before = engine.most_similar(n - 1, 4).expect("similar before");
    let features_before = mapped.features_view().row(n - 1).to_vec();

    // A smaller snapshot: an in-place rewrite would shrink the file below
    // the pages the old mapping still points at.
    let smaller = serving_fixture(&random_graph(12, 4, 62), 3, 62);
    smaller.snapshot.save(&path).expect("second save");
    assert_eq!(
        MappedSnapshot::open(&path)
            .expect("map the new file")
            .to_snapshot()
            .expect("decode the new file")
            .num_nodes(),
        12,
        "the path now holds the new snapshot"
    );

    let after = engine.predict(n - 1).expect("predict after");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&after.logits), bits(&before.logits));
    assert_eq!(after.label, before.label);
    // Operator rows and features are still read straight off the old
    // mapping's pages.
    assert_eq!(
        engine.most_similar(n - 1, 4).expect("similar after"),
        similar_before
    );
    assert_eq!(
        bits(mapped.features_view().row(n - 1)),
        bits(&features_before)
    );
    std::fs::remove_file(&path).expect("clean up");
}
