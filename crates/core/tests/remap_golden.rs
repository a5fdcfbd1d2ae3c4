//! Byte-level golden for failure-aware remapping on asymmetric trees.
//!
//! Failing a subset of the paper-default 64/32/16 platform's clients
//! leaves a pruned hierarchy whose siblings lead unequal numbers of
//! clients, so Stage 2 must balance toward subtree-width-proportional
//! targets. This test remaps every nest of the eight test-scale
//! applications under several such failure sets and linkages, and pins
//! a digest of the wire bytes of every remapped distribution: any change
//! to clustering or balancing on pruned trees shows up as a new digest.

use cachemap_core::cluster::{distribute, remap_failed, ClusterParams, Linkage};
use cachemap_core::tags::tag_nests;
use cachemap_polyhedral::DataSpace;
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::{Fingerprint, ToJson};
use cachemap_workloads::{suite, Scale};

/// Failure sets over the 64-client tree (2 clients per I/O node, 2 I/O
/// nodes per storage node). Each one leaves the pruned tree asymmetric.
const FAILURE_SETS: [&[usize]; 4] = [
    // Clients 0-2: I/O node 0 disappears, I/O node 1 keeps one client.
    &[0, 1, 2],
    // One I/O node's clients.
    &[0, 1],
    // A single client: its I/O node keeps one of two.
    &[5],
    // Scattered failures under three storage nodes.
    &[6, 7, 20, 41],
];

/// Digest of every remapped distribution's wire bytes, in
/// (application, nest, params, failure set) order.
const GOLDEN: &str = "37bf3a09ffbcae019f8d85fd39a081e9";

#[test]
fn asymmetric_remaps_match_the_recorded_wire_digest() {
    let platform = PlatformConfig::paper_default();
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let params = [
        ClusterParams::default(),
        ClusterParams {
            balance_threshold: 0.25,
            linkage: Linkage::Total,
        },
        ClusterParams {
            balance_threshold: 0.0,
            linkage: Linkage::Sqrt,
        },
    ];
    let mut wire = Vec::new();
    for app in suite(Scale::Test) {
        let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        for nest in 0..app.program.nests.len() {
            let (chunks, _) = tag_nests(&app.program, &[nest], &data);
            for p in &params {
                let dist = distribute(&chunks, &tree, p);
                for failed in FAILURE_SETS {
                    let remapped = remap_failed(&dist, &chunks, &tree, failed, p).unwrap();
                    for &c in failed {
                        assert!(remapped.per_client[c].is_empty(), "client {c} failed");
                    }
                    assert_eq!(remapped.total_iterations(), dist.total_iterations());
                    wire.extend_from_slice(remapped.to_json().to_string_compact().as_bytes());
                    wire.push(b'\n');
                }
            }
        }
    }
    let digest = Fingerprint::of_bytes(&wire).to_hex();
    assert_eq!(digest, GOLDEN, "remapped wire bytes changed");
}
