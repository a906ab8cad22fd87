//! Golden schedule fingerprints for every allreduce protocol on the
//! simulated fabric.
//!
//! Each line pins one cell of the grid — algorithm × ordering ×
//! topology × offered load × NIC coalescing × route selection at
//! p = 16 — by its value bits (FNV-1a digest), its `elapsed_ns` bits
//! and the full engine [`RunStats`](fpna_net::RunStats) (deliveries,
//! wire and NIC bytes, hops, waits, makespan, tenant tallies). Jitter
//! and ECMP draws are keyed by message id, so the stats pin the exact
//! injection sequence of each protocol, not only its result.
//!
//! Refresh after an intentional schedule change with:
//!
//! ```text
//! FPNA_BLESS=1 cargo test -p fpna-collectives --test golden_schedules
//! ```

use fpna_collectives::{allreduce_on, Algorithm, NetConfig, Ordering};
use fpna_core::rng::SplitMix64;
use fpna_net::{LinkSpec, RouteSelect, Topology};
use std::fmt::Write as _;

const P: usize = 16;
const LEN: usize = 40;

fn inputs() -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(0x5C4E_D01E);
    (0..P)
        .map(|_| (0..LEN).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
        .collect()
}

fn topologies() -> Vec<Topology> {
    vec![
        Topology::flat_switch(P, LinkSpec::new(500.0, 25.0)),
        Topology::fat_tree_spines(P, 4, 2, LinkSpec::new(500.0, 50.0), LinkSpec::new(1_000.0, 25.0)),
        Topology::hierarchical_cyclic(
            4,
            4,
            LinkSpec::new(200.0, 100.0),
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(5_000.0, 25.0),
        ),
    ]
}

const ALGORITHMS: [Algorithm; 8] = [
    Algorithm::Ring,
    Algorithm::SegmentedRing { segments: 4 },
    Algorithm::KAryTree { fanout: 3 },
    Algorithm::SegmentedTree { fanout: 3, segments: 4 },
    Algorithm::RecursiveDoubling,
    Algorithm::Hierarchical { intra: 2, inter: 2 },
    Algorithm::FabricRing,
    Algorithm::DoubleBinaryTree,
];

/// FNV-1a over the value bits.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn fingerprints() -> String {
    let ranks = inputs();
    let mut out = String::new();
    for topo in topologies() {
        for alg in ALGORITHMS {
            for ord in [
                Ordering::RankOrder,
                Ordering::ArrivalOrder { seed: 0xA11 },
                Ordering::Reproducible,
            ] {
                for load in [0.0, 0.5] {
                    for coalesce in [0u64, 256] {
                        for route in [RouteSelect::Fixed, RouteSelect::SeededEcmp { seed: 0xEC }] {
                            let cfg = NetConfig::default()
                                .with_jitter_seed(0x51)
                                .with_load(load, 0xB6)
                                .with_route(route)
                                .with_coalesce(coalesce);
                            let r = allreduce_on(&topo, &ranks, alg, ord, &cfg);
                            writeln!(
                                out,
                                "{} | {alg:?} | {ord:?} | load={load} coalesce={coalesce} {route:?} \
                                 | values={:016x} elapsed={:016x} | {:?}",
                                topo.name(),
                                digest(&r.values),
                                r.elapsed_ns.to_bits(),
                                r.stats,
                            )
                            .unwrap();
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn schedules_match_the_committed_golden() {
    let got = fingerprints();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/schedules.txt");
    if std::env::var_os("FPNA_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        eprintln!("blessed {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden schedules missing — bless them with FPNA_BLESS=1");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "schedule fingerprint drifted at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "schedule grid changed size; if intentional, re-bless with FPNA_BLESS=1"
    );
}
