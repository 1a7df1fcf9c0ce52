//! Golden topology hashes: the generator's output must stay bit-for-bit
//! what it was when these values were recorded.
//!
//! Each hash covers every node's type and region set, then every
//! adjacency entry in adjacency order with its relationship. Any change to
//! the RNG stream, the draw order, a weight or a tie-break moves it, so a
//! faster generator is held to producing the very same graphs.
//!
//! The grid is all 14 scenarios × n ∈ {300, 1000, 3000} × seeds {1, 2, 3}
//! plus BASELINE at n = 20 000; BASELINE at n = 40 000 is `#[ignore]`d
//! (run it with `cargo test --release -p bgpscale-topology --test
//! golden_topology -- --include-ignored`).

use bgpscale_topology::{generate, AsGraph, GrowthScenario, NodeType, Relationship};

/// FNV-1a over a byte stream: order-sensitive, dependency-free and stable
/// across platforms.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

fn topology_hash(g: &AsGraph) -> u64 {
    let mut h = Fnv::new();
    h.u32(g.len() as u32);
    for id in g.node_ids() {
        let ty = match g.node_type(id) {
            NodeType::T => 0u8,
            NodeType::M => 1,
            NodeType::Cp => 2,
            NodeType::C => 3,
        };
        let regions = g.regions(id).iter().fold(0u32, |m, r| m | 1 << r);
        h.bytes(&[ty]);
        h.u32(regions);
        let adjacency = g.neighbors(id);
        h.u32(adjacency.len() as u32);
        for nb in adjacency {
            let rel = match nb.rel {
                Relationship::Customer => 0u8,
                Relationship::Peer => 1,
                Relationship::Provider => 2,
            };
            h.u32(nb.id.0);
            h.bytes(&[rel]);
        }
    }
    h.0
}

/// `(scenario, n, seed, hash)`, recorded from the generator before its
/// weighted draws and customer-tree test were rewritten.
const GOLDEN_GRID: &[(&str, usize, u64, u64)] = &[
    ("BASELINE", 300, 1, 0x002d54fa4d5c545a),
    ("BASELINE", 300, 2, 0x4c50c291cc54f443),
    ("BASELINE", 300, 3, 0x5819554410dcaf53),
    ("BASELINE", 1000, 1, 0xf49cebb76c8fbd8a),
    ("BASELINE", 1000, 2, 0x759a1fe184117714),
    ("BASELINE", 1000, 3, 0xfa04df6aaae2deab),
    ("BASELINE", 3000, 1, 0x0422642a84c38f11),
    ("BASELINE", 3000, 2, 0x5f0a7f425358fe7c),
    ("BASELINE", 3000, 3, 0x98a962b98321a5db),
    ("NO-MIDDLE", 300, 1, 0x784d9e1283654ed2),
    ("NO-MIDDLE", 300, 2, 0x51900093811e4403),
    ("NO-MIDDLE", 300, 3, 0xc982989fe4fcdfea),
    ("NO-MIDDLE", 1000, 1, 0x7de53fceae870c70),
    ("NO-MIDDLE", 1000, 2, 0xe28077bfd14a5111),
    ("NO-MIDDLE", 1000, 3, 0x0e1044fc98547701),
    ("NO-MIDDLE", 3000, 1, 0x3cbbff9d7fbc3daf),
    ("NO-MIDDLE", 3000, 2, 0xf5de646071f359b0),
    ("NO-MIDDLE", 3000, 3, 0x21f716aebaa92ab8),
    ("RICH-MIDDLE", 300, 1, 0x91d06166b3991f4f),
    ("RICH-MIDDLE", 300, 2, 0xb39446e6bf6ea590),
    ("RICH-MIDDLE", 300, 3, 0xdb7869721f065fc5),
    ("RICH-MIDDLE", 1000, 1, 0x7d9f7312cf2a2496),
    ("RICH-MIDDLE", 1000, 2, 0x3a5301897288a97e),
    ("RICH-MIDDLE", 1000, 3, 0x0ecf20cbbc0c5d6d),
    ("RICH-MIDDLE", 3000, 1, 0x9d0c017d7cc7593c),
    ("RICH-MIDDLE", 3000, 2, 0x561a8854413cdd12),
    ("RICH-MIDDLE", 3000, 3, 0x3131b881bd1a3a95),
    ("STATIC-MIDDLE", 300, 1, 0x002d54fa4d5c545a),
    ("STATIC-MIDDLE", 300, 2, 0x4c50c291cc54f443),
    ("STATIC-MIDDLE", 300, 3, 0x5819554410dcaf53),
    ("STATIC-MIDDLE", 1000, 1, 0xf49cebb76c8fbd8a),
    ("STATIC-MIDDLE", 1000, 2, 0x759a1fe184117714),
    ("STATIC-MIDDLE", 1000, 3, 0xfa04df6aaae2deab),
    ("STATIC-MIDDLE", 3000, 1, 0x0c485425c52a3983),
    ("STATIC-MIDDLE", 3000, 2, 0xd37d486c36586a89),
    ("STATIC-MIDDLE", 3000, 3, 0x224e98415d46f59f),
    ("TRANSIT-CLIQUE", 300, 1, 0x7802b0559eefe9d3),
    ("TRANSIT-CLIQUE", 300, 2, 0x74a678eaa876ff26),
    ("TRANSIT-CLIQUE", 300, 3, 0xb006164d96c10d49),
    ("TRANSIT-CLIQUE", 1000, 1, 0x24000d08420d6eb3),
    ("TRANSIT-CLIQUE", 1000, 2, 0xe21b671e9d6911d4),
    ("TRANSIT-CLIQUE", 1000, 3, 0x9337a63cb6082f44),
    ("TRANSIT-CLIQUE", 3000, 1, 0xd15182d4d81eeb1b),
    ("TRANSIT-CLIQUE", 3000, 2, 0xfd93f44694eafe23),
    ("TRANSIT-CLIQUE", 3000, 3, 0x2212845510f4ca6c),
    ("DENSE-CORE", 300, 1, 0x1a7813164f169a55),
    ("DENSE-CORE", 300, 2, 0x2c10d27cdce7d39b),
    ("DENSE-CORE", 300, 3, 0x6e75d101640efc28),
    ("DENSE-CORE", 1000, 1, 0x07a8224df3fbd04f),
    ("DENSE-CORE", 1000, 2, 0x885b8ffe578d8dc0),
    ("DENSE-CORE", 1000, 3, 0x4eb185c6feef6a1f),
    ("DENSE-CORE", 3000, 1, 0x267d95cca3b1c1f3),
    ("DENSE-CORE", 3000, 2, 0x42b61a1f408a4813),
    ("DENSE-CORE", 3000, 3, 0xa01eb16c8272251f),
    ("DENSE-EDGE", 300, 1, 0xbe07b1f17d3eb889),
    ("DENSE-EDGE", 300, 2, 0x1c15d34f542ecfb3),
    ("DENSE-EDGE", 300, 3, 0x22df026624e9d7e2),
    ("DENSE-EDGE", 1000, 1, 0x196d002e8211255b),
    ("DENSE-EDGE", 1000, 2, 0xfc36c9164dd7a598),
    ("DENSE-EDGE", 1000, 3, 0x8f928f642d8c24dc),
    ("DENSE-EDGE", 3000, 1, 0xa9e641616d860f2c),
    ("DENSE-EDGE", 3000, 2, 0x1f60f5811e28c90b),
    ("DENSE-EDGE", 3000, 3, 0x8e72924aa0e210c7),
    ("TREE", 300, 1, 0xa4b101da92b28f31),
    ("TREE", 300, 2, 0xba5aa03fb09e0a7c),
    ("TREE", 300, 3, 0x2cc4179dcda81eaa),
    ("TREE", 1000, 1, 0xc0a894faf6f14b32),
    ("TREE", 1000, 2, 0x2a1825f5d7da55f1),
    ("TREE", 1000, 3, 0x68e9e8af367ab152),
    ("TREE", 3000, 1, 0xa4e5d5a12e9c4d60),
    ("TREE", 3000, 2, 0x22221db44a1db2a9),
    ("TREE", 3000, 3, 0xb6289bfda00695d7),
    ("CONSTANT-MHD", 300, 1, 0x231ec7842e3d64d9),
    ("CONSTANT-MHD", 300, 2, 0x704a455143bae4a6),
    ("CONSTANT-MHD", 300, 3, 0xd9c3310662c8aed8),
    ("CONSTANT-MHD", 1000, 1, 0x34955e1f2cb46881),
    ("CONSTANT-MHD", 1000, 2, 0xa5dbf633f007c01f),
    ("CONSTANT-MHD", 1000, 3, 0x982f1585573c7c0a),
    ("CONSTANT-MHD", 3000, 1, 0xfab39fb0a2556f07),
    ("CONSTANT-MHD", 3000, 2, 0xc7b59e6597387520),
    ("CONSTANT-MHD", 3000, 3, 0x272d0f95d2c15840),
    ("NO-PEERING", 300, 1, 0x21c4a6e231cae09c),
    ("NO-PEERING", 300, 2, 0xb657f113f02f0b54),
    ("NO-PEERING", 300, 3, 0xcd633d1024a51a71),
    ("NO-PEERING", 1000, 1, 0x1a9c856900506b56),
    ("NO-PEERING", 1000, 2, 0xa4910149eb1e03a3),
    ("NO-PEERING", 1000, 3, 0x81a6472d7e242196),
    ("NO-PEERING", 3000, 1, 0x3f69d3eb899a2863),
    ("NO-PEERING", 3000, 2, 0x51cc25cd074c88dd),
    ("NO-PEERING", 3000, 3, 0x4ac12c265c55356a),
    ("STRONG-CORE-PEERING", 300, 1, 0x9a6edbe26ca86dbc),
    ("STRONG-CORE-PEERING", 300, 2, 0xf5fdd3e7007b56db),
    ("STRONG-CORE-PEERING", 300, 3, 0x144b3d95578c41a4),
    ("STRONG-CORE-PEERING", 1000, 1, 0xf74c1191d811ba59),
    ("STRONG-CORE-PEERING", 1000, 2, 0x75fd403377eeb6b6),
    ("STRONG-CORE-PEERING", 1000, 3, 0x1e789441fe7a61d7),
    ("STRONG-CORE-PEERING", 3000, 1, 0x08793c30d5813c0c),
    ("STRONG-CORE-PEERING", 3000, 2, 0x31ac70d77508f480),
    ("STRONG-CORE-PEERING", 3000, 3, 0x09fd91092920c2c7),
    ("STRONG-EDGE-PEERING", 300, 1, 0xf68b0dd1f0656a2b),
    ("STRONG-EDGE-PEERING", 300, 2, 0x035d1940a88c6b42),
    ("STRONG-EDGE-PEERING", 300, 3, 0xfc69bb198555ce95),
    ("STRONG-EDGE-PEERING", 1000, 1, 0xe7b2a02911258959),
    ("STRONG-EDGE-PEERING", 1000, 2, 0x5243898917601030),
    ("STRONG-EDGE-PEERING", 1000, 3, 0xcbe76ca99375b563),
    ("STRONG-EDGE-PEERING", 3000, 1, 0xbad9981b3ee53774),
    ("STRONG-EDGE-PEERING", 3000, 2, 0x7ef4154423fabb9c),
    ("STRONG-EDGE-PEERING", 3000, 3, 0x82ec8dfae64658c1),
    ("PREFER-MIDDLE", 300, 1, 0x307fdb8bb3db4da8),
    ("PREFER-MIDDLE", 300, 2, 0xfa718d4de2f18e2e),
    ("PREFER-MIDDLE", 300, 3, 0x94a926027cb3d083),
    ("PREFER-MIDDLE", 1000, 1, 0x73aff484f5674c21),
    ("PREFER-MIDDLE", 1000, 2, 0xdb3c8574064dff10),
    ("PREFER-MIDDLE", 1000, 3, 0xbdfe199245fb0dfe),
    ("PREFER-MIDDLE", 3000, 1, 0x13f77b36049356fd),
    ("PREFER-MIDDLE", 3000, 2, 0xda97a57daddb5c50),
    ("PREFER-MIDDLE", 3000, 3, 0xc0b4bc5eff5e20db),
    ("PREFER-TOP", 300, 1, 0x4a2b19fd42ceb698),
    ("PREFER-TOP", 300, 2, 0x997aa7977c7d84c6),
    ("PREFER-TOP", 300, 3, 0xed65d26798d2f6c9),
    ("PREFER-TOP", 1000, 1, 0xb6dea294bf70ef26),
    ("PREFER-TOP", 1000, 2, 0x31235b5cb462796e),
    ("PREFER-TOP", 1000, 3, 0xbc5aaed85c6de0be),
    ("PREFER-TOP", 3000, 1, 0x0bba387d2c56f17d),
    ("PREFER-TOP", 3000, 2, 0x48ab4d6595c5c013),
    ("PREFER-TOP", 3000, 3, 0xda35b376fd105c76),
];

fn check(cases: &[(&str, usize, u64, u64)]) {
    let mut mismatches = Vec::new();
    for &(name, n, seed, want) in cases {
        let scenario = GrowthScenario::from_name(name).expect("known scenario");
        let got = topology_hash(&generate(scenario, n, seed));
        if got != want {
            mismatches.push(format!(
                "{name} n={n} seed={seed}: got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} topologies changed:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn grid_covers_every_scenario_size_and_seed() {
    assert_eq!(GOLDEN_GRID.len(), GrowthScenario::ALL.len() * 3 * 3);
    for s in GrowthScenario::ALL {
        for n in [300, 1_000, 3_000] {
            for seed in 1..=3 {
                assert!(
                    GOLDEN_GRID
                        .iter()
                        .any(|&(name, gn, gs, _)| name == s.name() && gn == n && gs == seed),
                    "{s} n={n} seed={seed} missing from the grid"
                );
            }
        }
    }
}

#[test]
fn golden_grid_is_unchanged() {
    check(GOLDEN_GRID);
}

#[test]
fn baseline_20k_is_unchanged() {
    check(&[("BASELINE", 20_000, 1, 0xc1b99f7dabee48fa)]);
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release with --include-ignored"]
fn baseline_40k_is_unchanged() {
    check(&[("BASELINE", 40_000, 1, 0x622c4bcefd3905fc)]);
}
