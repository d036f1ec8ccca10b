//! The partitioner against its sort-and-`BTreeMap` predecessor.
//!
//! `reference` below is the previous implementation, kept verbatim in
//! substance: one global sort of the in-range pairs, then ordered maps for
//! grid cells, union roots, per-group neighbors and energy imports. The
//! current [`partition`] must return the same [`Partition`], field by
//! field, floats compared by bits, on random point sets and on every city
//! generator at several sizes, caps and seeds.

use powifi_deploy::city::partition::{partition, Partition};
use powifi_deploy::city::topology::{apartment_block, campus, diurnal_city, CityTopology, Network};
use powifi_deploy::geometry::Pos;
use powifi_rf::budget::InteractionModel;
use powifi_rf::{Bitrate, WifiChannel};
use powifi_sim::SimDuration;
use proptest::prelude::*;

mod reference {
    use powifi_deploy::city::partition::{coupling_weight, Coupling, Group, Partition};
    use powifi_deploy::city::topology::CityTopology;
    use powifi_rf::budget::HARVEST_FLOOR;
    use powifi_rf::Meters;
    use std::collections::BTreeMap;

    const RANGE_CAP_M: f64 = 500.0;

    struct Dsu {
        parent: Vec<usize>,
        size: Vec<usize>,
    }

    impl Dsu {
        fn new(n: usize) -> Dsu {
            Dsu {
                parent: (0..n).collect(),
                size: vec![1; n],
            }
        }

        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }

        fn try_union(&mut self, a: usize, b: usize, cap: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb || self.size[ra] + self.size[rb] > cap {
                return;
            }
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
            self.size[lo] += self.size[hi];
        }
    }

    pub fn partition(topo: &CityTopology, max_group: usize, max_shard: usize) -> Partition {
        let n = topo.networks.len();
        let max_group = max_group.clamp(1, max_shard.max(1));
        let range = topo.model.interaction_range(Meters(RANGE_CAP_M)).0.max(1.0);

        let mut cells: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        for (i, net) in topo.networks.iter().enumerate() {
            let cx = (net.pos.x / range).floor() as i64;
            let cy = (net.pos.y / range).floor() as i64;
            cells.entry((cx, cy)).or_default().push(i);
        }
        let range2 = range * range;
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        {
            let mut consider = |a: usize, b: usize| {
                let (pa, pb) = (topo.networks[a].pos, topo.networks[b].pos);
                let (dx, dy) = (pa.x - pb.x, pa.y - pb.y);
                let d2 = dx * dx + dy * dy;
                if d2 <= range2 {
                    let (a, b) = if a < b { (a, b) } else { (b, a) };
                    pairs.push((a, b, d2));
                }
            };
            for (&(cx, cy), members) in &cells {
                for (k, &a) in members.iter().enumerate() {
                    for &b in &members[k + 1..] {
                        consider(a, b);
                    }
                }
                for (dx, dy) in [(1i64, 0i64), (-1, 1), (0, 1), (1, 1)] {
                    if let Some(other) = cells.get(&(cx + dx, cy + dy)) {
                        for &a in members {
                            for &b in other {
                                consider(a, b);
                            }
                        }
                    }
                }
            }
        }
        pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));

        let mut dsu = Dsu::new(n);
        for &(a, b, _) in &pairs {
            if topo.networks[a].channel == topo.networks[b].channel {
                dsu.try_union(a, b, max_group);
            }
        }
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            let r = dsu.find(i);
            by_root.entry(r).or_default().push(i);
        }
        let groups: Vec<Group> = by_root
            .into_iter()
            .map(|(key, members)| Group {
                key,
                channel: topo.networks[key].channel,
                members,
            })
            .collect();
        let mut group_of = vec![0usize; n];
        for (g, grp) in groups.iter().enumerate() {
            for &m in &grp.members {
                group_of[m] = g;
            }
        }

        let mut gdsu = Dsu::new(groups.len());
        gdsu.size = groups.iter().map(|g| g.members.len()).collect();
        for &(a, b, _) in &pairs {
            let (ga, gb) = (group_of[a], group_of[b]);
            if ga != gb {
                gdsu.try_union(ga, gb, max_shard.max(max_group));
            }
        }
        let mut shard_roots: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for g in 0..groups.len() {
            let r = gdsu.find(g);
            shard_roots.entry(r).or_default().push(g);
        }
        let shards: Vec<Vec<usize>> = shard_roots.into_values().collect();
        let mut shard_of_group = vec![0usize; groups.len()];
        for (s, gs) in shards.iter().enumerate() {
            for &g in gs {
                shard_of_group[g] = s;
            }
        }

        let floor = topo.model.floor.0;
        let mut harvest_model = topo.model;
        harvest_model.floor = HARVEST_FLOOR;
        let harvest_range = harvest_model.interaction_range(Meters(range)).0;
        let harvest_range2 = harvest_range * harvest_range;
        let mut neighbors: Vec<BTreeMap<usize, (f64, f64)>> = vec![BTreeMap::new(); groups.len()];
        let mut energy_min: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(a, b, d2) in &pairs {
            let (ga, gb) = (group_of[a], group_of[b]);
            if ga == gb {
                continue;
            }
            let (lo, hi) = if ga < gb { (ga, gb) } else { (gb, ga) };
            let entry = neighbors[lo]
                .entry(hi)
                .or_insert((f64::INFINITY, f64::INFINITY));
            entry.0 = entry.0.min(d2);
            if topo.networks[a].channel == topo.networks[b].channel {
                entry.1 = entry.1.min(d2);
            }
            if d2 <= harvest_range2 {
                for (net, from) in [(a, gb), (b, ga)] {
                    let min = energy_min.entry((net, from)).or_insert(f64::INFINITY);
                    *min = min.min(d2);
                }
            }
        }
        let budget_of = |d2: f64| topo.model.budget_at(Meters(d2.sqrt())).0;
        let mut couplings: Vec<Coupling> = Vec::new();
        let mut boundary_links = 0u64;
        for (ga, nbrs) in neighbors.iter().enumerate() {
            for (&gb, &(min_d2, min_same_d2)) in nbrs {
                let peak = budget_of(min_d2);
                let weight = if min_same_d2.is_finite() {
                    coupling_weight(budget_of(min_same_d2), floor)
                } else {
                    0.0
                };
                if shard_of_group[ga] != shard_of_group[gb] {
                    boundary_links += 1;
                }
                for (from, to) in [(ga, gb), (gb, ga)] {
                    couplings.push(Coupling {
                        from,
                        to,
                        weight,
                        peak_dbm: peak,
                    });
                }
            }
        }
        couplings.sort_by_key(|c| (c.to, c.from));

        let mut energy_imports: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (&(net, from), &d2) in &energy_min {
            let peak = budget_of(d2);
            if peak >= HARVEST_FLOOR.0 {
                energy_imports[net].push((from, peak));
            }
        }

        Partition {
            groups,
            group_of,
            shards,
            shard_of_group,
            couplings,
            energy_imports,
            boundary_links,
            interaction_range_m: range,
        }
    }
}

/// Every field of two partitions, floats by bits. Returns the first
/// difference.
fn same(a: &Partition, b: &Partition) -> Result<(), String> {
    let groups = |p: &Partition| -> Vec<(usize, WifiChannel, Vec<usize>)> {
        p.groups
            .iter()
            .map(|g| (g.key, g.channel, g.members.clone()))
            .collect()
    };
    let couplings = |p: &Partition| -> Vec<(usize, usize, u64, u64)> {
        p.couplings
            .iter()
            .map(|c| (c.from, c.to, c.weight.to_bits(), c.peak_dbm.to_bits()))
            .collect()
    };
    let imports = |p: &Partition| -> Vec<Vec<(usize, u64)>> {
        p.energy_imports
            .iter()
            .map(|row| row.iter().map(|&(g, dbm)| (g, dbm.to_bits())).collect())
            .collect()
    };
    let checks = [
        ("groups", groups(a) == groups(b)),
        ("group_of", a.group_of == b.group_of),
        ("shards", a.shards == b.shards),
        ("shard_of_group", a.shard_of_group == b.shard_of_group),
        ("couplings", couplings(a) == couplings(b)),
        ("energy_imports", imports(a) == imports(b)),
        ("boundary_links", a.boundary_links == b.boundary_links),
        (
            "interaction_range_m",
            a.interaction_range_m.to_bits() == b.interaction_range_m.to_bits(),
        ),
    ];
    match checks.iter().find(|(_, equal)| !equal) {
        Some((field, _)) => Err(format!("`{field}` differs")),
        None => Ok(()),
    }
}

fn net(x: f64, y: f64, chan: usize) -> Network {
    Network {
        pos: Pos::new(x, y),
        channel: WifiChannel::POWER_SET[chan % WifiChannel::POWER_SET.len()],
        beacon_phase: SimDuration::ZERO,
        beacon_rate: Bitrate::G6,
        burst_period: SimDuration::ZERO,
        burst_bytes: 0,
        burst_rate: Bitrate::G6,
        client_snr_db: 0.0,
        sensor_ft: 6.0,
    }
}

#[test]
fn generated_cities_partition_as_before() {
    type Gen = fn(usize, u64) -> CityTopology;
    let generators: [(&str, Gen); 3] = [
        ("apartment_block", apartment_block),
        ("campus", campus),
        ("diurnal_city", |n, seed| diurnal_city(n, 20, seed)),
    ];
    let mut non_trivial = 0;
    for (name, gen) in generators {
        for n in [60, 500, 2_500] {
            for seed in [1, 7, 42] {
                let topo = gen(n, seed);
                for (max_group, max_shard) in [(12, 48), (3, 10), (40, 40)] {
                    let new = partition(&topo, max_group, max_shard);
                    let old = reference::partition(&topo, max_group, max_shard);
                    if let Err(e) = same(&new, &old) {
                        panic!("{name}({n}, seed {seed}) caps {max_group}/{max_shard}: {e}");
                    }
                    if new.boundary_links > 0 && !new.energy_imports.iter().all(Vec::is_empty) {
                        non_trivial += 1;
                    }
                }
            }
        }
    }
    assert!(
        non_trivial >= 20,
        "only {non_trivial} runs exercised couplings"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random point sets, some dense enough to fill a cell, some spread
    /// over several cells, on random caps.
    #[test]
    fn random_point_sets_partition_as_before(
        points in prop::collection::vec((0f64..400.0, 0f64..400.0, 0usize..3), 1..80),
        scale in prop::sample::select(vec![0.05, 1.0, 4.0]),
        max_group in 1usize..10,
        extra_shard in 0usize..40,
    ) {
        let topo = CityTopology {
            networks: points.iter().map(|&(x, y, c)| net(x * scale, y * scale, c)).collect(),
            model: InteractionModel::city_default(),
            horizon: SimDuration::from_millis(100),
            epoch: SimDuration::from_millis(50),
        };
        let max_shard = max_group + extra_shard;
        let new = partition(&topo, max_group, max_shard);
        let old = reference::partition(&topo, max_group, max_shard);
        if let Err(e) = same(&new, &old) {
            prop_assert!(false, "{}", e);
        }
    }
}
