//! Exact interference-range partitioner.
//!
//! Partitioning is driven entirely by provable pairwise budgets from
//! [`powifi_rf::budget`]: the worst-case received power between two routers.
//! A pair below the interaction floor cannot interact through any mechanism
//! the simulator models, so ignoring it is exact. Every pair at or above the
//! floor is preserved one of two ways:
//!
//! * **same medium** — same-channel pairs are unioned into a shared-medium
//!   *group* (real CSMA contention between the networks), subject to a size
//!   cap that keeps each medium, and so each shard, small;
//! * **coupling link** — pairs the cap split apart (and all cross-channel
//!   energy pairs) get an explicit [`Coupling`] record, serviced every epoch
//!   through the export table.
//!
//! So no interacting pair is ever silently separated — the property the
//! partition proptest pins on random topologies.

use std::ops::Range;

use super::topology::CityTopology;
use crate::geometry::Pos;
use powifi_rf::budget::HARVEST_FLOOR;
use powifi_rf::{Meters, WifiChannel};

/// Candidate-pair discovery cap for the interaction range, meters.
const RANGE_CAP_M: f64 = 500.0;

/// A shared-medium group: same-channel networks that must contend on one
/// collision domain.
#[derive(Debug, Clone)]
pub struct Group {
    /// Minimum global network id in the group — the stable label the
    /// runtime seeds the medium RNG stream from.
    pub key: usize,
    /// The group's channel (all members share it).
    pub channel: powifi_rf::WifiChannel,
    /// Member network ids, ascending.
    pub members: Vec<usize>,
}

/// A directed inter-group coupling serviced at epoch barriers.
#[derive(Debug, Clone, Copy)]
pub struct Coupling {
    /// Exporter group index.
    pub from: usize,
    /// Importer group index.
    pub to: usize,
    /// Corruption coupling weight in `[0, 1]` (0 for cross-channel pairs,
    /// which exchange only energy).
    pub weight: f64,
    /// Strongest pairwise budget between the groups, dBm.
    pub peak_dbm: f64,
}

/// The partitioner's output: groups, shard packing and coupling tables.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shared-medium groups, ordered by `key`.
    pub groups: Vec<Group>,
    /// Network id → group index.
    pub group_of: Vec<usize>,
    /// Shards: each a list of group indices, ascending; shards ordered by
    /// their first group.
    pub shards: Vec<Vec<usize>>,
    /// Group index → shard index.
    pub shard_of_group: Vec<usize>,
    /// Directed couplings, sorted by `(to, from)` — importer iteration order.
    pub couplings: Vec<Coupling>,
    /// Per network: `(exporter group, peak budget dBm)` energy-import terms,
    /// sorted by group.
    pub energy_imports: Vec<Vec<(usize, f64)>>,
    /// Couplings whose endpoint groups sit in different shards.
    pub boundary_links: u64,
    /// The interaction range the spatial grid was pitched at, meters.
    pub interaction_range_m: f64,
}

/// Corruption coupling weight for a pairwise budget `peak_dbm` against the
/// interaction floor: 0 at the floor, saturating 40 dB above it.
pub fn coupling_weight(peak_dbm: f64, floor_dbm: f64) -> f64 {
    ((peak_dbm - floor_dbm) / 40.0).clamp(0.0, 1.0)
}

/// Union-find with a cap on component weight; merges keep the smallest
/// element as root, so a component's root doubles as its stable key.
struct Dsu {
    parent: Vec<usize>,
    /// Component weight, by root.
    weight: Vec<usize>,
}

impl Dsu {
    /// Singletons of the given weights.
    fn new(weight: Vec<usize>) -> Dsu {
        Dsu {
            parent: (0..weight.len()).collect(),
            weight,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Union the components of `a` and `b` unless their combined weight
    /// would exceed `cap`.
    fn try_union(&mut self, a: usize, b: usize, cap: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb || self.weight[ra] + self.weight[rb] > cap {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
        self.weight[lo] += self.weight[hi];
    }
}

/// The networks bucketed into square grid cells of pitch `range`: every
/// pair within `range` lands in the same or an adjacent cell, so each
/// network is tested against its own 3×3 block of cells only — O(n) for
/// bounded densities instead of O(n²).
struct Grid {
    /// Positions and ids, sorted by cell column, then `y`: a column of
    /// three vertically adjacent cells is one run, sorted by `y`. A network
    /// off the finite plane is left out; it is in range of nothing.
    points: Vec<(Pos, u32)>,
    /// Per network: the three column runs of `points` covering the 3×3
    /// block of cells around it, as an index into `blocks`.
    block_of: Vec<u32>,
    blocks: Vec<[Range<usize>; 3]>,
}

impl Grid {
    #[expect(clippy::cast_possible_truncation, reason = "R5: floored; u32 ids")]
    fn new(pos: &[Pos], range: f64) -> Grid {
        let cell = |p: Pos| ((p.x / range).floor() as i64, (p.y / range).floor() as i64);
        let mut keyed: Vec<((i64, i64), Pos, u32)> = pos
            .iter()
            .enumerate()
            .filter(|(_, p)| p.x.is_finite() && p.y.is_finite())
            .map(|(i, &p)| (cell(p), p, i as u32))
            .collect();
        // The cell row grows with `y`, so this order is also cell order.
        keyed.sort_unstable_by(|a, b| {
            (a.0 .0.cmp(&b.0 .0))
                .then(a.1.y.total_cmp(&b.1.y))
                .then(a.2.cmp(&b.2))
        });
        // Block 0 is empty: the block of the networks left out.
        let mut block_of = vec![0u32; pos.len()];
        let mut blocks = vec![[0..0, 0..0, 0..0]];
        for (k, &((cx, cy), _, i)) in keyed.iter().enumerate() {
            if k == 0 || keyed[k - 1].0 != (cx, cy) {
                let (lo_y, hi_y) = (cy.saturating_sub(1), cy.saturating_add(1));
                blocks.push([-1i64, 0, 1].map(|dx| match cx.checked_add(dx) {
                    Some(x) => {
                        let lo = keyed.partition_point(|&(c, ..)| c < (x, lo_y));
                        let hi = keyed.partition_point(|&(c, ..)| c <= (x, hi_y));
                        lo..hi
                    }
                    None => 0..0,
                }));
            }
            block_of[i as usize] = (blocks.len() - 1) as u32;
        }
        let points = keyed.into_iter().map(|(_, p, i)| (p, i)).collect();
        Grid {
            points,
            block_of,
            blocks,
        }
    }

    /// The stretches of `points` that can hold a network within `range` of
    /// network `a` (at `pa`), for `range2 = range²`: each column run of its
    /// 3×3 block, cut to `dy² <= range²` (`dx² + dy² >= dy²` in floating
    /// point too).
    fn windows(&self, a: usize, pa: Pos, range2: f64) -> [Range<usize>; 3] {
        let far = |p: &(Pos, u32)| {
            let dy = pa.y - p.0.y;
            dy * dy > range2
        };
        self.blocks[self.block_of[a] as usize].clone().map(|run| {
            let points = &self.points[run.clone()];
            let lo = run.start + points.partition_point(|p| p.0.y < pa.y && far(p));
            let hi = run.start + points.partition_point(|p| p.0.y <= pa.y || !far(p));
            lo..hi
        })
    }

    /// Append to `out` the index in `points` of every network other than
    /// `a` (at `pa`) within `range` of it, for `range2 = range²`,
    /// ascending. Indices rather than ids keep later scans over a row
    /// reading `points` nearly in order.
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    fn neighbors(&self, a: usize, pa: Pos, range2: f64, out: &mut Vec<u32>) {
        for window in self.windows(a, pa, range2) {
            // Write every candidate, keep the ones in range: no branch on
            // the distance test in the hottest loop of the partitioner.
            let base = out.len();
            out.resize(base + window.len(), 0);
            let mut kept = base;
            for (j, &(pb, b)) in window.clone().zip(&self.points[window]) {
                out[kept] = j as u32;
                kept += usize::from(d2(pa, pb) <= range2 && b as usize != a);
            }
            out.truncate(kept);
        }
    }
}

/// Squared distance between two positions.
fn d2(a: Pos, b: Pos) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

/// The components of `dsu` ordered by root, each listing its elements
/// ascending, and each element's component index. Roots are the smallest
/// element of their component, so a component is first met at its root.
fn components(dsu: &mut Dsu) -> (Vec<Vec<usize>>, Vec<usize>) {
    let n = dsu.parent.len();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut comp_of = vec![0usize; n];
    for i in 0..n {
        let r = dsu.find(i);
        comp_of[i] = if r == i {
            comps.push(Vec::new());
            comps.len() - 1
        } else {
            comp_of[r]
        };
        comps[comp_of[i]].push(i);
    }
    (comps, comp_of)
}

/// Partition a topology. `max_group` caps networks per shared medium,
/// `max_shard` caps networks per shard (`max_group` is clamped to it).
///
/// Both packing steps are greedy unions in ascending `(a, b)` order over
/// the interacting pairs `a < b`, which makes the caps deterministic. No
/// step sorts the pairs: the group step sorts each network's short list
/// of same-channel partners, and the shard step needs only the first pair
/// of each group pair, because re-offering a group pair never changes a
/// union-find with growing components.
pub fn partition(topo: &CityTopology, max_group: usize, max_shard: usize) -> Partition {
    let n = topo.networks.len();
    let max_group = max_group.clamp(1, max_shard.max(1));
    let range = topo.model.interaction_range(Meters(RANGE_CAP_M)).0.max(1.0);
    let pos: Vec<Pos> = topo.networks.iter().map(|net| net.pos).collect();
    let channel: Vec<WifiChannel> = topo.networks.iter().map(|net| net.channel).collect();

    // Interacting pairs, as each network's row of in-range neighbors (by
    // index in `grid.points`). Candidate rejection happens on squared
    // distance against the bisected range: the path model is monotone in
    // distance, so `interacts(d)` implies `d <= range` and the cheap filter
    // keeps a (slight) superset — exactness is preserved. No budget is
    // evaluated here at all: grouping needs only pair existence, and step 2
    // recovers every budget it needs from the *minimum* separation per
    // aggregate (monotonicity again: max budget over a pair set = budget at
    // its closest approach), so the transcendental path-loss math runs once
    // per group pair instead of once per network pair.
    //
    // 1. Shared-medium groups: union same-channel interacting pairs under
    //    the group cap, in `(a, b)` order — so as soon as row `a` is known.
    let grid = Grid::new(&pos, range);
    let range2 = range * range;
    let mut row_start = Vec::with_capacity(n + 1);
    row_start.push(0);
    // Sized once for every candidate: growing a table this big by
    // doubling would copy it and fault its pages in again at each step.
    let candidates = (0..n)
        .flat_map(|a| grid.windows(a, pos[a], range2))
        .map(|w| w.len())
        .sum();
    let mut rows: Vec<u32> = Vec::with_capacity(candidates);
    let grid_channel: Vec<WifiChannel> =
        grid.points.iter().map(|p| channel[p.1 as usize]).collect();
    let mut same_above: Vec<u32> = Vec::new();
    let mut dsu = Dsu::new(vec![1; n]);
    for a in 0..n {
        let row = rows.len();
        grid.neighbors(a, pos[a], range2, &mut rows);
        row_start.push(rows.len());
        // A full group takes no one: every union `a` could offer fails.
        let root = dsu.find(a);
        if dsu.weight[root] >= max_group {
            continue;
        }
        // Same branch-free filter as the scan: `b > a` holds for half the
        // row in no predictable pattern.
        same_above.resize(rows.len() - row, 0);
        let mut kept = 0;
        for &j in &rows[row..] {
            let b = grid.points[j as usize].1;
            same_above[kept] = b;
            kept += usize::from(b as usize > a && grid_channel[j as usize] == channel[a]);
        }
        same_above[..kept].sort_unstable();
        for &b in &same_above[..kept] {
            dsu.try_union(a, b as usize, max_group);
        }
    }
    let row = |a: usize| &rows[row_start[a]..row_start[a + 1]];
    let (members, group_of) = components(&mut dsu);
    let groups: Vec<Group> = members
        .into_iter()
        .map(|members| Group {
            key: members[0],
            channel: channel[members[0]],
            members,
        })
        .collect();

    // 2. Coupling tables for every interacting pair not sharing a medium.
    //    Aggregation tracks the *closest approach* (min d²) per key; the
    //    budget is recovered from it afterwards. `sqrt(d²)` is bit-identical
    //    to `Pos::distance` (`powi(2)` is the same multiply), and the path
    //    model is monotone non-increasing in distance, so `budget_at(min d)`
    //    equals the maximum per-pair budget over the set. A group is
    //    single-channel, so a group pair's pairs are all same-channel or
    //    all cross-channel.
    let floor = topo.model.floor.0;
    // Harvest prefilter: beyond this (bisected, conservative) range the
    // budget is provably below the harvest hard cutoff. Energy imports
    // below the cutoff contribute exactly zero joules (each `advance_duty`
    // entry is rectified independently, and the runtime derates the budget
    // further by the harvester antenna delta), so pruning them is exact —
    // and it drops the vast majority of pairs, which sit between the
    // energy-detect floor and the harvest floor.
    let mut harvest_model = topo.model;
    harvest_model.floor = HARVEST_FLOOR;
    let harvest_range = harvest_model.interaction_range(Meters(range)).0;
    let harvest_range2 = harvest_range * harvest_range;
    let budget_of = |d2: f64| topo.model.budget_at(Meters(d2.sqrt())).0;
    // Each group pair is aggregated once, from its lower group `to`: over
    // the members' neighbors in higher groups, every group's closest
    // approach and first pair `(a, b)` go into dense per-group slots, read
    // out in ascending group order. The mirrored coupling waits in
    // `below` for its importer, so each importer's row comes out in the
    // `(to, from)` order of `couplings` with no sort.
    let ng = groups.len();
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    let grid_group: Vec<u32> = grid
        .points
        .iter()
        .map(|p| group_of[p.1 as usize] as u32)
        .collect();
    let mut closest = vec![f64::INFINITY; ng];
    let mut first_pair = vec![u64::MAX; ng];
    let mut touched = Vec::new();
    let mut above: Vec<u32> = Vec::new();
    let mut below: Vec<Vec<Coupling>> = vec![Vec::new(); ng];
    let mut couplings: Vec<Coupling> = Vec::new();
    let mut group_pairs: Vec<(u64, usize, usize)> = Vec::new();
    // `(network, exporter group, d²)` for the rare pairs in harvest range.
    let mut harvest: Vec<(usize, usize, f64)> = Vec::new();
    for (to, grp) in groups.iter().enumerate() {
        for &m in &grp.members {
            // Branch-free, like the scan: a neighbor's group is above `to`
            // for about half the row, in no predictable pattern.
            let row = row(m);
            above.resize(row.len(), 0);
            let mut kept = 0;
            for &j in row {
                above[kept] = j;
                kept += usize::from(grid_group[j as usize] as usize > to);
            }
            for &j in &above[..kept] {
                let from = grid_group[j as usize] as usize;
                let (px, x) = grid.points[j as usize];
                let x = x as usize;
                let d2 = d2(pos[m], px);
                if closest[from] == f64::INFINITY {
                    touched.push(from);
                }
                closest[from] = closest[from].min(d2);
                let (a, b) = (m.min(x), m.max(x));
                first_pair[from] = first_pair[from].min(((a as u64) << 32) | b as u64);
                if d2 <= harvest_range2 {
                    harvest.extend([(m, from, d2), (x, to, d2)]);
                }
            }
        }
        couplings.append(&mut below[to]);
        touched.sort_unstable();
        for &from in &touched {
            let peak = budget_of(std::mem::replace(&mut closest[from], f64::INFINITY));
            let weight = if groups[from].channel == grp.channel {
                coupling_weight(peak, floor)
            } else {
                0.0
            };
            couplings.push(Coupling {
                from,
                to,
                weight,
                peak_dbm: peak,
            });
            below[from].push(Coupling {
                from: to,
                to: from,
                weight,
                peak_dbm: peak,
            });
            let first = std::mem::replace(&mut first_pair[from], u64::MAX);
            group_pairs.push((first, to, from));
        }
        touched.clear();
    }
    // Energy imports per network, by exporter group: the closest approach
    // of each `(network, group)`, kept only above the exact cutoff (the
    // prefilter admits a superset).
    harvest.sort_unstable_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.total_cmp(&y.2)));
    harvest.dedup_by_key(|&mut (net, from, _)| (net, from));
    let mut energy_imports: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (net, from, d2) in harvest {
        let peak = budget_of(d2);
        if peak >= HARVEST_FLOOR.0 {
            energy_imports[net].push((from, peak));
        }
    }

    // 3. Shards: union groups along any interacting pair under the shard
    //    cap, counted in networks. A group pair offered again finds its
    //    groups joined or their components (which only grow) still over
    //    the cap, so each pair is offered once, at its first pair `(a, b)`.
    group_pairs.sort_unstable();
    let mut gdsu = Dsu::new(groups.iter().map(|g| g.members.len()).collect());
    for &(_, ga, gb) in &group_pairs {
        gdsu.try_union(ga, gb, max_shard.max(max_group));
    }
    let (shards, shard_of_group) = components(&mut gdsu);
    let boundary_links = group_pairs
        .iter()
        .filter(|&&(_, ga, gb)| shard_of_group[ga] != shard_of_group[gb])
        .count() as u64;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::topology::apartment_block;

    #[test]
    fn every_network_lands_in_exactly_one_group_and_shard() {
        let topo = apartment_block(80, 11);
        let p = partition(&topo, 12, 40);
        let mut seen = vec![0u32; 80];
        for grp in &p.groups {
            assert_eq!(grp.key, grp.members[0], "key is min member");
            for &m in &grp.members {
                seen[m] += 1;
                assert_eq!(topo.networks[m].channel, grp.channel);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        let total: usize = p.shards.iter().flatten().count();
        assert_eq!(total, p.groups.len());
    }

    #[test]
    fn caps_are_respected() {
        let topo = apartment_block(120, 13);
        let p = partition(&topo, 8, 30);
        for grp in &p.groups {
            assert!(grp.members.len() <= 8, "group {} too big", grp.key);
        }
        for shard in &p.shards {
            let nets: usize = shard.iter().map(|&g| p.groups[g].members.len()).sum();
            assert!(nets <= 30, "shard holds {nets} networks");
        }
    }

    #[test]
    fn no_interacting_pair_is_silently_separated() {
        // Brute-force check of the exactness property on a dense block.
        let topo = apartment_block(60, 17);
        let p = partition(&topo, 10, 30);
        for a in 0..topo.networks.len() {
            for b in a + 1..topo.networks.len() {
                let d = topo.networks[a].pos.distance(topo.networks[b].pos);
                if !topo.model.interacts(d) {
                    continue;
                }
                let (ga, gb) = (p.group_of[a], p.group_of[b]);
                if ga == gb {
                    continue;
                }
                assert!(
                    p.couplings.iter().any(|c| c.from == ga && c.to == gb),
                    "interacting pair ({a},{b}) has no coupling {ga}->{gb}"
                );
                // Energy imports exist exactly when the pair clears the
                // harvest hard cutoff (below it the rectifier output is
                // identically zero, so the partitioner prunes the entry).
                if topo.model.budget_at(d).0 >= HARVEST_FLOOR.0 {
                    assert!(
                        p.energy_imports[a].iter().any(|&(g, _)| g == gb),
                        "network {a} missing energy import from group {gb}"
                    );
                }
            }
        }
    }

    #[test]
    fn far_apart_clusters_do_not_couple() {
        let mut topo = apartment_block(8, 19);
        // Push half the networks 10 km east: provably out of range.
        for net in topo.networks.iter_mut().skip(4) {
            net.pos.x += 10_000.0;
        }
        let p = partition(&topo, 8, 8);
        assert!(p.shards.len() >= 2);
        for c in &p.couplings {
            let (ka, kb) = (p.groups[c.from].key, p.groups[c.to].key);
            assert!(
                (ka < 4) == (kb < 4),
                "coupling across the 10 km gap: {ka} vs {kb}"
            );
        }
    }
}
