//! Pass 2 — exhaustive invariant proving over small combinational cones.
//!
//! The runtime checkers must be **silent on a fault-free router** (zero
//! false positives, Section 5 of the paper). For three cones the input
//! space is small enough to enumerate completely, so the property is
//! *proved*, not sampled:
//!
//! * **Arbiter cone** — every `(width, priority pointer, request vector)`
//!   of the round-robin arbiter that implements VA1/VA2/SA1/SA2. The
//!   grants it emits must never trip invariances 4/5/6.
//! * **Routing cone** — every `(algorithm, source, destination)` walk on
//!   the mesh. Each hop's RC output must be a valid, live, turn-legal,
//!   minimal direction (invariances 1/2/3 silent) and every walk must
//!   deliver in exactly the Manhattan distance.
//! * **VC-state cone** — every `(state, event combination, speculative)`
//!   input of the pipeline-order checker. Here we prove an equivalence:
//!   invariance 17 fires *iff* the combination is illegal under the
//!   microarchitectural event model — silence on all legal inputs **and**
//!   detection of all illegal ones.
//!
//! Crucially, the predicates proved here are the very functions the
//! runtime [`nocalert::AlertBank`] evaluates (`nocalert::predicates`,
//! `noc_sim::routing`) — there is no re-derivation that could drift.

use crate::diag::{Diagnostic, Pass, Severity};
use noc_sim::arbiter::RoundRobin;
use noc_sim::routing::{productive, route, turn_legal};
use noc_sim::FaultRegionMap;
use noc_types::config::{NocConfig, RoutingAlgorithm};
use noc_types::geometry::{Coord, Direction, Mesh, NodeId};
use nocalert::predicates::{check_arbiter_wires, vc_order_violated};
use serde::Serialize;

/// Cardinal (mesh link) directions, in index order.
const CARDINALS: [Direction; 4] = [
    Direction::North,
    Direction::East,
    Direction::South,
    Direction::West,
];

/// Outcome of exhaustively enumerating one cone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ConeProof {
    /// Cone name (`arbiter`, `routing-xy`, ...).
    pub cone: String,
    /// Inputs enumerated.
    pub cases: u64,
    /// Inputs violating the property (0 ⇒ proved).
    pub violations: u64,
}

fn violation(code: &'static str, msg: String) -> Diagnostic {
    Diagnostic::new(Pass::Prove, code, Severity::Error, msg)
}

/// Proves the arbiter grants silent under invariances 4/5/6 for every
/// reachable `(width, pointer, request)` input.
///
/// Widths cover everything the router instantiates: the per-port VC
/// arbiters (`vcs_per_port` wide) and the 5-port global arbiters, plus
/// the full supported range 1..=8 for robustness against config sweeps.
pub fn prove_arbiter(cfg: &NocConfig, diags: &mut Vec<Diagnostic>) -> ConeProof {
    let mut widths: Vec<u8> = (1..=8).collect();
    for w in [cfg.vcs_per_port, Direction::COUNT as u8] {
        if !widths.contains(&w) {
            widths.push(w);
        }
    }
    let mut cases = 0u64;
    let mut violations = 0u64;
    for &w in &widths {
        for ptr in 0..w {
            // Reach pointer state `ptr`: granting bit (ptr-1) mod w parks
            // the rotating priority exactly there.
            let mut arb = RoundRobin::new(w);
            if ptr != 0 {
                arb.arbitrate(1u64 << (ptr - 1));
            }
            for req in 0..(1u64 << w) {
                cases += 1;
                let grant = arb.peek(req);
                let check = check_arbiter_wires(req, grant);
                if !check.silent() {
                    violations += 1;
                    if violations <= 5 {
                        diags.push(violation(
                            "NL201",
                            format!(
                                "arbiter width {w} pointer {ptr} req {req:#b} grants \
                                 {grant:#b}: {check:?}"
                            ),
                        ));
                    }
                }
            }
        }
    }
    ConeProof {
        cone: "arbiter".into(),
        cases,
        violations,
    }
}

/// Proves every fault-free route silent under invariances 1/2/3 and
/// delivered in exactly the Manhattan distance, for one algorithm.
pub fn prove_routing(
    cfg: &NocConfig,
    alg: RoutingAlgorithm,
    diags: &mut Vec<Diagnostic>,
) -> ConeProof {
    let mesh = cfg.mesh;
    let (w, h) = (mesh.width(), mesh.height());
    let mut cases = 0u64;
    let mut violations = 0u64;
    let mut fail = |code, msg: String| {
        violations += 1;
        if violations <= 5 {
            diags.push(violation(code, msg));
        }
    };
    for sx in 0..w {
        for sy in 0..h {
            for dx in 0..w {
                for dy in 0..h {
                    let dest = Coord::new(dx, dy);
                    let mut cur = Coord::new(sx, sy);
                    let mut in_port = Direction::Local;
                    let mut hops = 0u8;
                    loop {
                        cases += 1;
                        let out = route(alg, cur, dest);
                        // Invariance 2: the encoding names a live port.
                        if Direction::from_bits(out.index() as u64) != Some(out)
                            || !mesh.port_live(mesh.node(cur), out)
                        {
                            fail(
                                "NL211",
                                format!("{alg:?}: dead/invalid RC output {out} at {cur}→{dest}"),
                            );
                            break;
                        }
                        // Invariance 1: the turn is legal for the port the
                        // flit physically arrived on.
                        if !turn_legal(alg, in_port, out) {
                            fail(
                                "NL212",
                                format!("{alg:?}: illegal turn {in_port}→{out} at {cur}→{dest}"),
                            );
                        }
                        // Invariance 3: minimal progress.
                        if !productive(mesh, cur, dest, out) {
                            fail(
                                "NL213",
                                format!("{alg:?}: unproductive hop {out} at {cur}→{dest}"),
                            );
                            break;
                        }
                        if out == Direction::Local {
                            break;
                        }
                        match cur.step(out, w, h) {
                            Some(next) => cur = next,
                            None => {
                                fail("NL211", format!("{alg:?}: walked off-mesh at {cur}"));
                                break;
                            }
                        }
                        in_port = out.opposite();
                        hops += 1;
                        if hops > w + h {
                            fail(
                                "NL214",
                                format!("{alg:?}: {sx},{sy}→{dx},{dy} did not converge"),
                            );
                            break;
                        }
                    }
                    if hops != Coord::new(sx, sy).manhattan(dest) as u8 {
                        fail(
                            "NL214",
                            format!("{alg:?}: {sx},{sy}→{dx},{dy} took {hops} hops (non-minimal)"),
                        );
                    }
                }
            }
        }
    }
    ConeProof {
        cone: format!("routing-{alg:?}").to_lowercase(),
        cases,
        violations,
    }
}

/// Proves invariance 17 *equivalent* to the legal-event model over the
/// full `(state, events, speculative)` input space: silent on every legal
/// combination, firing on every illegal one.
pub fn prove_vc_state(diags: &mut Vec<Diagnostic>) -> ConeProof {
    let mut cases = 0u64;
    let mut violations = 0u64;
    for speculative in [false, true] {
        for state in 0u64..4 {
            for evs in 0u8..8 {
                cases += 1;
                let (rc, va, sa) = (evs & 1 != 0, evs & 2 != 0, evs & 4 != 0);
                // The microarchitectural event model: RC completes only
                // from ROUTING(1), VA only from VA_PENDING(2), a switch
                // grant lands only on ACTIVE(3) — or VA_PENDING under the
                // speculative pipeline of Section 4.4.
                let legal = (!rc || state == 1)
                    && (!va || state == 2)
                    && (!sa || state == 3 || (speculative && state == 2));
                let fires = vc_order_violated(state, rc, va, sa, speculative);
                if fires == legal {
                    violations += 1;
                    diags.push(violation(
                        "NL221",
                        format!(
                            "inv17 {} on state={state} rc={rc} va={va} sa={sa} \
                             speculative={speculative}",
                            if fires {
                                "fires on a legal input"
                            } else {
                                "misses an illegal input"
                            }
                        ),
                    ));
                }
            }
        }
    }
    ConeProof {
        cone: "vc-state".into(),
        cases,
        violations,
    }
}

/// One damage script of the fault-region prover's scenario universe.
struct RegionScenario {
    label: String,
    dead: Vec<(NodeId, Direction)>,
    faulty: Vec<NodeId>,
}

/// The region-set universe proved over `mesh`: the healthy mesh, every
/// single dead link, every single faulty router, every 2×2 and 3×3 block
/// region, a stride-sampled set of faulty-router pairs (whose rectangles
/// merge or coexist), every full column/row cut (true partitions), and a
/// diagonal staircase (8-neighbourhood merging).
fn region_universe(mesh: Mesh) -> Vec<RegionScenario> {
    let (w, h) = (mesh.width(), mesh.height());
    let mut out = vec![RegionScenario {
        label: "healthy".into(),
        dead: Vec::new(),
        faulty: Vec::new(),
    }];
    for node in mesh.nodes() {
        for d in [Direction::East, Direction::North] {
            if mesh.neighbor(node, d).is_some() {
                out.push(RegionScenario {
                    label: format!("dead-link n{} {d}", node.0),
                    dead: vec![(node, d)],
                    faulty: Vec::new(),
                });
            }
        }
    }
    for node in mesh.nodes() {
        out.push(RegionScenario {
            label: format!("faulty n{}", node.0),
            dead: Vec::new(),
            faulty: vec![node],
        });
    }
    for s in [2u8, 3] {
        for x in 0..w.saturating_sub(s - 1) {
            for y in 0..h.saturating_sub(s - 1) {
                let mut faulty = Vec::new();
                for bx in x..x + s {
                    for by in y..y + s {
                        faulty.push(mesh.node(Coord::new(bx, by)));
                    }
                }
                out.push(RegionScenario {
                    label: format!("{s}x{s} block at {x},{y}"),
                    dead: Vec::new(),
                    faulty,
                });
            }
        }
    }
    let n = mesh.len() as u16;
    for i in (0..n).step_by(5) {
        for j in (0..n).step_by(7) {
            if j > i {
                out.push(RegionScenario {
                    label: format!("faulty pair n{i} n{j}"),
                    dead: Vec::new(),
                    faulty: vec![NodeId(i), NodeId(j)],
                });
            }
        }
    }
    for x in 0..w.saturating_sub(1) {
        out.push(RegionScenario {
            label: format!("column cut after x={x}"),
            dead: (0..h)
                .map(|y| (mesh.node(Coord::new(x, y)), Direction::East))
                .collect(),
            faulty: Vec::new(),
        });
    }
    for y in 0..h.saturating_sub(1) {
        out.push(RegionScenario {
            label: format!("row cut after y={y}"),
            dead: (0..w)
                .map(|x| (mesh.node(Coord::new(x, y)), Direction::North))
                .collect(),
            faulty: Vec::new(),
        });
    }
    if w >= 5 && h >= 5 {
        out.push(RegionScenario {
            label: "staircase".into(),
            dead: Vec::new(),
            faulty: (1..4).map(|i| mesh.node(Coord::new(i, i))).collect(),
        });
    }
    out
}

/// Independent live-component census (BFS the prover owns, not the map's):
/// returns per-node component ids (`u32::MAX` for absorbed routers) and
/// the component count.
fn census(map: &FaultRegionMap, mesh: Mesh) -> (Vec<u32>, u32) {
    let n = mesh.len();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue: Vec<NodeId> = Vec::new();
    for root in mesh.nodes() {
        if map.absorbed(root) || comp[root.index()] != u32::MAX {
            continue;
        }
        comp[root.index()] = count;
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for d in CARDINALS {
                let Some(nb) = mesh.neighbor(cur, d) else {
                    continue;
                };
                if map.absorbed(nb) || map.link_dead(cur, d) || comp[nb.index()] != u32::MAX {
                    continue;
                }
                comp[nb.index()] = count;
                queue.push(nb);
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Mechanically re-verifies deadlock freedom for one region set: builds
/// the channel-dependency graph a turn-obeying packet could exercise (one
/// channel per live directed link; an edge per consecutive hop pair that
/// is neither a u-turn nor the forbidden down→up transition) and checks
/// it acyclic by DFS.
fn cdg_acyclic(map: &FaultRegionMap, mesh: Mesh) -> bool {
    let n = mesh.len();
    let live = |y: NodeId, d: Direction| {
        mesh.neighbor(y, d)
            .is_some_and(|x| !map.absorbed(y) && !map.absorbed(x) && !map.link_dead(y, d))
    };
    let chan = |y: NodeId, d: Direction| y.index() * 4 + d.index();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n * 4];
    for y in mesh.nodes() {
        for d in CARDINALS {
            if !live(y, d) {
                continue;
            }
            let Some(x) = mesh.neighbor(y, d) else {
                continue;
            };
            let first_down = map.rank_of(x).unwrap_or(0) > map.rank_of(y).unwrap_or(0);
            for e in CARDINALS {
                if e == d.opposite() || !live(x, e) {
                    continue;
                }
                let Some(z) = mesh.neighbor(x, e) else {
                    continue;
                };
                let second_down = map.rank_of(z).unwrap_or(0) > map.rank_of(x).unwrap_or(0);
                if first_down && !second_down {
                    continue; // the forbidden down→up transition
                }
                adj[chan(y, d)].push(chan(x, e));
            }
        }
    }
    // Iterative three-colour DFS over the channel graph.
    let mut colour = vec![0u8; n * 4]; // 0 white, 1 grey, 2 black
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n * 4 {
        if colour[start] != 0 {
            continue;
        }
        colour[start] = 1;
        stack.push((start, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let u = adj[v][*next];
                *next += 1;
                match colour[u] {
                    0 => {
                        colour[u] = 1;
                        stack.push((u, 0));
                    }
                    1 => return false, // grey → back edge → cycle
                    _ => {}
                }
            } else {
                colour[v] = 2;
                stack.pop();
            }
        }
    }
    true
}

/// Proves the fault-region routing tables deadlock-free, live and
/// productive for every `(source, destination, region set)` of the
/// scenario universe on `cfg.mesh`:
///
/// * **NL215** — a table walk breaks the turn discipline, crosses a dead
///   link or region, fails to make strict distance progress, or fails to
///   arrive.
/// * **NL216** — the channel-dependency graph of a region set has a cycle
///   (deadlock possible), or a table walk takes the forbidden down→up
///   transition.
/// * **NL217** — partition misclassification: the map's partition flag or
///   reachability disagrees with an independent component census, or a
///   cross-partition pair still has a route (it must get the sentinel and
///   be reported `Partitioned`, never hang).
pub fn prove_fault_region(cfg: &NocConfig, diags: &mut Vec<Diagnostic>) -> ConeProof {
    let mesh = cfg.mesh;
    let mut cases = 0u64;
    let mut violations = 0u64;
    let mut fail = |code, msg: String| {
        violations += 1;
        if violations <= 5 {
            diags.push(violation(code, msg));
        }
    };
    for sc in region_universe(mesh) {
        let mut map = FaultRegionMap::new(mesh);
        for &(node, d) in &sc.dead {
            map.kill_link(node, d);
        }
        for &node in &sc.faulty {
            map.mark_router_faulty(node);
        }
        map.rebuild();
        let (comp, ncomp) = census(&map, mesh);
        cases += 1;
        if (ncomp > 1) != map.partitioned() {
            fail(
                "NL217",
                format!(
                    "{}: {ncomp} live components but partitioned() = {}",
                    sc.label,
                    map.partitioned()
                ),
            );
            continue;
        }
        cases += 1;
        if !cdg_acyclic(&map, mesh) {
            fail(
                "NL216",
                format!("{}: channel dependency graph has a cycle", sc.label),
            );
            continue;
        }
        if !map.engaged() {
            // A damage-free map installs no tables; the routers fall back
            // to the XY baseline, whose liveness/minimality NL211–NL214
            // prove. Here the delegation contract is pinned: no table
            // route exists and the static `route` arm equals XY.
            for src in mesh.nodes() {
                for dest in mesh.nodes() {
                    cases += 1;
                    if map.next_hop(src, dest, false).is_some() {
                        fail(
                            "NL215",
                            format!("{}: disengaged map serves a table route", sc.label),
                        );
                    }
                    let (s, t) = (mesh.coord(src), mesh.coord(dest));
                    if route(RoutingAlgorithm::FaultRegion, s, t)
                        != route(RoutingAlgorithm::XY, s, t)
                    {
                        fail(
                            "NL215",
                            format!("{}: XY delegation broken at {s}→{t}", sc.label),
                        );
                    }
                }
            }
            continue;
        }
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                if map.absorbed(src) || map.absorbed(dest) {
                    continue;
                }
                cases += 1;
                let connected = comp[src.index()] == comp[dest.index()];
                if map.reachable(src, dest) != connected {
                    fail(
                        "NL217",
                        format!(
                            "{}: reachable(n{}, n{}) disagrees with the census",
                            sc.label, src.0, dest.0
                        ),
                    );
                    continue;
                }
                if !connected {
                    if map.next_hop(src, dest, false).is_some() {
                        fail(
                            "NL217",
                            format!(
                                "{}: cross-partition pair n{}→n{} has a route",
                                sc.label, src.0, dest.0
                            ),
                        );
                    }
                    continue;
                }
                let mut cur = src;
                let mut committed = false;
                let mut in_port = Direction::Local;
                let mut hops = 0usize;
                let Some(mut dist) = map.distance(cur, dest, committed) else {
                    fail(
                        "NL215",
                        format!(
                            "{}: reachable n{}→n{} has no distance",
                            sc.label, src.0, dest.0
                        ),
                    );
                    continue;
                };
                loop {
                    let Some(out) = map.next_hop(cur, dest, committed) else {
                        fail(
                            "NL215",
                            format!(
                                "{}: n{}→n{} lost its route at n{}",
                                sc.label, src.0, dest.0, cur.0
                            ),
                        );
                        break;
                    };
                    if out == Direction::Local {
                        if cur != dest {
                            fail(
                                "NL215",
                                format!(
                                    "{}: n{}→n{} ejected short at n{}",
                                    sc.label, src.0, dest.0, cur.0
                                ),
                            );
                        }
                        break;
                    }
                    if !turn_legal(RoutingAlgorithm::FaultRegion, in_port, out) {
                        fail(
                            "NL215",
                            format!("{}: illegal turn {in_port}→{out} at n{}", sc.label, cur.0),
                        );
                        break;
                    }
                    if map.link_dead(cur, out) {
                        fail(
                            "NL215",
                            format!("{}: route over dead link at n{}", sc.label, cur.0),
                        );
                        break;
                    }
                    let Some(next) = mesh.neighbor(cur, out) else {
                        fail(
                            "NL215",
                            format!("{}: walked off-mesh at n{}", sc.label, cur.0),
                        );
                        break;
                    };
                    if map.absorbed(next) {
                        fail(
                            "NL215",
                            format!("{}: routed into a region at n{}", sc.label, cur.0),
                        );
                        break;
                    }
                    let down = map.rank_of(next).unwrap_or(0) > map.rank_of(cur).unwrap_or(0);
                    if committed && !down {
                        fail(
                            "NL216",
                            format!(
                                "{}: down→up transition at n{} toward n{}",
                                sc.label, cur.0, dest.0
                            ),
                        );
                        break;
                    }
                    committed = committed || down;
                    let Some(ndist) = map.distance(next, dest, committed) else {
                        fail(
                            "NL215",
                            format!("{}: route dies at n{} toward n{}", sc.label, next.0, dest.0),
                        );
                        break;
                    };
                    if ndist + 1 != dist {
                        fail(
                            "NL215",
                            format!(
                                "{}: unproductive hop at n{} toward n{} ({dist}→{ndist})",
                                sc.label, cur.0, dest.0
                            ),
                        );
                        break;
                    }
                    dist = ndist;
                    in_port = out.opposite();
                    cur = next;
                    hops += 1;
                    if hops > 4 * mesh.len() {
                        fail(
                            "NL215",
                            format!("{}: n{}→n{} did not converge", sc.label, src.0, dest.0),
                        );
                        break;
                    }
                }
            }
        }
    }
    ConeProof {
        cone: format!("routing-{:?}", RoutingAlgorithm::FaultRegion).to_lowercase(),
        cases,
        violations,
    }
}

/// NL218 — every [`RoutingAlgorithm`] variant must have a prover cone
/// (`routing-<alg>`); an uncovered variant means a routing function could
/// ship without any deadlock/liveness proof.
pub fn check_prover_coverage(proofs: &[ConeProof], diags: &mut Vec<Diagnostic>) {
    for alg in RoutingAlgorithm::ALL {
        let cone = format!("routing-{alg:?}").to_lowercase();
        if !proofs.iter().any(|p| p.cone == cone) {
            diags.push(violation(
                "NL218",
                format!("routing algorithm {alg:?} has no prover cone ({cone})"),
            ));
        }
    }
}

/// Runs all provers for one configuration (every routing algorithm is
/// proved regardless of which one `cfg` selects), then cross-checks that
/// no `RoutingAlgorithm` variant escaped prover coverage (NL218).
///
/// The cones are independent, so they fan out across up to `jobs` worker
/// threads; results are merged in cone order, making the diagnostics —
/// and therefore the whole report — byte-identical for every `jobs`
/// value. A worker that produces no result (NL290) still surfaces as a
/// hard error rather than a silently missing proof.
pub fn prove_all(cfg: &NocConfig, jobs: usize) -> (Vec<Diagnostic>, Vec<ConeProof>) {
    type ConeTask<'a> = Box<dyn FnOnce() -> (Vec<Diagnostic>, ConeProof) + Send + 'a>;
    fn task<'a>(f: impl FnOnce(&mut Vec<Diagnostic>) -> ConeProof + Send + 'a) -> ConeTask<'a> {
        Box::new(move || {
            let mut d = Vec::new();
            let p = f(&mut d);
            (d, p)
        })
    }
    let tasks: Vec<ConeTask> = vec![
        task(|d| prove_arbiter(cfg, d)),
        task(|d| prove_routing(cfg, RoutingAlgorithm::XY, d)),
        task(|d| prove_routing(cfg, RoutingAlgorithm::WestFirst, d)),
        task(|d| prove_fault_region(cfg, d)),
        task(prove_vc_state),
    ];
    let mut diags = Vec::new();
    let mut proofs = Vec::new();
    for (i, slot) in crate::exec::run_tasks(jobs, tasks).into_iter().enumerate() {
        match slot {
            Some((d, p)) => {
                diags.extend(d);
                proofs.push(p);
            }
            None => diags.push(violation(
                "NL290",
                format!("internal: prover cone task #{i} produced no result"),
            )),
        }
    }
    check_prover_coverage(&proofs, &mut diags);
    (diags, proofs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cones_prove_clean_on_baseline() {
        let cfg = NocConfig::paper_baseline();
        let (diags, proofs) = prove_all(&cfg, 1);
        assert!(diags.is_empty(), "{diags:#?}");
        for p in &proofs {
            assert_eq!(p.violations, 0, "{p:?}");
            assert!(p.cases > 0, "{p:?}");
        }
    }

    #[test]
    fn prove_all_is_jobs_invariant() {
        let cfg = NocConfig::small_test();
        let (d1, p1) = prove_all(&cfg, 1);
        for jobs in [2, 8] {
            let (dj, pj) = prove_all(&cfg, jobs);
            assert_eq!(dj, d1);
            assert_eq!(pj, p1);
        }
    }

    #[test]
    fn arbiter_cone_counts_full_input_space() {
        let cfg = NocConfig::paper_baseline();
        let mut diags = Vec::new();
        let p = prove_arbiter(&cfg, &mut diags);
        // Widths 1..=8 (4 and 5 already included): sum w·2^w.
        let expect: u64 = (1..=8u32).map(|w| w as u64 * (1u64 << w)).sum();
        assert_eq!(p.cases, expect);
        assert!(diags.is_empty());
    }

    #[test]
    fn vc_state_cone_is_an_equivalence_proof() {
        let mut diags = Vec::new();
        let p = prove_vc_state(&mut diags);
        assert_eq!(p.cases, 64);
        assert_eq!(p.violations, 0, "{diags:#?}");
    }

    #[test]
    fn routing_cone_walks_every_pair() {
        let cfg = NocConfig::small_test();
        let mut diags = Vec::new();
        let p = prove_routing(&cfg, RoutingAlgorithm::XY, &mut diags);
        // ≥ one case per (src, dest) pair, including src == dest ejections.
        assert!(p.cases >= 16 * 16, "{}", p.cases);
        assert_eq!(p.violations, 0);
    }

    #[test]
    fn fault_region_cone_proves_clean_on_the_small_mesh() {
        let cfg = NocConfig::small_test();
        let mut diags = Vec::new();
        let p = prove_fault_region(&cfg, &mut diags);
        assert_eq!(p.violations, 0, "{diags:#?}");
        assert_eq!(p.cone, "routing-faultregion");
        // The universe holds the healthy mesh, every single dead link and
        // faulty router, block regions and cuts — far more walks than one
        // all-pairs sweep.
        assert!(p.cases > 16 * 16 * 10, "{}", p.cases);
    }

    #[test]
    fn region_universe_includes_partitioning_cuts() {
        let mesh = NocConfig::small_test().mesh;
        let universe = region_universe(mesh);
        let cuts = universe.iter().filter(|s| s.label.contains("cut")).count();
        assert_eq!(cuts, 6, "3 column + 3 row cuts on 4x4");
        // And the cuts really partition: the census on a rebuilt map
        // reports more than one component.
        let cut = universe
            .iter()
            .find(|s| s.label.contains("column cut"))
            .expect("cut scenario");
        let mut map = FaultRegionMap::new(mesh);
        for &(node, d) in &cut.dead {
            map.kill_link(node, d);
        }
        map.rebuild();
        let (_, ncomp) = census(&map, mesh);
        assert!(ncomp > 1);
        assert!(map.partitioned());
    }

    #[test]
    fn prover_coverage_flags_missing_algorithms() {
        let mut diags = Vec::new();
        check_prover_coverage(&[], &mut diags);
        assert_eq!(diags.len(), RoutingAlgorithm::ALL.len());
        assert!(diags.iter().all(|d| d.code == "NL218"));
        // A full prove_all leaves no NL218 behind.
        let (diags, proofs) = prove_all(&NocConfig::small_test(), 2);
        assert!(diags.iter().all(|d| d.code != "NL218"), "{diags:#?}");
        assert_eq!(proofs.len(), 5);
    }
}
