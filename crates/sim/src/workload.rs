//! Workload generators (the synthetic stand-ins for the knowledge-base
//! workloads of the paper's motivating applications — see DESIGN.md §5).
//!
//! All generators are seeded and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp_core::{EntityId, Universe};
use slp_graph::DiGraph;
use slp_policies::Job;

/// A layered rooted DAG: one root, `layers` layers of `width` nodes, each
/// non-root node with 1..=`max_parents` parents drawn from the previous
/// layer. This is the synthetic part–subpart object graph used by the DDAG
/// experiments.
pub struct LayeredDag {
    /// Entity names for all nodes.
    pub universe: Universe,
    /// The graph.
    pub graph: DiGraph,
    /// The root node.
    pub root: EntityId,
    /// All nodes by layer (`nodes[0] = [root]`).
    pub nodes: Vec<Vec<EntityId>>,
}

/// Builds a layered rooted DAG.
pub fn layered_dag(layers: usize, width: usize, max_parents: usize, seed: u64) -> LayeredDag {
    assert!(layers >= 1 && width >= 1 && max_parents >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut universe = Universe::new();
    let mut graph = DiGraph::new();
    let root = universe.entity("root");
    graph.add_node(root).expect("fresh");
    let mut nodes = vec![vec![root]];
    for layer in 1..layers {
        let mut this_layer = Vec::with_capacity(width);
        for i in 0..width {
            let n = universe.entity(&format!("n{layer}_{i}"));
            graph.add_node(n).expect("fresh");
            let prev = &nodes[layer - 1];
            let parents = rng.random_range(1..=max_parents.min(prev.len()));
            let mut chosen: Vec<usize> = (0..prev.len()).collect();
            for _ in 0..(prev.len() - parents) {
                chosen.swap_remove(rng.random_range(0..chosen.len()));
            }
            for pi in chosen {
                graph
                    .add_edge(prev[pi], n)
                    .expect("layer edges are acyclic");
            }
            this_layer.push(n);
        }
        nodes.push(this_layer);
    }
    LayeredDag {
        universe,
        graph,
        root,
        nodes,
    }
}

/// Jobs over a flat entity pool: each accesses `per_job` distinct random
/// entities (in random order — so lock-order deadlocks can occur under
/// policies that lock on demand).
pub fn uniform_jobs(pool: &[EntityId], count: usize, per_job: usize, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let k = per_job.min(pool.len());
            let mut remaining: Vec<EntityId> = pool.to_vec();
            let mut targets = Vec::with_capacity(k);
            for _ in 0..k {
                let i = rng.random_range(0..remaining.len());
                targets.push(remaining.swap_remove(i));
            }
            Job::access(targets)
        })
        .collect()
}

/// Jobs mixing one long transaction over a large span with short ones —
/// the altruistic-locking scenario \[SGMS94\]: the long transaction scans
/// `long_len` entities in id order; short jobs touch `short_len` random
/// entities.
pub fn long_short_jobs(
    pool: &[EntityId],
    long_len: usize,
    short_count: usize,
    short_len: usize,
    seed: u64,
) -> Vec<Job> {
    let mut jobs = vec![Job::access(pool[..long_len.min(pool.len())].to_vec())];
    jobs.extend(uniform_jobs(pool, short_count, short_len, seed));
    jobs
}

/// DAG traversal jobs: each accesses `targets_per_job` random nodes (the
/// DDAG adapter closes them into a dominator region).
pub fn dag_access_jobs(
    dag: &LayeredDag,
    count: usize,
    targets_per_job: usize,
    seed: u64,
) -> Vec<Job> {
    let all: Vec<EntityId> = dag.nodes.iter().flatten().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let k = targets_per_job.min(all.len());
            let mut remaining = all.clone();
            let mut targets = Vec::with_capacity(k);
            for _ in 0..k {
                let i = rng.random_range(0..remaining.len());
                targets.push(remaining.swap_remove(i));
            }
            Job::access(targets)
        })
        .collect()
}

/// A mix of DAG traversals and node insertions (the *dynamic* part of the
/// DDAG workload): with probability `insert_prob` a job inserts a fresh
/// node under a random existing node. Fresh node names are interned
/// through `intern` (the DDAG adapter's universe).
pub fn dag_mixed_jobs(
    dag: &LayeredDag,
    count: usize,
    targets_per_job: usize,
    insert_prob: f64,
    intern: &mut dyn FnMut(&str) -> EntityId,
    seed: u64,
) -> Vec<Job> {
    let all: Vec<EntityId> = dag.nodes.iter().flatten().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = 0usize;
    (0..count)
        .map(|_| {
            if rng.random_bool(insert_prob) {
                let parent = all[rng.random_range(0..all.len())];
                fresh += 1;
                let node = intern(&format!("fresh_{fresh}"));
                Job::insert(parent, node)
            } else {
                let k = targets_per_job.min(all.len());
                let mut remaining = all.clone();
                let mut targets = Vec::with_capacity(k);
                for _ in 0..k {
                    let i = rng.random_range(0..remaining.len());
                    targets.push(remaining.swap_remove(i));
                }
                Job::access(targets)
            }
        })
        .collect()
}

/// Large-contention jobs over a flat pool: each target is drawn from the
/// first `hot` entities of `pool` with probability `hot_prob`, else
/// uniformly from the whole pool. With a small hot set and high
/// `hot_prob`, most jobs collide on the hot entities — the E9-style
/// "many transactions, few hot objects" regime that stresses lock queues,
/// wakes, and abort/restart paths. `pool`'s entities must be distinct.
pub fn hot_cold_jobs(
    pool: &[EntityId],
    count: usize,
    per_job: usize,
    hot: usize,
    hot_prob: f64,
    seed: u64,
) -> Vec<Job> {
    assert!(hot >= 1 && hot <= pool.len(), "hot set must be within pool");
    let mut rng = StdRng::seed_from_u64(seed);
    let k = per_job.min(pool.len());
    let mut taken = Vec::with_capacity(k);
    (0..count)
        .map(|_| {
            Job::access(hot_biased_targets(
                &mut rng, pool, k, hot, hot_prob, &mut taken,
            ))
        })
        .collect()
}

/// A read-heavy mix over a flat pool: with probability `read_prob`
/// (≈0.95 for the canonical 95/5 split) a job is **read-only** over
/// hot-set-biased targets, otherwise it is an ordinary writer job with
/// the same bias. Read targets come from the initial pool, which flat
/// workloads never delete, so snapshot reads stay proper; a runtime with
/// MVCC snapshot reads enabled serves the read-only jobs without touching
/// the lock service, while everywhere else they run as locked accesses —
/// the same job list thus benchmarks both read paths. `pool`'s entities
/// must be distinct.
pub fn read_heavy_jobs(
    pool: &[EntityId],
    count: usize,
    per_job: usize,
    hot: usize,
    read_prob: f64,
    seed: u64,
) -> Vec<Job> {
    assert!(hot >= 1 && hot <= pool.len(), "hot set must be within pool");
    let mut rng = StdRng::seed_from_u64(seed);
    let k = per_job.min(pool.len());
    let mut taken = Vec::with_capacity(k);
    (0..count)
        .map(|_| {
            let read_only = rng.random_bool(read_prob);
            let targets = hot_biased_targets(&mut rng, pool, k, hot, 0.9, &mut taken);
            if read_only {
                Job::read(targets)
            } else {
                Job::access(targets)
            }
        })
        .collect()
}

/// `k` distinct targets from `pool`: each drawn from the first `hot`
/// entries with probability `hot_prob`, else from the whole pool, and
/// from the whole pool whenever the hot set is used up. `taken` is the
/// caller's scratch buffer for the picked pool indices, reused across
/// jobs so the draw allocates nothing but the targets themselves.
fn hot_biased_targets(
    rng: &mut StdRng,
    pool: &[EntityId],
    k: usize,
    hot: usize,
    hot_prob: f64,
    taken: &mut Vec<usize>,
) -> Vec<EntityId> {
    taken.clear();
    (0..k)
        .map(|_| {
            let span = if rng.random_bool(hot_prob) {
                hot
            } else {
                pool.len()
            };
            pool[draw_untaken(rng, span, pool.len(), taken)]
        })
        .collect()
}

/// Draws an index of `0..span` not in `taken` (sorted ascending) — of
/// `0..len` if `span` has none left — and inserts it into `taken`. The
/// pick is the `r`-th untaken index for `r = random_range(0..untaken)`:
/// the same RNG call and the same entity as indexing a filtered copy of
/// the span (the tests' oracle), so a seed's jobs do not depend on which
/// of the two draws made them.
fn draw_untaken(rng: &mut StdRng, span: usize, len: usize, taken: &mut Vec<usize>) -> usize {
    let mut span = span;
    let mut used = taken.partition_point(|&i| i < span);
    if used == span {
        span = len;
        used = taken.len();
    }
    let mut pick = rng.random_range(0..span - used);
    for &t in taken.iter() {
        if t > pick {
            break;
        }
        pick += 1;
    }
    let at = taken.partition_point(|&i| i < pick);
    taken.insert(at, pick);
    pick
}

/// Deep-traversal DAG jobs: every target is drawn from the *deepest* layer
/// of the DAG, so the DDAG planner's dominator closure pulls in long
/// predecessor chains back to the common dominator — the traversals lock
/// large, heavily overlapping regions (the large-contention counterpart of
/// [`dag_access_jobs`]).
pub fn deep_dag_jobs(
    dag: &LayeredDag,
    count: usize,
    targets_per_job: usize,
    seed: u64,
) -> Vec<Job> {
    let deepest: &[EntityId] = dag.nodes.last().expect("at least the root layer");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let k = targets_per_job.min(deepest.len());
            let mut remaining: Vec<EntityId> = deepest.to_vec();
            let mut targets = Vec::with_capacity(k);
            for _ in 0..k {
                let i = rng.random_range(0..remaining.len());
                targets.push(remaining.swap_remove(i));
            }
            Job::access(targets)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_graph::{dag, rooted};

    #[test]
    fn layered_dag_is_rooted_and_acyclic() {
        for seed in 0..5 {
            let d = layered_dag(4, 3, 2, seed);
            assert!(dag::is_acyclic(&d.graph));
            assert_eq!(rooted::root(&d.graph), Some(d.root));
            assert_eq!(d.graph.node_count(), 1 + 3 * 3);
        }
    }

    #[test]
    fn uniform_jobs_have_distinct_targets() {
        let pool: Vec<EntityId> = (0..10).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 20, 4, 7);
        assert_eq!(jobs.len(), 20);
        for j in &jobs {
            let mut t = j.targets.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 4, "targets must be distinct");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let pool: Vec<EntityId> = (0..10).map(EntityId).collect();
        assert_eq!(uniform_jobs(&pool, 5, 3, 42), uniform_jobs(&pool, 5, 3, 42));
        let a = layered_dag(3, 3, 2, 9);
        let b = layered_dag(3, 3, 2, 9);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn long_short_shape() {
        let pool: Vec<EntityId> = (0..20).map(EntityId).collect();
        let jobs = long_short_jobs(&pool, 10, 5, 2, 1);
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].targets.len(), 10);
        assert!(jobs[1..].iter().all(|j| j.targets.len() == 2));
    }

    #[test]
    fn hot_cold_jobs_concentrate_on_the_hot_set() {
        let pool: Vec<EntityId> = (0..64).map(EntityId).collect();
        let jobs = hot_cold_jobs(&pool, 100, 3, 4, 0.9, 11);
        assert_eq!(jobs.len(), 100);
        let mut hot_touches = 0usize;
        let mut total = 0usize;
        for j in &jobs {
            let mut t = j.targets.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 3, "targets must be distinct");
            total += j.targets.len();
            hot_touches += j.targets.iter().filter(|e| e.0 < 4).count();
        }
        assert!(
            hot_touches * 2 > total,
            "most touches must land on the hot set ({hot_touches}/{total})"
        );
        // Determinism.
        assert_eq!(jobs, hot_cold_jobs(&pool, 100, 3, 4, 0.9, 11));
    }

    #[test]
    fn hot_cold_jobs_survive_tiny_hot_sets() {
        // per_job > hot: the fallback draw must keep targets distinct.
        let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
        for j in hot_cold_jobs(&pool, 50, 4, 1, 1.0, 3) {
            let mut t = j.targets.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 4);
        }
    }

    #[test]
    fn read_heavy_jobs_are_mostly_reads_on_the_hot_set() {
        let pool: Vec<EntityId> = (0..64).map(EntityId).collect();
        let jobs = read_heavy_jobs(&pool, 200, 3, 4, 0.95, 13);
        assert_eq!(jobs.len(), 200);
        let reads = jobs.iter().filter(|j| j.read_only).count();
        assert!(
            reads > 160 && reads < 200,
            "95/5 split should be read-dominated but not pure ({reads}/200)"
        );
        let mut hot_touches = 0usize;
        let mut total = 0usize;
        for j in &jobs {
            let mut t = j.targets.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 3, "targets must be distinct");
            total += j.targets.len();
            hot_touches += j.targets.iter().filter(|e| e.0 < 4).count();
        }
        assert!(
            hot_touches * 2 > total,
            "hot-set bias ({hot_touches}/{total})"
        );
        assert_eq!(jobs, read_heavy_jobs(&pool, 200, 3, 4, 0.95, 13));
    }

    /// [`hot_biased_targets`] the slow way: a filtered copy of the span
    /// for every target. The oracle the allocation-free draw must match
    /// job for job.
    fn hot_biased_targets_by_filter(
        rng: &mut StdRng,
        pool: &[EntityId],
        k: usize,
        hot: usize,
        hot_prob: f64,
    ) -> Vec<EntityId> {
        let mut targets: Vec<EntityId> = Vec::with_capacity(k);
        for _ in 0..k {
            let source = if rng.random_bool(hot_prob) {
                &pool[..hot]
            } else {
                pool
            };
            let fresh: Vec<EntityId> = source
                .iter()
                .copied()
                .filter(|e| !targets.contains(e))
                .collect();
            let fresh = if fresh.is_empty() {
                pool.iter()
                    .copied()
                    .filter(|e| !targets.contains(e))
                    .collect()
            } else {
                fresh
            };
            targets.push(fresh[rng.random_range(0..fresh.len())]);
        }
        targets
    }

    /// Both flat hot-set generators give the jobs the filter-and-collect
    /// draw gave, over several seeds and shapes — including `per_job >
    /// hot`, which falls back to the whole pool once the hot set is used
    /// up, and a hot set as large as the pool.
    #[test]
    fn hot_set_generators_match_the_filtered_copy_draw() {
        let pool: Vec<EntityId> = (0..40).map(|i| EntityId(3 * i + 1)).collect();
        let shapes = [
            (4, 16, 0.5),
            (3, 4, 0.9),
            (4, 1, 1.0),
            (6, 3, 0.8),
            (5, 40, 0.3),
        ];
        for seed in [1, 42, 101, 202] {
            for (per_job, hot, p) in shapes {
                let mut rng = StdRng::seed_from_u64(seed);
                let oracle: Vec<Job> = (0..300)
                    .map(|_| {
                        Job::access(hot_biased_targets_by_filter(
                            &mut rng, &pool, per_job, hot, p,
                        ))
                    })
                    .collect();
                assert_eq!(hot_cold_jobs(&pool, 300, per_job, hot, p, seed), oracle);

                let mut rng = StdRng::seed_from_u64(seed);
                let oracle: Vec<Job> = (0..300)
                    .map(|_| {
                        let read_only = rng.random_bool(p);
                        let t = hot_biased_targets_by_filter(&mut rng, &pool, per_job, hot, 0.9);
                        if read_only {
                            Job::read(t)
                        } else {
                            Job::access(t)
                        }
                    })
                    .collect();
                assert_eq!(read_heavy_jobs(&pool, 300, per_job, hot, p, seed), oracle);
            }
        }
    }

    #[test]
    fn deep_dag_jobs_target_the_deepest_layer() {
        let d = layered_dag(5, 4, 2, 2);
        let deepest: Vec<EntityId> = d.nodes.last().unwrap().clone();
        let jobs = deep_dag_jobs(&d, 30, 2, 9);
        assert_eq!(jobs.len(), 30);
        for j in &jobs {
            assert_eq!(j.targets.len(), 2);
            for t in &j.targets {
                assert!(deepest.contains(t), "{t} not in the deepest layer");
            }
        }
        assert_eq!(jobs, deep_dag_jobs(&d, 30, 2, 9));
    }

    #[test]
    fn mixed_jobs_include_inserts() {
        let d = layered_dag(3, 3, 2, 0);
        let mut names = Vec::new();
        let mut next = 1000u32;
        let mut intern = |name: &str| {
            names.push(name.to_owned());
            next += 1;
            EntityId(next)
        };
        let jobs = dag_mixed_jobs(&d, 30, 2, 0.4, &mut intern, 5);
        let inserts = jobs.iter().filter(|j| j.insert_under.is_some()).count();
        assert!(inserts > 0 && inserts < 30);
        assert_eq!(names.len(), inserts);
    }
}
