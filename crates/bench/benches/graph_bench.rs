//! Microbenchmarks for the graph substrate: dominators (Lemma 3's engine:
//! the set-based oracle, the dominator-tree index, and DDAG planning on
//! top of it), reachability, topological sort, and forest operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slp_core::EntityId;
use slp_graph::{dag, dominators, reach, rooted, DomIndex, Forest};
use slp_policies::{DdagEngine, PolicyKind};
use slp_sim::{dag_access_jobs, layered_dag, planner_for};
use std::hint::black_box;

fn bench_dominators(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominator_sets");
    for (layers, width) in [(3usize, 4usize), (5, 6), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(dominators::dominator_sets(&d.graph, d.root)));
        });
    }
    group.finish();
    // What `DdagEngine` pays per structural mutation in place of the
    // per-job `dominator_sets` above.
    let mut group = c.benchmark_group("dom_index_build");
    for (layers, width) in [(3usize, 4usize), (5, 6), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(DomIndex::build(&d.graph)));
        });
    }
    group.finish();
}

/// One iteration plans 64 two-target traversals against an unchanging
/// engine with one planner, as a runtime worker does between mutations.
fn bench_ddag_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddag_plan");
    for (layers, width) in [(3usize, 4usize), (5, 6), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        let jobs = dag_access_jobs(&d, 64, 2, 7);
        let engine = DdagEngine::new(d.universe.clone(), d.graph.clone());
        let mut planner = planner_for(PolicyKind::Ddag);
        group.bench_with_input(BenchmarkId::new("64jobs", nodes), &nodes, |b, _| {
            b.iter(|| {
                for job in &jobs {
                    black_box(planner.plan(&engine, job).expect("targets are nodes"));
                }
            });
        });
    }
    group.finish();
}

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability");
    for (layers, width) in [(5usize, 6usize), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        group.bench_with_input(BenchmarkId::new("descendants", nodes), &nodes, |b, _| {
            b.iter(|| black_box(reach::descendants(&d.graph, d.root)));
        });
        let leaf = *d.nodes.last().unwrap().last().unwrap();
        group.bench_with_input(BenchmarkId::new("ancestors", nodes), &nodes, |b, _| {
            b.iter(|| black_box(reach::ancestors(&d.graph, leaf)));
        });
    }
    group.finish();
}

fn bench_topo_and_rooted(c: &mut Criterion) {
    let d = layered_dag(6, 8, 3, 7);
    c.bench_function("topological_sort", |b| {
        b.iter(|| black_box(dag::topological_sort(&d.graph)));
    });
    c.bench_function("rootedness_check", |b| {
        b.iter(|| black_box(rooted::is_rooted(&d.graph)));
    });
}

fn bench_forest_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.bench_function("grow_join_query_256", |b| {
        b.iter(|| {
            let mut f = Forest::new();
            for i in 0..256u32 {
                f.add_root(EntityId(i)).unwrap();
            }
            for i in 1..256u32 {
                f.join(EntityId(0), EntityId(i)).unwrap();
            }
            let mut depth = 0;
            for i in 0..256u32 {
                depth += f.path_from_root(EntityId(i)).map_or(0, |p| p.len());
            }
            black_box(depth)
        });
    });
    // LCA on a deep chain.
    let mut chain = Forest::new();
    chain.add_root(EntityId(0)).unwrap();
    for i in 1..512u32 {
        chain.add_child(EntityId(i - 1), EntityId(i)).unwrap();
    }
    group.bench_function("lca_deep_chain", |b| {
        b.iter(|| black_box(chain.lca(EntityId(500), EntityId(255))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dominators,
    bench_ddag_plan,
    bench_reachability,
    bench_topo_and_rooted,
    bench_forest_ops
);
criterion_main!(benches);
