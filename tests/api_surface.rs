//! Exercises the public API surface end to end — doubles as executable
//! usage documentation for downstream users.

use safe_locking::core::display::{render_schedule_line, render_schedule_rows, render_step};
use safe_locking::core::{
    DataOp, EntityId, InteractionGraph, LockMode, LockTable, LockedTransaction, Operation,
    Schedule, ScheduledStep, SerializationGraph, Step, StructuralState, SystemBuilder, Transaction,
    TxId, Universe,
};

#[test]
fn universe_and_entities() {
    let mut u = Universe::new();
    assert!(u.is_empty());
    let ids = u.entities(["alpha", "beta", "gamma"]);
    assert_eq!(u.len(), 3);
    assert_eq!(u.name(ids[1]), "beta");
    assert_eq!(u.iter().count(), 3);
    assert_eq!(ids[0].index(), 0);
}

#[test]
fn operation_taxonomy() {
    assert_eq!(DataOp::ALL.len(), 4);
    for d in DataOp::ALL {
        let op: Operation = d.into();
        assert_eq!(op.data(), Some(d));
        assert!(!op.is_lock() && !op.is_unlock());
        assert_eq!(op.abbrev().len(), 1);
    }
    assert_eq!(Operation::Lock(LockMode::Shared).abbrev(), "LS");
    assert!(DataOp::Read.requires_present());
    assert!(!DataOp::Insert.requires_present());
}

#[test]
fn transaction_introspection() {
    let t = LockedTransaction::new(
        TxId(5),
        vec![
            Step::lock_exclusive(EntityId(0)),
            Step::write(EntityId(0)),
            Step::unlock_exclusive(EntityId(0)),
            Step::lock_shared(EntityId(1)),
            Step::read(EntityId(1)),
            Step::unlock_shared(EntityId(1)),
        ],
    );
    assert_eq!(t.len(), 6);
    assert_eq!(t.lock_positions(), vec![0, 3]);
    assert_eq!(t.locked_entities(), vec![EntityId(0), EntityId(1)]);
    assert_eq!(t.locked_point(), Some(3));
    assert!(!t.is_two_phase());
    let held = t.held_locks_at(2);
    assert_eq!(held.get(&EntityId(0)), Some(&LockMode::Exclusive));
    assert_eq!(t.held_locks_at(6).len(), 0);
    let plain: Transaction = t.unlocked();
    assert_eq!(plain.steps.len(), 2);
    assert_eq!(plain.entities(), vec![EntityId(0), EntityId(1)]);
}

#[test]
fn schedule_navigation() {
    let mut b = SystemBuilder::new();
    b.exists("x");
    b.tx(1).lx("x").write("x").ux("x").finish();
    b.tx(2).ls("x").read("x").us("x").finish();
    let sys = b.build();
    let s = Schedule::interleave(
        sys.transactions(),
        &[TxId(1), TxId(1), TxId(1), TxId(2), TxId(2), TxId(2)],
    )
    .unwrap();
    assert_eq!(s.positions_of(TxId(2)), vec![3, 4, 5]);
    assert_eq!(s.participants(), vec![TxId(1), TxId(2)]);
    assert!(s.has_prefix(&s.prefix(2)));
    assert_eq!(s.prefix(100).len(), s.len());
    // Display forms.
    let line = render_schedule_line(&s, sys.universe());
    assert!(line.starts_with("T1:(LX x)"));
    let rows = render_schedule_rows(&s, sys.universe(), &[TxId(2), TxId(1)]);
    assert!(rows.lines().next().unwrap().starts_with("T2:"));
    assert_eq!(
        render_step(&Step::read(EntityId(0)), sys.universe()),
        "(R x)"
    );
    // Step-level display.
    assert_eq!(
        ScheduledStep::new(TxId(1), Step::read(EntityId(0))).to_string(),
        "T1:(R e0)"
    );
}

#[test]
fn lock_table_queries() {
    let mut table = LockTable::new();
    table.grant(TxId(1), EntityId(7), LockMode::Shared);
    table.grant(TxId(2), EntityId(7), LockMode::Shared);
    assert_eq!(table.holders(EntityId(7)).len(), 2);
    assert_eq!(table.entities_held_by(TxId(1)), vec![EntityId(7)]);
    assert_eq!(table.mode_of(TxId(2), EntityId(7)), Some(LockMode::Shared));
    assert!(table.is_locked(EntityId(7)));
    assert_eq!(
        table.conflicting_holder(TxId(3), EntityId(7), LockMode::Exclusive),
        Some(TxId(1))
    );
    // A transaction's own lock never conflicts with its request — but
    // other holders still do (upgrading under shared company is illegal).
    assert_eq!(
        table.conflicting_holder(TxId(1), EntityId(7), LockMode::Exclusive),
        Some(TxId(2))
    );
    table.release(TxId(2), EntityId(7), LockMode::Shared);
    assert_eq!(
        table.conflicting_holder(TxId(1), EntityId(7), LockMode::Exclusive),
        None
    );
}

#[test]
fn structural_state_collections() {
    let g: StructuralState = (0..5).map(EntityId).collect();
    assert_eq!(g.len(), 5);
    let h = StructuralState::from_entities((0..5).map(EntityId));
    assert_eq!(g, h);
    assert_eq!(format!("{g:?}"), "{e0, e1, e2, e3, e4}");
}

#[test]
fn serialization_graph_queries() {
    let s = Schedule::from_steps(vec![
        ScheduledStep::new(TxId(1), Step::write(EntityId(0))),
        ScheduledStep::new(TxId(2), Step::read(EntityId(0))),
        ScheduledStep::new(TxId(2), Step::write(EntityId(1))),
        ScheduledStep::new(TxId(3), Step::read(EntityId(1))),
    ]);
    let g = SerializationGraph::of(&s);
    assert_eq!(g.node_count(), 3);
    assert_eq!(g.edge_count(), 2);
    assert_eq!(g.successors(TxId(1)), vec![TxId(2)]);
    assert_eq!(g.predecessors(TxId(3)), vec![TxId(2)]);
    assert_eq!(g.sources(), vec![TxId(1)]);
    assert_eq!(g.sinks(), vec![TxId(3)]);
    let edges: Vec<_> = g.edges().collect();
    assert_eq!(edges.len(), 2);
    assert!(g.to_string().contains("T1 -> T2"));
}

#[test]
fn interaction_graph_queries() {
    let txs = vec![
        LockedTransaction::new(TxId(1), vec![Step::write(EntityId(0))]),
        LockedTransaction::new(TxId(2), vec![Step::read(EntityId(0))]),
        LockedTransaction::new(TxId(3), vec![Step::read(EntityId(9))]),
    ];
    let ig = InteractionGraph::of(&txs);
    assert!(ig.adjacent(TxId(1), TxId(2)));
    assert!(!ig.adjacent(TxId(1), TxId(3)));
    assert_eq!(ig.edges().count(), 1);
    assert_eq!(ig.nodes().len(), 3);
    assert!(ig.to_string().contains("T1 -- T2"));
}

#[test]
fn sim_report_accounting() {
    use safe_locking::policies::{PolicyConfig, PolicyKind, PolicyRegistry};
    use safe_locking::sim::{build_adapter, run_sim, uniform_jobs, SimConfig};
    let pool: Vec<EntityId> = (0..4).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 8, 2, 1);
    let mut a = build_adapter(
        &PolicyRegistry::new(),
        PolicyKind::TwoPhase,
        &PolicyConfig::flat(pool),
    )
    .unwrap();
    let report = run_sim(&mut a, &jobs, &SimConfig::default());
    assert!(report.abort_rate() >= 0.0 && report.abort_rate() <= 1.0);
    assert!(report.throughput() > 0.0);
    assert_eq!(
        report.attempts,
        report.committed + report.policy_aborts + report.deadlock_aborts + report.rejected
    );
    assert_eq!(report.rejected, 0);
}

#[test]
fn policy_engine_api_surface() {
    // Pins the unified policy API: PolicyKind taxonomy, registry
    // construction (by kind and by name, custom builders included), the
    // object-safe PolicyEngine trait, typed responses and violations.
    use safe_locking::policies::{
        AccessIntent, PlanViolation, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind,
        PolicyRegistry, PolicyResponse, PolicyViolation, RegistryError, TwoPhaseEngine,
    };

    // Kind taxonomy: names round-trip, safety partition is exact.
    assert_eq!(PolicyKind::ALL.len(), 7);
    assert_eq!(PolicyKind::SAFE.len(), 4);
    assert_eq!(PolicyKind::MUTANTS.len(), 3);
    for kind in PolicyKind::ALL {
        assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        assert_eq!(kind.is_safe(), !kind.is_mutant());
        assert!(kind.base().is_safe());
        assert_eq!(kind.to_string(), kind.name());
    }
    assert_eq!(PolicyKind::from_name("2pl"), Some(PolicyKind::TwoPhase));

    // Registry: builds every kind as Box<dyn PolicyEngine>; engine names
    // match kind names; graphless DDAG is a typed error.
    let registry = PolicyRegistry::new();
    assert_eq!(registry.kinds().len(), 7);
    let flat = PolicyConfig::flat((0..4).map(EntityId).collect());
    for kind in PolicyKind::ALL {
        if kind.needs_graph() {
            assert!(matches!(
                registry.build(kind, &flat).err(),
                Some(RegistryError::NeedsGraph(k)) if k == kind
            ));
        } else {
            let engine: Box<dyn PolicyEngine> = registry.build(kind, &flat).unwrap();
            assert_eq!(engine.name(), kind.name());
        }
    }

    // The trait lifecycle: begin / request / finish, typed responses.
    let mut engine = registry.build(PolicyKind::TwoPhase, &flat).unwrap();
    assert!(engine
        .begin(TxId(1), &AccessIntent::empty())
        .unwrap()
        .is_none());
    let steps = engine
        .request(TxId(1), PolicyAction::Lock(EntityId(0)))
        .expect_granted();
    assert_eq!(steps, vec![Step::lock_exclusive(EntityId(0))]);
    engine.begin(TxId(2), &AccessIntent::empty()).unwrap();
    assert_eq!(
        engine.request(TxId(2), PolicyAction::Lock(EntityId(0))),
        PolicyResponse::Conflict {
            entity: EntityId(0),
            holder: TxId(1)
        }
    );
    // Actions outside the vocabulary are typed, fatal violations.
    let v = engine
        .request(TxId(1), PolicyAction::InsertEdge(EntityId(0), EntityId(1)))
        .violation()
        .unwrap();
    assert!(matches!(
        v,
        PolicyViolation::Unsupported { policy: "2PL", .. }
    ));
    assert!(v.is_fatal());
    assert!(!engine.finish(TxId(1)).unwrap().is_empty());
    assert!(engine.abort(TxId(2)).is_empty(), "T2 held nothing");

    // DTR returns its DT2-precomputed plan from begin.
    let mut dtr = registry.build(PolicyKind::Dtr, &flat).unwrap();
    let plan = dtr
        .begin(TxId(1), &AccessIntent::access([EntityId(0)]))
        .unwrap()
        .expect("DT2 plans at begin");
    assert_eq!(plan[0], PolicyAction::Lock(EntityId(0)));
    // Off-plan requests are typed violations.
    let v = dtr
        .request(TxId(1), PolicyAction::Lock(EntityId(3)))
        .violation()
        .unwrap();
    assert!(matches!(v, PolicyViolation::OffPlan(..)));

    // Violation classification is structural, not string-typed.
    assert!(PolicyViolation::Plan(PlanViolation::EmptyJob).is_fatal());
    assert!(!PolicyViolation::Plan(PlanViolation::NotRooted).is_fatal());

    // Custom builders extend the registry by name.
    let mut registry = PolicyRegistry::new();
    registry.register("custom", |config| {
        Ok(Box::new(TwoPhaseEngine::new(config.pool.iter().copied())))
    });
    assert!(registry.build_named("custom", &flat).is_ok());
    assert!(matches!(
        registry.build_named("missing", &flat).err(),
        Some(RegistryError::UnknownPolicy(_))
    ));
}

#[test]
fn verifier_outcome_displays() {
    use safe_locking::verifier::{find_canonical_witness, CanonicalBudget};
    let mut b = SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    b.tx(1)
        .lx("x")
        .write("x")
        .ux("x")
        .lx("y")
        .write("y")
        .ux("y")
        .finish();
    b.tx(2)
        .lx("x")
        .write("x")
        .ux("x")
        .lx("y")
        .write("y")
        .ux("y")
        .finish();
    let system = b.build();
    let outcome = find_canonical_witness(&system, CanonicalBudget::default());
    let w = outcome.witness().unwrap();
    let text = w.to_string();
    assert!(text.contains("Tc = "));
    assert!(text.contains("A* = "));
    let stats = outcome.stats();
    assert!(stats.candidates > 0);
    assert!(stats.to_string().contains("candidates"));
}

#[test]
fn job_and_workload_api() {
    use safe_locking::policies::Job;
    use safe_locking::sim::layered_dag;
    let j = Job::access(vec![EntityId(1)]);
    assert_eq!(j.size(), 1);
    let j = Job::insert(EntityId(0), EntityId(9));
    assert_eq!(j.size(), 1);
    let d = layered_dag(3, 2, 1, 0);
    assert_eq!(d.nodes.len(), 3);
    assert_eq!(d.nodes[0], vec![d.root]);
    assert_eq!(d.graph.node_count(), 5);
}
