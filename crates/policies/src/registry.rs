//! The policy registry: names and factories for every locking policy.
//!
//! [`PolicyKind`] enumerates the policies the crate ships — the four safe
//! policies of the paper plus the mutant negative controls used by the E7
//! ablations — and [`PolicyRegistry`] builds any of them as a
//! `Box<dyn PolicyEngine>` from a kind or a name plus a [`PolicyConfig`].
//! Downstream code (the simulator, the experiments, the examples) selects
//! policies by kind instead of hand-wiring concrete engine constructors.
//!
//! The registry is extensible: [`PolicyRegistry::register`] installs a
//! custom named builder, so a prototype policy can be swapped into any
//! registry-driven harness without touching this crate.

use crate::altruistic::{AltruisticConfig, AltruisticEngine};
use crate::api::PolicyEngine;
use crate::ddag::{DdagConfig, DdagEngine};
use crate::dtr::DtrEngine;
use crate::two_phase::TwoPhaseEngine;
use slp_core::{EntityId, Universe, MAX_ENTITIES};
use slp_graph::DiGraph;
use std::collections::BTreeMap;
use std::fmt;

/// Every locking policy the registry can build.
///
/// The mutant kinds disable one rule of their base policy and are **not
/// safe** — they exist so harnesses can demonstrate that each rule is
/// load-bearing (experiment E7 and the conformance suite's negative
/// controls).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PolicyKind {
    /// Strict two-phase locking over a flat entity pool (the baseline safe
    /// policy; condition 1 of Theorem 1).
    TwoPhase,
    /// Altruistic locking \[SGMS94\] (Section 5, rules AL1–AL3).
    Altruistic,
    /// Mutant: altruistic locking without the wake rule AL2. Unsafe.
    AltruisticNoWake,
    /// The dynamic DAG policy (Section 4, rules L1–L5).
    Ddag,
    /// Mutant: DDAG without L5's "presently holding a predecessor" clause.
    /// Unsafe.
    DdagNoHeldPredecessor,
    /// Mutant: DDAG without L5's "all predecessors locked in the past"
    /// clause. Unsafe.
    DdagNoAllPredecessors,
    /// The dynamic tree policy \[CM86\] (Section 6, rules DT0–DT3).
    Dtr,
}

impl PolicyKind {
    /// Every kind, safe policies first.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Ddag,
        PolicyKind::Dtr,
        PolicyKind::AltruisticNoWake,
        PolicyKind::DdagNoHeldPredecessor,
        PolicyKind::DdagNoAllPredecessors,
    ];

    /// The safe policies (every emitted trace is serializable).
    pub const SAFE: [PolicyKind; 4] = [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Ddag,
        PolicyKind::Dtr,
    ];

    /// The mutant negative controls (one rule ablated each).
    pub const MUTANTS: [PolicyKind; 3] = [
        PolicyKind::AltruisticNoWake,
        PolicyKind::DdagNoHeldPredecessor,
        PolicyKind::DdagNoAllPredecessors,
    ];

    /// The registry name of the kind (also the engine's display name).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::TwoPhase => "2PL",
            PolicyKind::Altruistic => "altruistic",
            PolicyKind::AltruisticNoWake => "altruistic-no-wake",
            PolicyKind::Ddag => "DDAG",
            PolicyKind::DdagNoHeldPredecessor => "DDAG-no-held-pred",
            PolicyKind::DdagNoAllPredecessors => "DDAG-no-all-preds",
            PolicyKind::Dtr => "DTR",
        }
    }

    /// Parses a registry name (case-insensitive).
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Whether every trace this policy admits is serializable.
    pub fn is_safe(self) -> bool {
        PolicyKind::SAFE.contains(&self)
    }

    /// Whether this is a rule-ablated negative control.
    pub fn is_mutant(self) -> bool {
        !self.is_safe()
    }

    /// The safe policy a mutant ablates (identity for safe kinds).
    pub fn base(self) -> PolicyKind {
        match self {
            PolicyKind::AltruisticNoWake => PolicyKind::Altruistic,
            PolicyKind::DdagNoHeldPredecessor | PolicyKind::DdagNoAllPredecessors => {
                PolicyKind::Ddag
            }
            safe => safe,
        }
    }

    /// Whether building this kind requires [`PolicyConfig::dag`].
    pub fn needs_graph(self) -> bool {
        matches!(
            self,
            PolicyKind::Ddag
                | PolicyKind::DdagNoHeldPredecessor
                | PolicyKind::DdagNoAllPredecessors
        )
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The shared world a policy engine is built over.
///
/// Flat-pool policies (2PL, altruistic, DTR) are built over [`pool`],
/// which is what exists for them: they refuse a lock on any other entity.
/// The DDAG policies need the initial rooted DAG in [`dag`] instead.
///
/// [`pool`]: PolicyConfig::pool
/// [`dag`]: PolicyConfig::dag
#[derive(Clone, Debug, Default)]
pub struct PolicyConfig {
    /// The entities that exist (flat-pool policies): the engine refuses,
    /// fatally, a lock on any entity outside it.
    pub pool: Vec<EntityId>,
    /// The initial rooted DAG and the universe naming its nodes (DDAG).
    pub dag: Option<(Universe, DiGraph)>,
}

impl PolicyConfig {
    /// A flat pool of initially existing entities.
    pub fn flat(pool: Vec<EntityId>) -> Self {
        PolicyConfig { pool, dag: None }
    }

    /// An initial rooted DAG (the caller is responsible for rootedness and
    /// acyclicity, checkable via [`DdagEngine::is_rooted_dag`]).
    pub fn dag(universe: Universe, graph: DiGraph) -> Self {
        PolicyConfig {
            pool: Vec::new(),
            dag: Some((universe, graph)),
        }
    }
}

/// Why the registry could not build an engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegistryError {
    /// No builtin kind or custom builder has this name.
    UnknownPolicy(String),
    /// The kind needs an initial DAG but [`PolicyConfig::dag`] is `None`.
    NeedsGraph(PolicyKind),
    /// [`PolicyConfig::pool`] or the initial DAG names this entity, at or
    /// above [`MAX_ENTITIES`]: past what any table sized by entity ids (a
    /// run's lock words, its MVCC spines, the log's decoder, the DDAG
    /// engine's graph, index and lock table) holds.
    EntityOutOfRange(EntityId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            RegistryError::NeedsGraph(kind) => {
                write!(f, "policy {kind} needs an initial DAG in PolicyConfig::dag")
            }
            RegistryError::EntityOutOfRange(e) => {
                write!(f, "entity {e} is at or above MAX_ENTITIES ({MAX_ENTITIES})")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A custom engine factory installed via [`PolicyRegistry::register`].
pub type PolicyBuilder = Box<dyn Fn(&PolicyConfig) -> Result<Box<dyn PolicyEngine>, RegistryError>>;

/// Builds any registered policy — builtin [`PolicyKind`]s and custom named
/// builders — as a boxed [`PolicyEngine`].
#[derive(Default)]
pub struct PolicyRegistry {
    custom: BTreeMap<String, PolicyBuilder>,
}

impl PolicyRegistry {
    /// A registry with every builtin kind available.
    pub fn new() -> Self {
        Self::default()
    }

    /// The builtin kinds, safe policies first.
    pub fn kinds(&self) -> &'static [PolicyKind] {
        &PolicyKind::ALL
    }

    /// Every name the registry resolves: builtin kinds, then custom
    /// builders in name order.
    pub fn names(&self) -> Vec<String> {
        PolicyKind::ALL
            .iter()
            .map(|k| k.name().to_owned())
            .chain(self.custom.keys().cloned())
            .collect()
    }

    /// Installs (or replaces) a custom named builder.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        builder: impl Fn(&PolicyConfig) -> Result<Box<dyn PolicyEngine>, RegistryError> + 'static,
    ) {
        self.custom.insert(name.into(), Box::new(builder));
    }

    /// Builds an engine for a builtin kind. A pool entity or DAG node at
    /// or above [`MAX_ENTITIES`] is refused.
    pub fn build(
        &self,
        kind: PolicyKind,
        config: &PolicyConfig,
    ) -> Result<Box<dyn PolicyEngine>, RegistryError> {
        check_ids(config)?;
        let dag = |cfg: &PolicyConfig| cfg.dag.clone().ok_or(RegistryError::NeedsGraph(kind));
        Ok(match kind {
            PolicyKind::TwoPhase => Box::new(TwoPhaseEngine::new(config.pool.clone())),
            PolicyKind::Altruistic => Box::new(AltruisticEngine::new(config.pool.clone())),
            PolicyKind::AltruisticNoWake => Box::new(AltruisticEngine::with_config(
                config.pool.clone(),
                AltruisticConfig::without_wake_rule(),
            )),
            PolicyKind::Ddag => {
                let (u, g) = dag(config)?;
                Box::new(DdagEngine::new(u, g))
            }
            PolicyKind::DdagNoHeldPredecessor => {
                let (u, g) = dag(config)?;
                Box::new(DdagEngine::with_config(
                    u,
                    g,
                    DdagConfig::without_held_predecessor_rule(),
                ))
            }
            PolicyKind::DdagNoAllPredecessors => {
                let (u, g) = dag(config)?;
                Box::new(DdagEngine::with_config(
                    u,
                    g,
                    DdagConfig::without_all_predecessors_rule(),
                ))
            }
            PolicyKind::Dtr => Box::new(DtrEngine::new(config.pool.clone())),
        })
    }

    /// Builds an engine by name: custom builders take precedence, then
    /// builtin kinds (case-insensitive). A pool entity or DAG node at or
    /// above [`MAX_ENTITIES`] is refused before any builder runs.
    pub fn build_named(
        &self,
        name: &str,
        config: &PolicyConfig,
    ) -> Result<Box<dyn PolicyEngine>, RegistryError> {
        check_ids(config)?;
        if let Some(builder) = self.custom.get(name) {
            return builder(config);
        }
        match PolicyKind::from_name(name) {
            Some(kind) => self.build(kind, config),
            None => Err(RegistryError::UnknownPolicy(name.to_owned())),
        }
    }
}

/// Refuses a pool or a DAG naming an entity at or above [`MAX_ENTITIES`].
fn check_ids(config: &PolicyConfig) -> Result<(), RegistryError> {
    let dag_nodes = config.dag.iter().flat_map(|(_, g)| g.nodes());
    let mut ids = config.pool.iter().copied().chain(dag_nodes);
    match ids.find(|e| e.0 >= MAX_ENTITIES) {
        Some(e) => Err(RegistryError::EntityOutOfRange(e)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AccessIntent, PolicyAction, PolicyResponse};
    use slp_core::TxId;

    fn diamond() -> (Universe, DiGraph) {
        let mut u = Universe::new();
        let ids = u.entities(["r", "a", "b", "j"]);
        let mut g = DiGraph::new();
        for &n in &ids {
            g.add_node(n).unwrap();
        }
        g.add_edge(ids[0], ids[1]).unwrap();
        g.add_edge(ids[0], ids[2]).unwrap();
        g.add_edge(ids[1], ids[3]).unwrap();
        g.add_edge(ids[2], ids[3]).unwrap();
        (u, g)
    }

    #[test]
    fn names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                PolicyKind::from_name(&kind.name().to_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(PolicyKind::from_name("no-such-policy"), None);
    }

    #[test]
    fn safety_partition_is_exact() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.is_safe(), !kind.is_mutant());
            assert!(kind.base().is_safe());
        }
        assert_eq!(PolicyKind::SAFE.len() + PolicyKind::MUTANTS.len(), 7);
        assert_eq!(PolicyKind::AltruisticNoWake.base(), PolicyKind::Altruistic);
    }

    #[test]
    fn builds_every_kind_and_names_match() {
        let registry = PolicyRegistry::new();
        for kind in PolicyKind::ALL {
            let config = if kind.needs_graph() {
                let (u, g) = diamond();
                PolicyConfig::dag(u, g)
            } else {
                PolicyConfig::flat((0..4).map(EntityId).collect())
            };
            let engine = registry.build(kind, &config).unwrap();
            assert_eq!(engine.name(), kind.name(), "engine/kind name drift");
            let by_name = registry.build_named(kind.name(), &config).unwrap();
            assert_eq!(by_name.name(), kind.name());
        }
    }

    #[test]
    fn graphless_ddag_is_rejected() {
        let registry = PolicyRegistry::new();
        let err = registry
            .build(PolicyKind::Ddag, &PolicyConfig::flat(vec![]))
            .err()
            .unwrap();
        assert_eq!(err, RegistryError::NeedsGraph(PolicyKind::Ddag));
        assert!(err.to_string().contains("DDAG"));
    }

    /// A pool is bounded by `MAX_ENTITIES`, checked before any engine or
    /// table is built: the last id in range is accepted, the first past
    /// it refused, by kind and by name.
    #[test]
    fn pool_ids_at_or_above_max_entities_are_rejected() {
        let registry = PolicyRegistry::new();
        let last = PolicyConfig::flat(vec![EntityId(0), EntityId(MAX_ENTITIES - 1)]);
        assert!(registry.build(PolicyKind::TwoPhase, &last).is_ok());
        let past = PolicyConfig::flat(vec![EntityId(0), EntityId(MAX_ENTITIES)]);
        let refused = Some(RegistryError::EntityOutOfRange(EntityId(MAX_ENTITIES)));
        assert_eq!(registry.build(PolicyKind::TwoPhase, &past).err(), refused);
        assert_eq!(registry.build_named("2PL", &past).err(), refused);
    }

    /// A DAG node is bounded the same way: a DDAG engine over a node at
    /// `MAX_ENTITIES` would size its index and lock table by it.
    #[test]
    fn dag_nodes_at_or_above_max_entities_are_rejected() {
        let registry = PolicyRegistry::new();
        let (u, mut g) = diamond();
        g.add_node(EntityId(MAX_ENTITIES)).unwrap();
        let config = PolicyConfig::dag(u, g);
        for kind in [PolicyKind::Ddag, PolicyKind::DdagNoAllPredecessors] {
            let err = registry.build(kind, &config).err();
            assert_eq!(
                err,
                Some(RegistryError::EntityOutOfRange(EntityId(MAX_ENTITIES)))
            );
            assert!(!err.unwrap().to_string().contains("pool"));
        }
        assert!(registry.build_named("DDAG", &config).is_err());
    }

    #[test]
    fn unknown_names_are_rejected() {
        let registry = PolicyRegistry::new();
        let err = registry
            .build_named("3PL", &PolicyConfig::default())
            .err()
            .unwrap();
        assert!(matches!(err, RegistryError::UnknownPolicy(_)));
    }

    #[test]
    fn custom_builders_resolve_by_name() {
        let mut registry = PolicyRegistry::new();
        registry.register("my-2pl", |c| {
            Ok(Box::new(TwoPhaseEngine::new(c.pool.clone())))
        });
        assert!(registry.names().contains(&"my-2pl".to_owned()));
        let mut engine = registry
            .build_named("my-2pl", &PolicyConfig::flat(vec![EntityId(0)]))
            .unwrap();
        engine.begin(TxId(1), &AccessIntent::empty()).unwrap();
        let r = engine.request(TxId(1), PolicyAction::Lock(EntityId(0)));
        assert!(matches!(r, PolicyResponse::Granted(_)));
    }
}
