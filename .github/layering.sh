#!/bin/sh
# The layering rules: each names a pattern that must not appear under the
# given paths, one rule per line, its reason above it. A rule fails when
# its grep matches, and also when grep cannot run (exit status 2: a path
# that no longer exists, a malformed pattern), so a renamed path fails
# instead of passing unsearched. Every failing rule is reported, then the
# script exits nonzero.
#
# Run from the repository root: sh .github/layering.sh

failed=""

# rule N GREP-ARGUMENTS...: rule N holds iff grep exits 1 (no match).
rule() {
    n=$1
    shift
    out=$(grep "$@" 2>&1)
    status=$?
    if [ "$status" -ne 1 ]; then
        echo "Layering rule $n failed (grep exit $status): grep $*"
        [ -n "$out" ] && printf '%s\n' "$out"
        failed="$failed $n"
    fi
}

# 1. Plans and jobs live in slp-policies; neither the engines nor the
# runtime may reach into the simulator. slp-runtime's manifest still lists
# slp-sim (its tests use the workload generators), so this rule is what
# keeps the production path simulator-free.
rule 1 -rn slp_sim crates/runtime/src crates/policies/src
# 2. The exhaustive verifier's edge sets stay out of the model crate.
rule 2 -rnE 'EdgeSet|ConflictIndex|mask_has_cycle|pack_positions' crates/core/src
# 3. The runtime has one lock mode: every engine it serves locks
# exclusively, and so do its lock words and the MVCC lockers.
rule 3 -rn 'LockMode::Shared' crates/runtime/src crates/mvcc/src
# 4. The online certifier (slp-runtime) and the log's step codec
# (slp-durability) stay out of the model crate.
rule 4 -rnE 'IncrementalCertifier|CertViolation|CertStats|VersionedRead|WireError|put_stamped_step' crates/core/src
# 5. One run check per executor: no per-suite verifier beside check_run
# (runtime) and run_row (simulator).
rule 5 -rnE '^fn (verify|verify_mixed|check_invariants|run_and_verify_safe|assert_trace_ok)\(' crates/runtime/tests tests
# 6. A run grants through one authority, lock words or the engine.
rule 6 -rnE 'GrantMode|hand_back' crates/runtime/src
# 7. One deadlock detector, slp_policies::WaitsFor.
rule 7 -rnE 'WaitGraph|cycle_through' crates/runtime/src crates/sim/src
# 8. The crash grid enumerates its crash points; no seed widens a sample.
rule 8 -rn SLP_DURABILITY_SEED crates tests examples
# 9. A run reaches the grant path through one entry point,
# LockService::advance.
rule 9 -rnE 'pub fn (begin|request|finish)\(' crates/runtime/src/service.rs
# 10. The run kind is one enum (service.rs's Grant), not a word table
# beside an engine.
rule 10 -rn 'Option<LockWords>' crates/runtime/src
# 11. A run's one account is its RuntimeReport, with no metrics registry
# beside it.
rule 11 -rnE 'struct Metrics|fn record_run|fn observe_latencies' crates/runtime/src
# 12. The snapshot read path takes no run-wide lock.
rule 12 -rnE 'struct Lockers|Arc<RwLock<Vec<Version>>>|fn begin_writer' crates/mvcc/src crates/runtime/src
# 13. The log's window is a stamp-indexed ring.
rule 13 -rn 'VecDeque<Option<ScheduledStep>>' crates/durability/src
# 14. An attempt's wait discipline and accounting live in service.rs.
rule 14 -nE 'note_wait|clear_wait|\.abort\(|tally\.[a-z_]+ \+=' crates/runtime/src/runner.rs
# 15. The verifier has one search and no thread pool.
rule 15 -rnE 'trait Driver|DonationQueue|ThreadPool|fn donate' crates/verifier/src
rule 15 -rn SLP_VERIFIER_THREADS crates tests examples
# 16. The DDAG graph is stored flat by entity id, and every global-scope
# engine keeps its per-transaction rule state in the flat TxTable.
rule 16 -n BTree crates/graph/src/digraph.rs crates/graph/src/dag.rs
rule 16 -nE 'BTreeSet<EntityId>|BTreeMap<TxId' crates/policies/src/ddag.rs crates/policies/src/altruistic.rs crates/policies/src/dtr.rs
# 17. One hand-over for the tail's serial structures.
rule 17 -rnE 'struct CertChannel|fn wait_for_graph|fn lock_core|LOCK_POLL_BURST|CERT_POLL_BURST|CERT_NAP' crates/runtime/src crates/durability/src
# 18. The online certifier reads only the trace, and the runtime ships no
# test planners.
rule 18 -rnE 'VersionedRead|observe_snapshot_reads|mod probes' crates/runtime
# 19. No environment sets a run's width: the runtime suites and examples
# set their worker counts in code.
rule 19 -rn SLP_RUNTIME_THREADS crates tests examples src

if [ -n "$failed" ]; then
    echo "Layering rules failed:$failed"
    exit 1
fi
echo "Layering: all rules hold"
