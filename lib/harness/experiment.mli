(** Running one (workload, machine, processor-count, version) point of the
    evaluation: apply (or skip) the clustering transformations, lower,
    simulate, and collect the simulator's statistics. *)

open Memclust_ir
open Memclust_cluster
open Memclust_sim
open Memclust_workloads

type version =
  | Base
  | Clustered
  | Prefetched  (** software prefetching only (extension) *)
  | Clustered_prefetched  (** clustering then prefetching (extension) *)

type spec = {
  workload : Workload.t;
  config : Config.t;
  nprocs : int;
  version : version;
}

type outcome = {
  spec : spec;
  result : Machine.result;
  cluster_report : Driver.report option;  (** None for unclustered versions *)
  trace : Pass.Pipeline.trace option;
      (** the clustering pipeline's per-pass instrumentation (None for
          unclustered versions) *)
  program : Ast.program;  (** the program actually simulated *)
}

val machine_of_config : Config.t -> Machine_model.t
(** The analysis-side machine parameters implied by a simulator config. *)

(** Every entry point below takes the run's {!Settings} (default
    {!Settings.default}): its sim mode and fault plan are applied to every
    config, its chaos plan to the pass options, and its watchdogs to the
    simulator. *)

val digest : 'a -> string
(** Hex digest of a value's marshalled bytes: the program key of the
    lowering and simulation caches. *)

val transform :
  ?settings:Settings.t -> Config.t -> Workload.t -> Ast.program * Driver.report
(** Cluster the workload for the given machine (memoized per workload,
    analysis-side machine model and chaos plan — transformation is
    deterministic). *)

val simulate_cached :
  ?settings:Settings.t ->
  Workload.t ->
  Config.t ->
  nprocs:int ->
  Ast.program ->
  Machine.result
(** Lower (memoized on a structural program digest — one lowering serves
    every config simulating the same program) and simulate (memoized on
    workload, nprocs, config contents and program digest). The returned
    result is shared: treat it as read-only. *)

val execute : ?settings:Settings.t -> spec -> outcome
(** The workload's scaled L2 size is applied to the config when the config
    has a two-level hierarchy; single-level configs (Exemplar) are used
    unchanged. *)

val spec_key : ?settings:Settings.t -> spec -> string
(** The memo key: ["workload|config-name|nprocs|version|digest"], the
    digest covering the config's contents (settings applied) and the
    chaos plan. Useful for deduplicating spec lists before fanning out
    over a domain pool. *)

val execute_cached : ?settings:Settings.t -> spec -> outcome
(** Like {!execute}, memoized on {!spec_key}; logs progress to stderr. Safe to call from multiple domains concurrently
    (the memo tables are mutex-guarded; racing domains may duplicate
    deterministic work, never corrupt state). *)

val execute_result :
  ?settings:Settings.t -> spec -> (outcome, Memclust_util.Error.t) result
(** {!execute_cached} with every failure — simulator deadlock, pass
    pipeline error, crash — caught into a structured error naming the
    spec, so one wedged point cannot poison a whole figure. *)

val clear_caches : unit -> unit
(** Drop every memoized clustering, lowering, simulation and outcome
    (process-wide — clears all registered {!Memclust_util.Analysis_cache}
    tables, including the driver's profile cache). The caches are also
    entry-capped, so calling this is optional even for long sweeps. *)

val exec_cycles : outcome -> int
val data_stall : outcome -> float
