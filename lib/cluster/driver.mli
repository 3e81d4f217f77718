(** End-to-end clustering driver: the compiler algorithm of paper §3,
    expressed as a declarative pipeline of named {!Pass.t} passes run by
    {!Pass.Pipeline.run}. The registered passes, in execution order:

    + [uniquify] — make every loop variable unique (nests are addressed by
      variable from here on);
    + [analyze] — locality analysis, (optionally) miss-rate profiling, the
      memory-parallelism dependence graph and α/f of every innermost
      loop-like construct;
    + [fuse], [strip-mine] — optional comparison/extension transforms;
    + [unroll-jam] — if a loop has a recurrence and f < α·lp,
      binary-search the largest unroll-and-jam degree of an enclosing loop
      that keeps f ≤ α·lp (re-analyzing after each trial);
    + [window-unroll] — inner-loop unrolling when the misses of ⌈W/i⌉
      iterations cannot fill the MSHRs;
    + [scalar-replace], [prefetch] (optional), [schedule] — scalar
      replacement, prefetch insertion and miss-packing scheduling of every
      innermost body;
    + [balanced-schedule] — balanced scheduling of every innermost body,
      the §3.3 comparison baseline (optional).

    [uniquify] and [analyze] always run; [options.passes] names the
    others (default [unroll-jam], [window-unroll], [scalar-replace],
    [schedule]). The result is a transformed program plus a report of
    every decision and the pipeline's instrumentation trace (per-pass
    wall time, IR-size deltas, validation status) of the passes that
    ran. *)

open Memclust_ir

type action = Pass.action =
  | Unroll_jam of {
      target_var : string;
      factor : int;
      f_before : float;
      f_after : float;
      alpha : float;
    }
  | Inner_unroll of { inner_var : string; factor : int }
  | Rejected of { target_var : string; reason : string }

type nest_report = {
  nest_index : int;  (** position of the nest in the program body *)
  inner_desc : string;  (** innermost loop variable or chase pointer *)
  alpha : float;
  f_initial : float;
  actions : action list;
}

type report = {
  nests : nest_report list;
  scalar_replaced : int;  (** loads removed by scalar replacement *)
  trace : Pass.Pipeline.trace;  (** per-pass instrumentation *)
}

type chaos = Pass.chaos = {
  chaos_seed : int;
  chaos_rate : float;
  fail_pass : string option;
}
(** Deterministic pass sabotage for resilience testing (see
    {!Pass.chaos}). *)

type options = Pass.options = {
  machine : Machine_model.t;
  profile_pm : bool;  (** measure P_m by cache profiling (needs [init]) *)
  passes : string list;
      (** names of the passes to run besides [uniquify] and [analyze]
          (naming those two is accepted); a set, run in the order of
          {!passes} *)
  chaos : chaos option;
      (** sabotage injection (default [None]): {!run} wraps the passes
          with {!Pass.with_chaos} *)
}

val default_options : options

val passes : Pass.t list
(** The registered pipeline, in execution order. *)

val pass_names : string list

val unknown_passes : string list -> string list
(** The names in the list that are not registered passes, in order. *)

val run :
  ?options:options ->
  ?init:(Data.t -> unit) ->
  ?observe:(string -> Ast.program -> unit) ->
  Ast.program ->
  Ast.program * report
(** Transform the program. [init] fills a fresh store with the workload's
    data (pointer chains, index arrays) so profiling sees real access
    patterns; without it, irregular references are assumed to always miss
    (P_m = 1). A name in [options.passes] or in the chaos plan's
    [fail_pass] that is not a registered pass raises [Invalid_argument].
    [observe] is called with the pass name and program after every pass
    that was not rolled back. The returned program is renumbered and
    validated after every pass. *)

val pp_report : Format.formatter -> report -> unit
