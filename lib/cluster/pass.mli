(** Composable, instrumented transformation passes.

    The paper's method is a pipeline — analyze (locality, dependence
    graph, f/α per Equations 1–4), then rewrite (unroll-and-jam, inner
    unrolling, scalar replacement, miss-packing scheduling). This module
    gives each stage the shape of classic compiler infrastructure: a
    named {!t} with a rewrite function, run by {!Pipeline.run}, which
    after {e every} pass renumbers, validates and differentially executes
    the program (rolling a failing pass back, with the pass named) and
    records wall-clock time, IR-size deltas and before/after f/α
    summaries into a structured {!Pipeline.trace}.

    The standard pipeline lives in {!Driver}, which picks the passes to
    run by the names in [options.passes]; this module is the machinery
    plus the nest-traversal helpers the passes share. *)

open Memclust_ir
open Memclust_depgraph
open Ast

(** {1 Options} *)

type chaos = {
  chaos_seed : int;
  chaos_rate : float;
      (** per-pass sabotage probability; each sabotage is a crash
          (exception mid-rewrite) or a corruption (semantically wrong
          result), drawn deterministically from the seed *)
  fail_pass : string option;
      (** a pass name to corrupt unconditionally ([uniquify] is never
          sabotaged: later passes key nests by its unique variables); a
          name that is not a registered pass makes {!Driver.run} raise *)
}
(** Chaos testing for the fail-safe pipeline: deterministic, seeded
    sabotage of passes, so graceful degradation is exercisable
    end-to-end. *)

type options = {
  machine : Machine_model.t;
  profile_pm : bool;  (** measure P_m by cache profiling (needs [init]) *)
  passes : string list;
      (** the registered passes to run besides [uniquify] and [analyze],
          which always run; a set, run in the order of {!Driver.passes}
          (default
          [unroll-jam], [window-unroll], [scalar-replace], [schedule]) *)
  chaos : chaos option;
      (** sabotage injection (default [None]); {!Driver.run} applies it
          with {!with_chaos} *)
}

val default_options : options

val chaos_of_strings : spec:string option -> fail_pass:string option -> chaos option
(** Parse a chaos plan from a ["SEED[:RATE]"] spec (rate defaulting to
    0.25) and the name of a pass to sabotage unconditionally, as given to
    the repro CLI's [--chaos-passes] and [--fail-pass]. Empty strings
    count as absent; [None] when both are absent. Raises
    [Invalid_argument] on a malformed spec. *)

type ctx = { options : options; pm : program -> int -> float }
(** What every pass may consult: the options and P_m per
    static reference of a program (1.0 with [profile_pm] off). *)

(** {1 Events} *)

(** One decision taken on a nest (reported per nest in {!Driver.report}). *)
type action =
  | Unroll_jam of {
      target_var : string;
      factor : int;
      f_before : float;
      f_after : float;
      alpha : float;
    }
  | Inner_unroll of { inner_var : string; factor : int }
  | Rejected of { target_var : string; reason : string }

(** What a pass did, in terms the driver's report can aggregate. *)
type event =
  | Nest_seen of {
      nest_index : int;  (** position of the nest in the program body *)
      inner_desc : string;
      key : string;  (** stable identity of the innermost construct *)
      alpha : float;
      f_initial : float;
    }
  | Nest_action of { key : string; action : action }
  | Count of { what : string; n : int }

val pp_action : Format.formatter -> action -> unit

(** {1 The pass record} *)

type t = {
  name : string;
  description : string;
  rewrite : ctx -> program -> program * event list;
      (** must return a structurally valid program; the pipeline renumbers
          and validates after every pass *)
}

val with_chaos : chaos -> program -> t list -> t list
(** Wrap the passes for one pipeline run over the given program: each
    time a wrapped pass runs it draws (from one stream seeded by
    [chaos_seed] and the program name) whether to crash mid-rewrite or to
    corrupt its result, and [fail_pass] is always corrupted. [uniquify] is
    never sabotaged: later passes key nests by its unique variables. *)

(** {1 Nest traversal}

    Shared helpers: top-level nests are addressed by loop variable, which
    [Driver]'s uniquify pass makes globally unique — stable against the
    top-level postlude statements unroll-and-jam splices in (which reuse
    existing variables and are therefore recognized and skipped). *)

type located = { inner : Depgraph.inner; enclosing : loop list }

val inner_desc : Depgraph.inner -> string
val inner_key : Depgraph.inner -> string

val locate_all : loop -> located list
(** All innermost loop-like constructs under a nest, each with its
    enclosing counted loops (outermost first). *)

val source_nest_vars : program -> string list
(** Variables of the top-level source nests, in program order; top-level
    loops whose variable already occurred earlier in the body (postlude
    artifacts) are excluded. *)

val find_nest : program -> string -> (int * loop) option
(** Current body position and loop of the first top-level nest with the
    given variable. *)

val replace_nest : program -> var:string -> repl:stmt list -> program
(** Splice [repl] in place of the first top-level loop with variable
    [var]. *)

val replace_loop : var:string -> repl:stmt list -> stmt -> stmt list
(** Replace the first loop (in program order) with variable [var] inside
    one statement by [repl]; exactly one replacement per call. *)

(** {1 The pipeline} *)

module Pipeline : sig
  type nest_summary = { ns_inner : string; ns_alpha : float; ns_f : float }
  type ir_size = { stmts : int; static_refs : int }

  type entry = {
    pass_name : string;
    wall_ms : float;
    size_before : ir_size;
    size_after : ir_size;
    f_before : nest_summary list;
    f_after : nest_summary list;
    validated : bool;
        (** false only on a degraded entry whose candidate failed
            validation or differential execution *)
    degraded : string option;
        (** [Some reason]: the pass failed its guard (crash, invalid IR,
            or semantic divergence) and was rolled back — the program
            shipped to the next pass is the last-good IR *)
    events : event list;
  }

  type trace = {
    program_name : string;
    entries : entry list;
    total_ms : float;
    executions : int;  (** interpreter runs, for the guard and P_m alike *)
  }

  val degraded_passes : trace -> (string * string) list
  (** [(pass, reason)] for every degraded entry, in pipeline order. *)

  val measure : program -> ir_size

  val run :
    ?observe:(string -> program -> unit) ->
    ?init:(Data.t -> unit) ->
    options ->
    t list ->
    program ->
    program * trace
  (** Run the given passes in order, each under the fail-safe guard:
      the result is renumbered, re-validated and — when there is a
      workload initializer [init] and the source program fits the
      interpreter op budget — differentially executed against the
      {e original} program's final store. A pass that crashes, produces
      invalid IR or diverges semantically is rolled back: the trace entry
      records [degraded] with the reason and the pipeline continues from
      the last-good IR, so the worst case ships the untransformed
      program, never a crash or wrong code. A candidate whose
      differential run raises (say, reading a scalar it no longer
      defines) counts as diverging. The trace has one entry per pass
      given.

      Each distinct program runs at most once per call, for the guard's
      verdict and the passes' P_m ([ctx.pm]) alike; a P_m already in the
      process-wide ["driver-profile-pm"] cache costs no run. With [init],
      the source program runs before the first pass starts, so its run
      counts in [total_ms] but in no pass's [wall_ms].

      [observe] is called with the pass name and the accepted program
      after each pass that was not rolled back. *)

  val pp_trace : Format.formatter -> trace -> unit

  val trace_to_json : trace -> string
  (** The trace as a self-contained JSON object (name, wall time, IR
      deltas, validation status and f/α summaries per pass). *)
end
