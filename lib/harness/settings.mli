(** Run settings: what a user may choose about one invocation without
    changing the experiment itself — the simulator core, memory-system
    fault injection, pass sabotage and the simulator's watchdogs.

    An entry point (the repro CLI) builds one value from its flags and
    passes it down; {!Experiment} and {!Figures} apply it to every config
    and every set of pass options they build. Nothing is read from the
    process environment. *)

open Memclust_cluster
open Memclust_sim

type t = {
  sim_mode : Machine.mode option;
      (** simulator core for every config; [None]: the config's own
          [sim_mode], else event mode *)
  faults : Faults.plan option;
      (** fault plan for every config; [None]: the config's own *)
  chaos : Pass.chaos option;  (** pass sabotage; [None]: none *)
  watchdog_cycles : int option;
      (** forward-progress watchdog; [None]: {!Machine.run}'s default *)
  time_budget : float option;
      (** wall-clock seconds per simulation; [None]: unlimited *)
}

val default : t
(** Every field [None]: configs and pass options are used as built. *)

val config : t -> Config.t -> Config.t
(** The config with the sim mode and fault plan set, where given. *)

val options : t -> Driver.options -> Driver.options
(** The pass options with the chaos plan set, where given. *)

val digest : t -> string
(** Hex digest of every field: equal settings give equal digests. *)
