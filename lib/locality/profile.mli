(** Per-reference miss-rate profiling.

    The paper weights irregular leading references by their overall miss
    rate [P_m], "measured through cache simulation or profiling" (§3.2.2).
    This module runs the program once and plays its memory-access trace
    through a set-associative LRU cache (configured like the external
    cache), counting accesses and misses per static reference id. *)

open Memclust_ir

type t

val recorder :
  ?cache_bytes:int ->
  ?assoc:int ->
  ?line_size:int ->
  Ast.program ->
  t * Exec.emitter
(** An empty profile and the emitter that fills it: the profile is
    complete once {!Exec.run} of the program with that emitter returns,
    so the run can serve other consumers too. Defaults as for {!run}. *)

val run :
  ?cache_bytes:int ->
  ?assoc:int ->
  ?line_size:int ->
  Ast.program ->
  Data.t ->
  t
(** Execute the program over a private copy of [data] (the caller's store
    is not modified) and profile it. Defaults: 64 KB, 4-way, 64 B lines —
    the paper's scaled L2. *)

val accesses : t -> int -> int
val misses : t -> int -> int

val miss_rate : t -> int -> float
(** [P_m] for reference [m]; 1.0 when the reference was never executed
    (the conservative assumption for unprofiled irregulars). *)

