(** A fixed-size pool of OCaml 5 domains for running independent tasks —
    one experiment spec per task — in parallel.

    Workers are spawned once and reused across calls, so the (multi-ms)
    domain spawn cost is paid once per pool, not once per task. All
    scheduling state is protected by a single mutex; tasks themselves run
    outside it. Tasks must only share state through their own
    synchronization (the experiment memo tables are mutex-guarded). *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [max 0 domains] worker domains (default:
    [recommended_domain_count () - 1], so workers plus the submitting
    domain match the hardware). With zero workers every [map] runs inline
    in the caller — correct, just sequential. *)

val size : t -> int
(** Number of worker domains (0 means [map] runs inline). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], using the
    worker domains, and returns the results in order. The calling domain
    also executes tasks while it waits, so a pool of [n] workers uses
    [n + 1] cores. If any [f x] raises, the first exception observed is
    re-raised in the caller after all scheduled tasks have settled.

    Recursive use ([f] itself calling [map] on the same pool) is safe:
    tasks submitted from inside a worker run inline rather than deadlock
    waiting for a free worker. *)

val map_result :
  ?attempts:int ->
  ?task_name:('a -> string) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  ('b, Error.t) result list
(** Crash-contained [map]: never raises. Each task gets up to [attempts]
    tries (default 2, i.e. one retry — transient failures such as an
    OOM-killed allocation often succeed on retry); a task that still
    fails yields [Error] in its slot — [Error.t] as-is if it raised
    [Error.Error], otherwise [Worker_crashed] naming the task (via
    [task_name], default ["task-<i>"]) — while every other task's result
    is preserved. Scheduling behaviour is identical to [map]. *)

val shutdown : t -> unit
(** Stop and join the workers. Subsequent [map] calls run inline.
    Idempotent. *)

val default : unit -> t
(** A lazily-created shared pool of [recommended_domain_count () - 1]
    worker domains. Shut down automatically at exit. *)
