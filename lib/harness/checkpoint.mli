(** On-disk checkpointing of completed experiment artifacts.

    A checkpoint directory holds one text file per completed artifact
    (table/figure) id and {!Settings.digest}, so an artifact made under
    other settings (another sim mode, fault or chaos plan) is never
    replayed. [repro experiment --checkpoint DIR] consults it
    before running each artifact and records each one on completion, so
    a run killed partway (crash, OOM, watchdog) resumes from the last
    completed artifact instead of starting over.

    Writes are atomic (temp file + [Sys.rename] in the same directory),
    so a crash mid-save never leaves a truncated artifact that a resume
    would mistake for a completed one. *)

type t

val create : ?settings:Settings.t -> string -> t
(** Open (creating as needed, like [mkdir -p]) a checkpoint directory,
    seeing only the entries saved under [settings] (default
    {!Settings.default}).
    Raises [Memclust_util.Error.Error (Config_invalid _)] if the path
    exists and is not a directory. *)

val mem : t -> string -> bool

val load : t -> string -> string option
(** The saved artifact text, or [None] if not yet completed. *)

val save : t -> string -> string -> unit
(** [save t id text] atomically records [id] as completed. *)

val saved : t -> string list
(** Ids of all artifacts completed under this handle's settings,
    sorted. *)
