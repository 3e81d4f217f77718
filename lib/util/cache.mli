(** Set-associative LRU cache with coherence version tags.

    Each cached line remembers the global version it was fetched at; a
    lookup only hits when the global version is unchanged (another
    processor's intervening write invalidates the copy — an
    invalidation-based protocol at trace granularity). The simulator keeps
    one instance per hierarchy level; miss-rate profiling uses one at a
    constant version. *)

type t

val create : bytes:int -> assoc:int -> line:int -> t

val lookup : t -> version:int -> addr:int -> bool
(** [lookup c ~version ~addr] — true on a coherent hit; updates LRU. *)

val resident : t -> version:int -> addr:int -> bool
(** Like {!lookup} but side-effect-free (no LRU refresh): state
    inspection for tests, never a simulated access. *)

val fill : t -> version:int -> addr:int -> unit
(** Insert the line, tagged with [version]: an already-present copy of
    the same line is re-tagged in place (stale-version refresh), else the
    set's LRU way is evicted. *)

val line_of : t -> int -> int
(** Line number of a byte address. *)

val assoc : t -> int
val sets : t -> int
val line_size : t -> int
