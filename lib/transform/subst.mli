(** Syntactic substitutions used by the loop transformations. *)

open Memclust_ir
open Ast

val shift_var : string -> int -> stmt -> stmt
(** [shift_var v k s] rewrites [s] so that every occurrence of loop
    variable [v] reads [v + k]: affine subscripts are shifted and run-time
    [Ivar v] uses become [v + k]. Used to build the k-th copy of an
    unrolled body. *)

val rename_var : string -> string -> stmt -> stmt
(** Rename a loop variable everywhere (subscripts, [Ivar], loop headers). *)

val rename_scalars : (string -> string) -> stmt -> stmt
(** Rename scalar variables (reads, writes and chase pointer variables).
    Unrolled body copies rename their locally-written scalars so the
    copies stay independent. *)

val fresh_renaming : tag:string -> string list -> stmt list -> int -> stmt -> stmt
(** [fresh_renaming ~tag vs stmts k s] renames, in [s], every scalar of
    [vs] to its copy [k]: [v ^ tag ^ stamp ^ "_" ^ k], with the smallest
    stamp under which none of these names occurs in [stmts], the
    statements being rewritten. Copy 0 keeps the original names. The
    renamed scalars must be privatized (written before read in their
    body); then [stmts] alone decides freshness, and the same arguments
    always give the same names. *)

val subst_var_affine : string -> Affine.t -> stmt -> stmt
(** Replace a loop variable by an affine expression in all subscripts and
    loop bounds. [Ivar] uses are rewritten only when the replacement is a
    plain [variable + constant]; otherwise they are left untouched (the
    caller must ensure no run-time uses exist). *)
