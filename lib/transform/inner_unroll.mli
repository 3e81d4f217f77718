(** Inner-loop unrolling (paper §3.3, first stage of window-constraint
    resolution): replicate the innermost body so that the independent
    misses of several iterations are exposed to the local scheduler inside
    one instruction window. Copies rename their privatizable scalars
    ({!Subst.fresh_renaming}) and share the loop-carried ones (sequential
    semantics of the same loop), so scalar recurrences remain correct. *)

open Memclust_ir
open Ast

val apply :
  ?params:(string * int) list -> factor:int -> loop -> (stmt list, string) result
(** [apply ~factor l] unrolls [l] in place by [factor]; returns main loop
    plus postlude. Requires constant bounds under [params] and at least
    [factor] iterations. The caller renumbers afterwards. *)
