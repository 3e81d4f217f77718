open Memclust_ir
open Ast

(* Generic expression rewriter that also maps affine subscripts and loop
   bounds. [fe] rewrites leaf expressions ([Ivar]/[Scalar]); [fa] rewrites
   affine forms. *)
let rec rw_expr ~fe ~fa e =
  match e with
  | Const _ -> e
  | Ivar _ | Scalar _ -> fe e
  | Load r -> Load (rw_ref ~fe ~fa r)
  | Unop (op, a) -> Unop (op, rw_expr ~fe ~fa a)
  | Binop (op, a, b) -> Binop (op, rw_expr ~fe ~fa a, rw_expr ~fe ~fa b)

and rw_ref ~fe ~fa r =
  let target =
    match r.target with
    | Direct { array; index } -> Direct { array; index = fa index }
    | Indirect { array; index } -> Indirect { array; index = rw_expr ~fe ~fa index }
    | Field { region; ptr; field } ->
        Field { region; ptr = rw_expr ~fe ~fa ptr; field }
  in
  { r with target }

let rec rw_stmt ~fe ~fa ~floop stmt =
  match stmt with
  | Assign (Lscalar v, e) -> Assign (Lscalar v, rw_expr ~fe ~fa e)
  | Assign (Lmem r, e) -> Assign (Lmem (rw_ref ~fe ~fa r), rw_expr ~fe ~fa e)
  | Use e -> Use (rw_expr ~fe ~fa e)
  | Barrier -> Barrier
  | Prefetch r -> Prefetch (rw_ref ~fe ~fa r)
  | If (c, t, e) ->
      If
        ( rw_expr ~fe ~fa c,
          List.map (rw_stmt ~fe ~fa ~floop) t,
          List.map (rw_stmt ~fe ~fa ~floop) e )
  | Loop l ->
      let l = { l with lo = fa l.lo; hi = fa l.hi } in
      let (l : loop) = floop l in
      Loop { l with body = List.map (rw_stmt ~fe ~fa ~floop) l.body }
  | Chase c ->
      Chase
        {
          c with
          init = rw_expr ~fe ~fa c.init;
          count = Option.map fa c.count;
          cbody = List.map (rw_stmt ~fe ~fa ~floop) c.cbody;
        }

let shift_var v k stmt =
  let fe = function
    | Ivar v' when String.equal v v' -> Binop (Add, Ivar v, Const (Vint k))
    | e -> e
  in
  let fa a = Affine.shift a v k in
  rw_stmt ~fe ~fa ~floop:Fun.id stmt

let rename_var v w stmt =
  let fe = function
    | Ivar v' when String.equal v v' -> Ivar w
    | e -> e
  in
  let fa a = Affine.subst a v (Affine.var w) in
  let floop l = if String.equal l.var v then { l with var = w } else l in
  rw_stmt ~fe ~fa ~floop stmt

let rename_scalars f stmt =
  let fe = function Scalar v -> Scalar (f v) | e -> e in
  let rec go stmt =
    match stmt with
    | Assign (Lscalar v, e) -> Assign (Lscalar (f v), rw_expr ~fe ~fa:Fun.id e)
    | Assign (Lmem r, e) ->
        Assign (Lmem (rw_ref ~fe ~fa:Fun.id r), rw_expr ~fe ~fa:Fun.id e)
    | Use e -> Use (rw_expr ~fe ~fa:Fun.id e)
    | Barrier -> Barrier
    | Prefetch r -> Prefetch (rw_ref ~fe ~fa:Fun.id r)
    | If (c, t, e) -> If (rw_expr ~fe ~fa:Fun.id c, List.map go t, List.map go e)
    | Loop l -> Loop { l with body = List.map go l.body }
    | Chase c ->
        Chase
          {
            c with
            cvar = f c.cvar;
            init = rw_expr ~fe ~fa:Fun.id c.init;
            cbody = List.map go c.cbody;
          }
  in
  go stmt

(* Copy [k] of a renamed scalar [v] is [v ^ tag ^ s ^ "_" ^ k] under one
   stamp [s]: the smallest under which no scalar of [stmts] already starts
   with [v ^ tag ^ s ^ "_"]. So no new name is taken, not even by an
   earlier rewrite's copies in the same statements (an outer
   unroll-and-jam over an inner one turns "wr" and "wr__u1_1" into
   "wr__u2_1" and "wr__u1_1__u2_1"). Looking only at [stmts] is enough:
   every renamed scalar is privatized, written before it is read in the
   body it was made for, so a scalar of the same name elsewhere in the
   program is never live across the rewritten statements. The stamp
   depends on nothing but the arguments, so a program always clusters to
   the same names. *)
let fresh_renaming ~tag vs stmts =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun st -> ignore (rename_scalars (fun v -> Hashtbl.replace seen v (); v) st))
    stmts;
  let stem s v = Printf.sprintf "%s%s%d_" v tag s in
  let taken s =
    List.exists
      (fun v ->
        let prefix = stem s v in
        Seq.exists (String.starts_with ~prefix) (Hashtbl.to_seq_keys seen))
      vs
  in
  let rec pick s = if taken s then pick (s + 1) else s in
  let s = pick 1 in
  fun k st ->
    if k = 0 then st
    else
      rename_scalars
        (fun v -> if List.mem v vs then stem s v ^ string_of_int k else v)
        st

let subst_var_affine v repl stmt =
  let fe = function
    | Ivar v' when String.equal v v' ->
        (* run-time use: only expressible when repl = var + const *)
        (match (Affine.vars repl, Affine.constant repl) with
        | [ w ], c when Affine.coeff repl w = 1 ->
            if c = 0 then Ivar w else Binop (Add, Ivar w, Const (Vint c))
        | [], c -> Const (Vint c)
        | _ -> Ivar v')
    | e -> e
  in
  let fa a = Affine.subst a v repl in
  rw_stmt ~fe ~fa ~floop:Fun.id stmt
