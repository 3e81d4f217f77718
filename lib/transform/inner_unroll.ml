open Memclust_ir
open Ast

(* Scalars whose first access in the body is a write are privatizable:
   renaming them per copy removes false dependences between copies so the
   miss-packing scheduler can interleave them. Loop-carried scalars (read
   before written) keep their shared name, preserving semantics. *)
let privatizable_scalars stmts =
  let first : (string, [ `Read | `Write ]) Hashtbl.t = Hashtbl.create 8 in
  let note v kind = if not (Hashtbl.mem first v) then Hashtbl.add first v kind in
  let rec expr e =
    match e with
    | Const _ | Ivar _ -> ()
    | Scalar v -> note v `Read
    | Load r -> ref_ r
    | Unop (_, a) -> expr a
    | Binop (_, a, b) ->
        expr a;
        expr b
  and ref_ r =
    match r.target with
    | Direct _ -> ()
    | Indirect { index; _ } -> expr index
    | Field { ptr; _ } -> expr ptr
  in
  let rec stmt s =
    match s with
    | Assign (Lscalar v, e) ->
        expr e;
        note v `Write
    | Assign (Lmem r, e) ->
        expr e;
        ref_ r
    | Use e -> expr e
    | Barrier -> ()
    | Prefetch r -> ref_ r
    | If (c, t, e) ->
        expr c;
        List.iter stmt t;
        List.iter stmt e
    | Loop l -> List.iter stmt l.body
    | Chase c ->
        expr c.init;
        note c.cvar `Write;
        List.iter stmt c.cbody
  in
  List.iter stmt stmts;
  List.filter
    (fun v -> Hashtbl.find_opt first v = Some `Write)
    (Program.scalars_written stmts)

let const_bounds ~params (l : loop) =
  let env v =
    match List.assoc_opt v params with Some k -> k | None -> raise Exit
  in
  match (Affine.eval env l.lo, Affine.eval env l.hi) with
  | lo, hi -> Some (lo, hi)
  | exception Exit -> None

let apply ?(params = []) ~factor (l : loop) =
  if factor <= 1 then Ok [ Loop l ]
  else begin
    match const_bounds ~params l with
    | None -> Error "loop bounds are not constant under the parameters"
    | Some (lo, hi) ->
        let s = l.step in
        let count = if hi > lo then (hi - lo + s - 1) / s else 0 in
        if count < factor then Error "fewer iterations than the unroll factor"
        else begin
          let to_rename = privatizable_scalars l.body in
          let rename = Subst.fresh_renaming ~tag:"__k" to_rename l.body in
          let body =
            List.concat
              (List.init factor (fun k ->
                   List.map
                     (fun st -> rename k (Subst.shift_var l.var (k * s) st))
                     l.body))
          in
          let main =
            Loop
              {
                l with
                step = s * factor;
                hi = Affine.sub l.hi (Affine.const ((factor - 1) * s));
                body;
              }
          in
          let rem = count mod factor in
          let postlude =
            if rem = 0 then []
            else
              [ Loop { l with lo = Affine.const (lo + ((count - rem) * s)) } ]
          in
          Ok (main :: postlude)
        end
  end
