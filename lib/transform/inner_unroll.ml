open Memclust_ir
open Ast

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
          (* renaming a privatizable scalar per copy removes false
             dependences between copies, so the miss-packing scheduler can
             interleave them; loop-carried scalars keep their shared name *)
          let to_rename = Program.privatizable_scalars l.body in
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
