open Memclust_ir
open Ast

type error =
  | Shape_mismatch of string
  | Illegal of string
  | Scalar_conflict of string

let pp_error ppf = function
  | Shape_mismatch m -> Format.fprintf ppf "shape mismatch: %s" m
  | Illegal m -> Format.fprintf ppf "illegal: %s" m
  | Scalar_conflict m -> Format.fprintf ppf "scalar conflict: %s" m

let apply ?(params = []) ?(outer_ranges = []) (l1 : loop) (l2 : loop) =
  (* align the second loop onto the first's variable *)
  let l2 =
    if String.equal l1.var l2.var then l2
    else
      match Subst.rename_var l2.var l1.var (Loop l2) with
      | Loop l -> l
      | _ -> assert false
  in
  if not (Affine.equal l1.lo l2.lo && Affine.equal l1.hi l2.hi && l1.step = l2.step)
  then Error (Shape_mismatch "bounds or step differ")
  else begin
    (* shared written scalars: privatize the second loop's copy *)
    let w1 = Program.scalars_written l1.body in
    let w2 = Program.scalars_written l2.body in
    let shared = List.filter (fun v -> List.mem v w1) w2 in
    let private1 = Program.privatizable_scalars l1.body in
    let private2 = Program.privatizable_scalars l2.body in
    let conflict =
      List.find_opt
        (fun v -> not (List.mem v private2 && List.mem v private1))
        shared
    in
    match conflict with
    | Some v -> Error (Scalar_conflict v)
    | None ->
        if
          not
            (Legality.fusion_legal ~params ~outer_ranges ~var:l1.var l1 l2)
        then Error (Illegal "a dependence points backwards across the fusion")
        else begin
          let rename = Subst.fresh_renaming ~tag:"$fused" shared (l1.body @ l2.body) in
          let body2 = List.map (rename 1) l2.body in
          Ok
            (Loop
               {
                 l1 with
                 parallel = l1.parallel && l2.parallel;
                 body = l1.body @ body2;
               })
        end
  end

let fuse_adjacent ?(params = []) (p : program) =
  let count = ref 0 in
  let rec pass stmts =
    match stmts with
    | Loop l1 :: Loop l2 :: rest -> (
        match apply ~params l1 l2 with
        | Ok fused ->
            incr count;
            pass (fused :: rest)
        | Error _ -> (
            match pass (Loop l2 :: rest) with
            | [] -> [ Loop l1 ]
            | tail -> Loop l1 :: tail))
    | st :: rest -> st :: pass rest
    | [] -> []
  in
  (* bind before building the pair: tuple components evaluate right to
     left, which would read [count] before [pass] runs *)
  let body = pass p.body in
  (Program.renumber { p with body }, !count)
