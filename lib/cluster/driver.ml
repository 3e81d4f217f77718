open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Memclust_transform
open Ast

(* Re-exported so existing callers keep their [Driver.Unroll_jam],
   [Driver.default_options] spellings. *)
type action = Pass.action =
  | Unroll_jam of {
      target_var : string;
      factor : int;
      f_before : float;
      f_after : float;
      alpha : float;
    }
  | Inner_unroll of { inner_var : string; factor : int }
  | Rejected of { target_var : string; reason : string }

type chaos = Pass.chaos = {
  chaos_seed : int;
  chaos_rate : float;
  fail_pass : string option;
}

type options = Pass.options = {
  machine : Machine_model.t;
  profile_pm : bool;
  passes : string list;
  chaos : chaos option;
}

let default_options = Pass.default_options

type nest_report = {
  nest_index : int;
  inner_desc : string;
  alpha : float;
  f_initial : float;
  actions : action list;
}

type report = {
  nests : nest_report list;
  scalar_replaced : int;
  trace : Pass.Pipeline.trace;
}

(* ------------------------------------------------------------------ *)
(* Uniquify: rename loop variables so every counted loop is unique      *)
(* ------------------------------------------------------------------ *)

(* Sibling loops reusing a variable name (FFT's per-stage nests, Ocean's
   two sweeps) would otherwise be indistinguishable to the name-keyed
   nest traversal. *)
let uniquify_loops (p : program) =
  let taken = Hashtbl.create 32 in
  let fresh v =
    if not (Hashtbl.mem taken v) then begin
      Hashtbl.add taken v ();
      v
    end
    else begin
      let rec pick k =
        let cand = Printf.sprintf "%s$%d" v k in
        if Hashtbl.mem taken cand then pick (k + 1) else cand
      in
      let w = pick 1 in
      Hashtbl.add taken w ();
      w
    end
  in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        let w = fresh l.var in
        let stmt' =
          if String.equal w l.var then Loop l
          else Memclust_transform.Subst.rename_var l.var w (Loop l)
        in
        (match stmt' with
        | Loop l' -> Loop { l' with body = List.map walk l'.body }
        | _ -> assert false)
    | Chase c -> Chase { c with cbody = List.map walk c.cbody }
    | If (cond, t, e) -> If (cond, List.map walk t, List.map walk e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  { p with body = List.map walk p.body }

(* ------------------------------------------------------------------ *)
(* Analysis wrappers                                                   *)
(* ------------------------------------------------------------------ *)

(* Evaluate f for the innermost construct identified by [key] inside the
   top-level nest whose loop variable is [nest_var]. *)
let evaluate { Pass.options; pm } p ~nest_var ~key =
  let loc = Locality.analyze ~line_size:options.machine.Machine_model.line_size p in
  match Pass.find_nest p nest_var with
  | None -> None
  | Some (_, nest) -> (
      match
        List.find_opt
          (fun (l : Pass.located) -> String.equal (Pass.inner_key l.inner) key)
          (Pass.locate_all nest)
      with
      | None -> None
      | Some located ->
          let graph = Depgraph.analyze loc located.Pass.inner in
          let alpha = Depgraph.alpha graph in
          let fest =
            Festimate.compute options.machine loc ~pm:(pm p) ~graph
              located.Pass.inner
          in
          Some (loc, located, graph, alpha, fest))

(* ------------------------------------------------------------------ *)
(* Unroll-and-jam with binary search on the degree                     *)
(* ------------------------------------------------------------------ *)

let try_factor p ~nest_var (parent : loop) enclosing n =
  let outer_ranges =
    Legality.ranges_of_nest ~params:p.params
      (List.filter (fun (l : loop) -> not (String.equal l.var parent.var)) enclosing)
  in
  match Unroll_jam.apply ~params:p.params ~outer_ranges ~factor:n parent with
  | Error e -> Error (Format.asprintf "%a" Unroll_jam.pp_error e)
  | Ok repl -> (
      match Pass.find_nest p nest_var with
      | None -> Error "internal: nest vanished"
      | Some (_, nest) ->
          let nest' = Pass.replace_loop ~var:parent.var ~repl (Loop nest) in
          Ok (Program.renumber (Pass.replace_nest p ~var:nest_var ~repl:nest')))

let resolve_recurrences ({ Pass.options; _ } as ctx) p ~nest_var ~key parent
    enclosing ~alpha ~f0 =
  let lp = float_of_int options.machine.Machine_model.mshrs in
  let target = alpha *. lp in
  let u = options.machine.Machine_model.max_unroll in
  (* a loop whose iterations will be block-distributed (parallel, with no
     parallel ancestor) must keep at least max_procs chunks *)
  let u =
    let distributed =
      parent.parallel
      &&
      let rec outside = function
        | [] -> true
        | (l : loop) :: rest ->
            if String.equal l.var parent.var then true
            else (not l.parallel) && outside rest
      in
      outside enclosing
    in
    if not distributed then u
    else begin
      let env v =
        match List.assoc_opt v p.params with Some k -> k | None -> raise Exit
      in
      match (Affine.eval env parent.lo, Affine.eval env parent.hi) with
      | lo, hi ->
          let trip = max 1 ((hi - lo + parent.step - 1) / parent.step) in
          min u (max 1 (trip / options.machine.Machine_model.max_procs))
      | exception Exit -> u
    end
  in
  (* f is monotone in the unroll degree: binary-search the largest degree
     whose f stays within α·lp (the paper's contention-conscious rule) *)
  let f_of n =
    match try_factor p ~nest_var parent enclosing n with
    | Error msg -> Error msg
    | Ok p' -> (
        match evaluate ctx p' ~nest_var ~key with
        | Some (_, _, _, _, fest) -> Ok (p', fest.Festimate.f)
        | None -> Error "internal: nest vanished")
  in
  let best = ref None in
  let last_error = ref "" in
  let lo = ref 2 and hi = ref u in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    match f_of mid with
    | Ok (p', f) when f <= target ->
        best := Some (mid, p', f);
        lo := mid + 1
    | Ok _ -> hi := mid - 1
    | Error msg ->
        last_error := msg;
        hi := mid - 1
  done;
  match !best with
  | Some (n, p', f) ->
      ( p',
        [ Unroll_jam
            { target_var = parent.var; factor = n; f_before = f0; f_after = f; alpha };
        ] )
  | None ->
      ( p,
        [ Rejected
            {
              target_var = parent.var;
              reason =
                (if String.equal !last_error "" then
                   "no degree improves f within alpha*lp"
                 else !last_error);
            };
        ] )

(* ------------------------------------------------------------------ *)
(* Window-constraint resolution                                        *)
(* ------------------------------------------------------------------ *)

let resolve_window ({ Pass.options; _ } as ctx) p ~nest_var ~key =
  match evaluate ctx p ~nest_var ~key with
  | None -> (p, [])
  | Some (_, located, graph, _, fest) -> (
      let lp = float_of_int options.machine.Machine_model.mshrs in
      let density = fest.Festimate.misses_per_iteration in
      match located.Pass.inner with
      | Depgraph.Counted l
        when graph.Depgraph.recurrences = []
             && density > 0.0
             && fest.Festimate.f < lp ->
          let k =
            min options.machine.Machine_model.max_unroll
              (max 2 (int_of_float (Float.ceil (lp /. density))))
          in
          (match Inner_unroll.apply ~params:p.params ~factor:k l with
          | Error _ -> (p, [])
          | Ok repl -> (
              match Pass.find_nest p nest_var with
              | None -> (p, [])
              | Some (_, nest) ->
                  let nest' = Pass.replace_loop ~var:l.var ~repl (Loop nest) in
                  let p' =
                    Program.renumber (Pass.replace_nest p ~var:nest_var ~repl:nest')
                  in
                  (p', [ Inner_unroll { inner_var = l.var; factor = k } ])))
      | _ -> (p, []))

(* ------------------------------------------------------------------ *)
(* Local scheduling of innermost bodies                                *)
(* ------------------------------------------------------------------ *)

(* [reorder] is the local scheduler: miss packing (§3.3) or the balanced
   baseline *)
let schedule_innermost options reorder p =
  let loc = Locality.analyze ~line_size:options.machine.Machine_model.line_size p in
  let scheduled = ref 0 in
  let reorder body =
    let body' = reorder loc body in
    if body' != body && body' <> body then incr scheduled;
    body'
  in
  let rec walk stmt =
    match stmt with
    | Loop l ->
        let has_nested =
          List.exists (function Loop _ | Chase _ -> true | _ -> false) l.body
        in
        if has_nested then Loop { l with body = List.map walk l.body }
        else Loop { l with body = reorder l.body }
    | Chase c ->
        let has_nested =
          List.exists (function Loop _ | Chase _ -> true | _ -> false) c.cbody
        in
        if has_nested then Chase { c with cbody = List.map walk c.cbody }
        else Chase { c with cbody = reorder c.cbody }
    | If (c, t, e) -> If (c, List.map walk t, List.map walk e)
    | Assign _ | Use _ | Barrier | Prefetch _ -> stmt
  in
  let p' = { p with body = List.map walk p.body } in
  (p', !scheduled)

(* ------------------------------------------------------------------ *)
(* The registered passes                                               *)
(* ------------------------------------------------------------------ *)

(* Chase pointer names are not uniquified, so an inner-construct key alone
   can repeat across nests; events qualify it with the nest variable so the
   report attaches each action to the right nest. *)
let qkey nest_var key = nest_var ^ "/" ^ key

(* Iterate the source nests and their innermost-construct keys, threading
   the program through [f] — the single nest-indexed traversal that
   replaces the old driver's shifting-index [while] loop. *)
let over_nest_keys p f =
  let events = ref [] in
  let p = ref p in
  List.iter
    (fun nest_var ->
      match Pass.find_nest !p nest_var with
      | None -> ()
      | Some (_, nest) ->
          let keys =
            List.map (fun (l : Pass.located) -> Pass.inner_key l.inner)
              (Pass.locate_all nest)
            |> List.sort_uniq String.compare
          in
          List.iter
            (fun key ->
              let p', evs = f !p ~nest_var ~key in
              p := p';
              events := !events @ evs)
            keys)
    (Pass.source_nest_vars !p);
  (!p, !events)

let uniquify_pass =
  {
    Pass.name = "uniquify";
    description = "rename loop variables so every counted loop is unique";
    rewrite = (fun _ p -> (uniquify_loops p, []));
  }

let analyze_pass =
  {
    Pass.name = "analyze";
    description =
      "per-nest locality/dependence analysis: records alpha and the \
       initial f of every innermost construct";
    rewrite =
      (fun ctx p ->
        over_nest_keys p (fun p ~nest_var ~key ->
            match evaluate ctx p ~nest_var ~key with
            | None -> (p, [])
            | Some (_, located, _, alpha, fest) ->
                let nest_index =
                  match Pass.find_nest p nest_var with
                  | Some (i, _) -> i
                  | None -> -1
                in
                ( p,
                  [ Pass.Nest_seen
                      {
                        nest_index;
                        inner_desc = Pass.inner_desc located.Pass.inner;
                        key = qkey nest_var key;
                        alpha;
                        f_initial = fest.Festimate.f;
                      };
                  ] )));
  }

let fuse_pass =
  {
    Pass.name = "fuse";
    description =
      "fuse adjacent fusable top-level loops (paper §6: clusters the \
       misses of unnested loops)";
    rewrite =
      (fun _ p ->
        let p', n = Fuse.fuse_adjacent ~params:p.params p in
        (p', [ Pass.Count { what = "loops fused"; n } ]));
  }

let strip_mine_pass =
  {
    Pass.name = "strip-mine";
    description =
      "strip-mine-and-interchange top-level perfect 2-nests (paper §2.2 \
       comparison transform)";
    rewrite =
      (fun { Pass.options; _ } p ->
        let size = min 8 options.machine.Machine_model.max_unroll in
        let n = ref 0 in
        let p = ref p in
        List.iter
          (fun nest_var ->
            match Pass.find_nest !p nest_var with
            | None -> ()
            | Some (_, nest) -> (
                match
                  Strip_mine.strip_and_interchange ~params:!p.params ~size nest
                with
                | Error _ -> ()
                | Ok stmt ->
                    incr n;
                    p := Pass.replace_nest !p ~var:nest_var ~repl:[ stmt ]))
          (Pass.source_nest_vars !p);
        (!p, [ Pass.Count { what = "nests strip-mined"; n = !n } ]));
  }

let unroll_jam_pass =
  {
    Pass.name = "unroll-jam";
    description =
      "resolve memory-parallelism recurrences: binary-search the largest \
       unroll-and-jam degree keeping f <= alpha*lp (paper §3.2)";
    rewrite =
      (fun ({ Pass.options; _ } as ctx) p ->
        let lp = float_of_int options.machine.Machine_model.mshrs in
        over_nest_keys p (fun p ~nest_var ~key ->
            match evaluate ctx p ~nest_var ~key with
            | None -> (p, [])
            | Some (_, located, _, alpha, fest) ->
                if
                  alpha > 0.0
                  && fest.Festimate.f < alpha *. lp
                  && located.Pass.enclosing <> []
                then begin
                  (* try enclosing loops from the immediate parent outward
                     (the paper defers the deeper-nest choice to Carr &
                     Kennedy; nearest-first is their common case) *)
                  let candidates = List.rev located.Pass.enclosing in
                  let p = ref p in
                  let events = ref [] in
                  let rec attempt = function
                    | [] -> ()
                    | target :: rest ->
                        let p', acts =
                          resolve_recurrences ctx !p ~nest_var ~key
                            target located.Pass.enclosing ~alpha
                            ~f0:fest.Festimate.f
                        in
                        let succeeded =
                          List.exists
                            (function Unroll_jam _ -> true | _ -> false)
                            acts
                        in
                        p := p';
                        events :=
                          !events
                          @ List.map
                              (fun action ->
                                Pass.Nest_action
                                  { key = qkey nest_var key; action })
                              acts;
                        if not succeeded then attempt rest
                  in
                  attempt candidates;
                  (!p, !events)
                end
                else (p, [])));
  }

let window_pass =
  {
    Pass.name = "window-unroll";
    description =
      "inner-loop unrolling when the misses of one window's worth of \
       iterations cannot fill the MSHRs (paper §3.3)";
    rewrite =
      (fun ctx p ->
        over_nest_keys p (fun p ~nest_var ~key ->
            let p', acts = resolve_window ctx p ~nest_var ~key in
            ( p',
              List.map
                (fun action ->
                  Pass.Nest_action { key = qkey nest_var key; action })
                acts )));
  }

let scalar_replace_pass =
  {
    Pass.name = "scalar-replace";
    description =
      "lift regular array loads into scalars and forward stored values \
       (the reuse unroll-and-jam creates, paper §2.2)";
    rewrite =
      (fun _ p ->
        let p', n = Scalar_replace.apply_innermost p in
        (p', [ Pass.Count { what = "scalar-replaced"; n } ]));
  }

let prefetch_insert_pass =
  {
    Pass.name = "prefetch";
    description =
      "Mowry-style software prefetch insertion into innermost counted \
       loops (paper §1 comparison technique)";
    rewrite =
      (fun { Pass.options; _ } p ->
        let p', n =
          Prefetch_pass.insert
            ~line_size:options.machine.Machine_model.line_size p
        in
        (p', [ Pass.Count { what = "prefetches inserted"; n } ]));
  }

let scheduling_pass name description reorder =
  {
    Pass.name;
    description;
    rewrite =
      (fun { Pass.options; _ } p ->
        let p', n = schedule_innermost options reorder p in
        (p', [ Pass.Count { what = "bodies rescheduled"; n } ]));
  }

let schedule_pass =
  scheduling_pass "schedule"
    "miss-packing scheduling of every innermost body (paper §3.3)"
    Schedule.pack_misses

let balanced_schedule_pass =
  scheduling_pass "balanced-schedule"
    "balanced scheduling of every innermost body (the §3.3 comparison \
     baseline)"
    Balanced_sched.reorder

let passes =
  [
    uniquify_pass;
    analyze_pass;
    fuse_pass;
    strip_mine_pass;
    unroll_jam_pass;
    window_pass;
    scalar_replace_pass;
    prefetch_insert_pass;
    schedule_pass;
    balanced_schedule_pass;
  ]

let pass_names = List.map (fun p -> p.Pass.name) passes

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

(* [analyze] always runs, so every nest an action names has been seen;
   only a crashed (rolled-back) [analyze] leaves none, and then the
   actions are in the trace alone. *)
let report_of_trace (trace : Pass.Pipeline.trace) =
  let nests : (string * nest_report) list ref = ref [] in
  let scalar_replaced = ref 0 in
  let handle = function
    | Pass.Nest_seen { nest_index; inner_desc; key; alpha; f_initial } ->
        nests :=
          !nests @ [ (key, { nest_index; inner_desc; alpha; f_initial; actions = [] }) ]
    | Pass.Nest_action { key; action } ->
        nests :=
          List.map
            (fun (k, nr) ->
              if String.equal k key then (k, { nr with actions = nr.actions @ [ action ] })
              else (k, nr))
            !nests
    | Pass.Count { what; n } ->
        if String.equal what "scalar-replaced" then
          scalar_replaced := !scalar_replaced + n
  in
  List.iter
    (fun (e : Pass.Pipeline.entry) -> List.iter handle e.events)
    trace.entries;
  { nests = List.map snd !nests; scalar_replaced = !scalar_replaced; trace }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let unknown_passes names = List.filter (fun n -> not (List.mem n pass_names)) names

(* uniquify underpins the name-keyed traversal of every other pass, and
   analyze records the nests the report is built from *)
let always_run = [ "uniquify"; "analyze" ]

let run ?(options = default_options) ?init ?observe (p : program) =
  let fail_pass = Option.bind options.chaos (fun c -> c.fail_pass) in
  (match unknown_passes (options.passes @ Option.to_list fail_pass) with
  | [] -> ()
  | unknown ->
      invalid_arg
        (Printf.sprintf "Cluster.Driver: unknown pass %s (have: %s)"
           (String.concat ", " unknown)
           (String.concat ", " pass_names)));
  let passes =
    List.filter
      (fun pass -> List.mem pass.Pass.name (always_run @ options.passes))
      passes
  in
  let passes =
    match options.chaos with
    | Some c -> Pass.with_chaos c p passes
    | None -> passes
  in
  let p', trace = Pass.Pipeline.run ?observe ?init options passes p in
  (p', report_of_trace trace)

let pp_action = Pass.pp_action

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun n ->
      Format.fprintf ppf "nest %d (inner %s): alpha=%.2f f=%.2f@," n.nest_index
        n.inner_desc n.alpha n.f_initial;
      List.iter (fun a -> Format.fprintf ppf "  %a@," pp_action a) n.actions)
    r.nests;
  Format.fprintf ppf "scalar loads eliminated: %d@]" r.scalar_replaced
