open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Ast

(* ------------------------------------------------------------------ *)
(* Options shared by every pass                                        *)
(* ------------------------------------------------------------------ *)

(* Chaos testing: deterministically sabotage passes so the fail-safe
   guard's degradation path gets exercised end-to-end. *)
type chaos = {
  chaos_seed : int;
  chaos_rate : float;  (* per-pass sabotage probability *)
  fail_pass : string option;  (* always sabotage this pass *)
}

type options = {
  machine : Machine_model.t;
  profile_pm : bool;
  passes : string list;
  chaos : chaos option;
}

let default_options =
  {
    machine = Machine_model.base;
    profile_pm = true;
    passes = [ "unroll-jam"; "window-unroll"; "scalar-replace"; "schedule" ];
    chaos = None;
  }

(* "SEED[:RATE]" (rate defaults to 0.25) for the per-pass sabotage
   draw, plus a pass name to sabotage unconditionally; empty strings
   count as absent. *)
let chaos_of_strings ~spec ~fail_pass =
  let present = function None | Some "" -> None | Some s -> Some s in
  match (present spec, present fail_pass) with
  | None, None -> None
  | spec, fail_pass ->
      let chaos_seed, chaos_rate =
        match spec with
        | None -> (0, 0.0)
        | Some s -> (
            let bad () =
              invalid_arg
                (Printf.sprintf
                   "expected SEED[:RATE] with RATE in [0,1], got %S" s)
            in
            match String.split_on_char ':' (String.trim s) with
            | [ seed ] -> (
                match int_of_string_opt seed with
                | Some seed -> (seed, 0.25)
                | None -> bad ())
            | [ seed; rate ] -> (
                match (int_of_string_opt seed, float_of_string_opt rate) with
                | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
                    (seed, rate)
                | _ -> bad ())
            | _ -> bad ())
      in
      Some { chaos_seed; chaos_rate; fail_pass }

type ctx = { options : options; pm : program -> int -> float }

(* ------------------------------------------------------------------ *)
(* Events: what a pass did, in terms the report can aggregate          *)
(* ------------------------------------------------------------------ *)

type action =
  | Unroll_jam of {
      target_var : string;
      factor : int;
      f_before : float;
      f_after : float;
      alpha : float;
    }
  | Inner_unroll of { inner_var : string; factor : int }
  | Rejected of { target_var : string; reason : string }

type event =
  | Nest_seen of {
      nest_index : int;
      inner_desc : string;
      key : string;
      alpha : float;
      f_initial : float;
    }
  | Nest_action of { key : string; action : action }
  | Count of { what : string; n : int }

let pp_action ppf = function
  | Unroll_jam { target_var; factor; f_before; f_after; alpha } ->
      Format.fprintf ppf "unroll-and-jam %s by %d (f %.2f -> %.2f, alpha %.2f)"
        target_var factor f_before f_after alpha
  | Inner_unroll { inner_var; factor } ->
      Format.fprintf ppf "inner-unroll %s by %d" inner_var factor
  | Rejected { target_var; reason } ->
      Format.fprintf ppf "no transform of %s (%s)" target_var reason

let event_label = function
  | Nest_seen { inner_desc; alpha; f_initial; _ } ->
      Printf.sprintf "nest %s: alpha=%.2f f=%.2f" inner_desc alpha f_initial
  | Nest_action { action; _ } -> Format.asprintf "%a" pp_action action
  | Count { what; n } -> Printf.sprintf "%s: %d" what n

(* ------------------------------------------------------------------ *)
(* The pass record                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  description : string;
  rewrite : ctx -> program -> program * event list;
}

(* ------------------------------------------------------------------ *)
(* Nest traversal helpers (shared by passes and the pipeline's own     *)
(* instrumentation)                                                    *)
(* ------------------------------------------------------------------ *)

type located = { inner : Depgraph.inner; enclosing : loop list }

let inner_desc = function
  | Depgraph.Counted l -> l.var
  | Depgraph.Chased c -> c.cvar

(* All innermost loop-like constructs under [l], each with its enclosing
   counted loops (outermost first). A loop directly containing a chase is
   not itself innermost — the chase is. *)
let locate_all (nest : loop) : located list =
  let acc = ref [] in
  let rec walk path (l : loop) =
    let nested =
      List.filter_map
        (function Loop l' -> Some (`L l') | Chase c -> Some (`C c) | _ -> None)
        l.body
    in
    if nested = [] then acc := { inner = Depgraph.Counted l; enclosing = path } :: !acc
    else
      List.iter
        (function
          | `L l' -> walk (path @ [ l ]) l'
          | `C c ->
              acc := { inner = Depgraph.Chased c; enclosing = path @ [ l ] } :: !acc)
        nested
  in
  walk [] nest;
  List.rev !acc

(* Innermost constructs are identified across transformations by their
   loop variable / chase pointer name (unroll-and-jam keeps both). *)
let inner_key = function
  | Depgraph.Counted l -> "L:" ^ l.var
  | Depgraph.Chased c -> "C:" ^ c.cvar

(* Top-level nests eligible for per-nest passes, identified by loop
   variable. After [uniquify] every loop variable in the program is
   unique, so a top-level loop whose variable already occurred anywhere
   earlier in the body is a rewrite artifact — an unroll-and-jam postlude
   reuses the original nest's variables — and is skipped, the role the old
   driver's shifting-index bookkeeping played. *)
let source_nest_vars p =
  let seen = Hashtbl.create 32 in
  let rec note stmt =
    match stmt with
    | Loop l ->
        Hashtbl.replace seen l.var ();
        List.iter note l.body
    | Chase c -> List.iter note c.cbody
    | If (_, t, e) ->
        List.iter note t;
        List.iter note e
    | Assign _ | Use _ | Barrier | Prefetch _ -> ()
  in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Loop l ->
          let fresh = not (Hashtbl.mem seen l.var) in
          note stmt;
          if fresh then Some l.var else None
      | _ ->
          note stmt;
          None)
    p.body

let find_nest p var =
  let rec go i = function
    | [] -> None
    | Loop l :: _ when String.equal l.var var -> Some (i, l)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 p.body

let replace_nest p ~var ~repl =
  let found = ref false in
  let body =
    List.concat_map
      (fun stmt ->
        match stmt with
        | Loop l when (not !found) && String.equal l.var var ->
            found := true;
            repl
        | _ -> [ stmt ])
      p.body
  in
  { p with body }

(* Replace the first loop (in program order) with variable [var] by the
   statement list [repl]. Exactly one replacement happens per call. *)
let replace_loop ~var ~repl stmt =
  let found = ref false in
  let rec go stmt =
    match stmt with
    | Loop l when (not !found) && String.equal l.var var ->
        found := true;
        repl
    | Loop l -> [ Loop { l with body = List.concat_map go l.body } ]
    | If (c, t, e) -> [ If (c, List.concat_map go t, List.concat_map go e) ]
    | Chase c -> [ Chase { c with cbody = List.concat_map go c.cbody } ]
    | Assign _ | Use _ | Barrier | Prefetch _ -> [ stmt ]
  in
  go stmt

(* Chaos corruption: remove the first assignment, searching depth-first
   — most workloads are one big top-level nest, so dropping a top-level
   statement would usually be a no-op. The result stays structurally
   valid but is semantically wrong, which is exactly what the
   differential guard must catch. *)
let corrupt_program (p : program) =
  let removed = ref false in
  let rec drop ss =
    match ss with
    | [] -> []
    | _ when !removed -> ss
    | Assign _ :: rest ->
        removed := true;
        rest
    | Loop l :: rest -> Loop { l with body = drop l.body } :: drop rest
    | Chase c :: rest -> Chase { c with cbody = drop c.cbody } :: drop rest
    | If (e, t, f) :: rest ->
        let t = drop t in
        let f = drop f in
        If (e, t, f) :: drop rest
    | s :: rest -> s :: drop rest
  in
  let body = drop p.body in
  if !removed then { p with body }
  else
    (* no assignment anywhere: drop whatever statement comes first *)
    match p.body with _ :: rest -> { p with body = rest } | [] -> p

(* Sabotage wraps each pass's rewrite: a hit either raises mid-rewrite or
   ships the real result minus one assignment, and the pipeline's guard
   must contain both. One stream per run, seeded from the program name,
   draws a float then a bool each time a wrapped pass runs (the pipeline
   calls [rewrite] once per pass it is given). uniquify is never sabotaged:
   every later pass keys nests by the globally-unique loop variables it
   establishes. *)
let with_chaos c (p : program) passes =
  let rng = Memclust_util.Rng.create (c.chaos_seed lxor Hashtbl.hash p.p_name) in
  List.map
    (fun pass ->
      if String.equal pass.name "uniquify" then pass
      else
        let rewrite ctx prog =
          let forced = Option.equal String.equal c.fail_pass (Some pass.name) in
          let hit =
            c.chaos_rate > 0.0 && Memclust_util.Rng.float rng 1.0 < c.chaos_rate
          in
          let crash = Memclust_util.Rng.bool rng in
          if hit && crash && not forced then
            failwith (Printf.sprintf "%s: chaos-injected crash" pass.name)
          else
            let p', events = pass.rewrite ctx prog in
            if forced || hit then (corrupt_program p', events) else (p', events)
        in
        { pass with rewrite })
    passes

(* ------------------------------------------------------------------ *)
(* The pipeline combinator                                             *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  type nest_summary = { ns_inner : string; ns_alpha : float; ns_f : float }
  type ir_size = { stmts : int; static_refs : int }

  type entry = {
    pass_name : string;
    wall_ms : float;
    size_before : ir_size;
    size_after : ir_size;
    f_before : nest_summary list;
    f_after : nest_summary list;
    validated : bool;
    degraded : string option;
    events : event list;
  }

  type trace = {
    program_name : string;
    entries : entry list;
    total_ms : float;
    executions : int;
  }

  let degraded_passes trace =
    List.filter_map
      (fun e -> Option.map (fun r -> (e.pass_name, r)) e.degraded)
      trace.entries

  let measure p =
    let stmts = ref 0 in
    let rec walk stmt =
      incr stmts;
      match stmt with
      | Loop l -> List.iter walk l.body
      | Chase c -> List.iter walk c.cbody
      | If (_, t, e) ->
          List.iter walk t;
          List.iter walk e
      | Assign _ | Use _ | Barrier | Prefetch _ -> ()
    in
    List.iter walk p.body;
    { stmts = !stmts; static_refs = List.length (Program.refs p) }

  (* Static f/α per innermost construct of every source nest. Used for the
     trace only, so it deliberately skips miss-rate profiling (pm = 1):
     re-profiling the whole program after every pass would dominate
     pipeline time. Passes that need the profiled f compute it
     themselves. *)
  let nest_summaries options p =
    let loc =
      Locality.analyze ~line_size:options.machine.Machine_model.line_size p
    in
    List.concat_map
      (fun var ->
        match find_nest p var with
        | None -> []
        | Some (_, nest) ->
            List.map
              (fun located ->
                let graph = Depgraph.analyze loc located.inner in
                let fest =
                  Festimate.compute options.machine loc
                    ~pm:(fun _ -> 1.0)
                    ~graph located.inner
                in
                {
                  ns_inner = inner_desc located.inner;
                  ns_alpha = Depgraph.alpha graph;
                  ns_f = fest.Festimate.f;
                })
              (locate_all nest))
      (source_nest_vars p)

  let now_ms () = Unix.gettimeofday () *. 1000.0

  (* Differential-execution budgets. The source program's run is bounded
     tightly — when the workload is too big to interpret cheaply, the
     guard falls back to structural validation and crash containment.
     Other programs get headroom (prefetch insertion and unrolling add
     some dynamic operations); a candidate that blows even that is
     degraded as a runaway. *)
  let diff_ref_max_ops = 64_000_000
  let diff_cand_max_ops = 128_000_000

  (* P_m outlives a pipeline run: the same program recurs across machine
     configurations that differ only in parameters the profile doesn't
     depend on (window, MSHR count). [p_name] is part of the digest, so
     workloads with distinct initializers never collide. *)
  let pm_cache : (int -> float) Memclust_util.Analysis_cache.t =
    Memclust_util.Analysis_cache.create ~cap:512 ~name:"driver-profile-pm" ()

  (* What one run of a program yields: the guard's reason to reject it
     ([None]: agrees with the source, or no source store) and its P_m. *)
  type execution = { verdict : string option; pm : (int -> float) Lazy.t }

  let run ?observe ?init options passes p =
    let t_start = now_ms () in
    let p0 = Program.renumber p in
    let current = ref p0 in
    let line_size = options.machine.Machine_model.line_size in
    let key q =
      Printf.sprintf "%d|%s|%s" line_size
        (if Option.is_none init then "-" else "i")
        (Digest.to_hex (Digest.string (Marshal.to_string q [])))
    in
    let fresh_store q =
      let d = Data.create q in
      Option.iter (fun f -> f d) init;
      d
    in
    (* Each distinct program runs at most once per pipeline run, for the
       guard and P_m profiling together. The paper's own methodology (§4)
       defines correctness as semantic identity to the source, so every
       program is compared against the ORIGINAL program's final store, not
       its predecessor's: rollback restores a last-good IR that is itself
       equivalent to the source. *)
    let executions = ref 0 in
    let runs = Hashtbl.create 16 in
    let key0 = key p0 in
    (* the source's final store: none without [init], or if its run
       failed *)
    let source_store = ref None in
    let execute k q =
      match Hashtbl.find_opt runs k with
      | Some r -> r
      | None ->
          let source = String.equal k key0 in
          let against = if source then None else !source_store in
          let profile =
            if options.profile_pm then Some (Profile.recorder ~line_size q) else None
          in
          let emit = Option.fold ~none:Exec.null_emitter ~some:snd profile in
          let d = fresh_store q in
          incr executions;
          let max_ops = if source then diff_ref_max_ops else diff_cand_max_ops in
          let outcome =
            match Exec.run ~emit ~max_ops q d with
            | () -> Ok d
            | exception e -> Error e
          in
          if source && Option.is_some init then
            source_store := Result.to_option outcome;
          let verdict =
            Option.map (( ^ ) "differential execution: ")
              (match (against, outcome) with
              | None, _ -> None
              | Some r, Ok d ->
                  if Data.equal r d then None
                  else Some "final stores diverge from the source program"
              | Some _, Error Exec.Limit_exceeded ->
                  Some "dynamic-operation budget exceeded (runaway rewrite?)"
              | Some _, Error e ->
                  (* a corrupted candidate may read a scalar it no longer
                     defines: the interpreter's error is a divergence too *)
                  Some ("candidate raised " ^ Printexc.to_string e))
          in
          let pm =
            match (outcome, profile) with
            | Ok _, None -> lazy (fun _ -> 1.0)
            | Ok _, Some (t, _) ->
                let pm = Profile.miss_rate t in
                Memclust_util.Analysis_cache.set pm_cache k pm;
                Lazy.from_val pm
            | Error Exec.Limit_exceeded, _ ->
                (* beyond the guard's budget: the profiler's own, larger one *)
                lazy
                  (Memclust_util.Analysis_cache.find_or_compute pm_cache k
                     (fun () ->
                       incr executions;
                       Profile.miss_rate (Profile.run ~line_size q (fresh_store q))))
            | Error e, _ -> lazy (raise e)
          in
          let r = { verdict; pm } in
          Hashtbl.add runs k r;
          r
    in
    (* the source's run is the guard's reference: made before the first
       pass, so that no pass's wall time is charged with it *)
    if Option.is_some init then ignore (execute key0 p0);
    let divergence q =
      if Option.is_none !source_store then None else (execute (key q) q).verdict
    in
    (* a cached P_m spares a run; the guard's runs are never spared *)
    let pm q =
      if not options.profile_pm then fun _ -> 1.0
      else
        let k = key q in
        match Memclust_util.Analysis_cache.find_opt pm_cache k with
        | Some pm -> pm
        | None -> Lazy.force (execute k q).pm
    in
    let ctx = { options; pm } in
    let summary = ref (nest_summaries options p0) in
    let entries =
      List.map
        (fun pass ->
          let size_before = measure !current in
          let f_before = !summary in
          let t0 = now_ms () in
          let entry ~size_after ~f_after ~validated ~degraded events =
            {
              pass_name = pass.name;
              wall_ms = now_ms () -. t0;
              size_before;
              size_after;
              f_before;
              f_after;
              validated;
              degraded;
              events;
            }
          in
          (* Roll back to the last-good IR: the program is untouched, the
             failure is recorded in the trace, and the pipeline continues —
             worst case the untransformed program ships. *)
          let reject ~validated ~events reason =
            entry ~size_after:size_before ~f_after:[] ~validated
              ~degraded:(Some reason) events
          in
          match pass.rewrite ctx !current with
          | exception e ->
              reject ~validated:true ~events:[]
                ("pass crashed: " ^ Printexc.to_string e)
          | p', events -> (
              let p' = Program.renumber p' in
              match Program.validate p' with
              | Error msg -> reject ~validated:false ~events ("invalid IR: " ^ msg)
              | Ok () -> (
                  match divergence p' with
                  | Some detail -> reject ~validated:false ~events detail
                  | None ->
                      let f_after = nest_summaries options p' in
                      current := p';
                      summary := f_after;
                      Option.iter (fun f -> f pass.name p') observe;
                      entry ~size_after:(measure p') ~f_after ~validated:true
                        ~degraded:None events)))
        passes
    in
    ( !current,
      {
        program_name = p.p_name;
        entries;
        total_ms = now_ms () -. t_start;
        executions = !executions;
      } )

  (* ---------------------------- rendering --------------------------- *)

  let pp_trace ppf trace =
    Format.fprintf ppf "@[<v>pipeline %s (%.2f ms total, %d executions)@,"
      trace.program_name trace.total_ms trace.executions;
    List.iter
      (fun e ->
        Format.fprintf ppf "  %-17s %7.2f ms  stmts %d->%d  refs %d->%d  [%s]@,"
          e.pass_name e.wall_ms e.size_before.stmts e.size_after.stmts
          e.size_before.static_refs e.size_after.static_refs
          (match e.degraded with
          | Some _ -> "DEGRADED"
          | None -> if e.validated then "ok" else "INVALID");
        Option.iter (Format.fprintf ppf "      rolled back: %s@,") e.degraded;
        List.iter
          (fun ev -> Format.fprintf ppf "      %s@," (event_label ev))
          e.events)
      trace.entries;
    Format.fprintf ppf "@]"

  (* Minimal JSON emission — enough structure for external tooling without
     pulling in a JSON dependency. *)
  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let json_float v =
    if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

  let summaries_to_json l =
    "["
    ^ String.concat ","
        (List.map
           (fun s ->
             Printf.sprintf "{\"inner\":\"%s\",\"alpha\":%s,\"f\":%s}"
               (json_escape s.ns_inner) (json_float s.ns_alpha)
               (json_float s.ns_f))
           l)
    ^ "]"

  let entry_to_json e =
    Printf.sprintf
      "{\"name\":\"%s\",\"wall_ms\":%s,\"stmts_before\":%d,\"stmts_after\":%d,\"refs_before\":%d,\"refs_after\":%d,\"validated\":%b,\"degraded\":%s,\"f_before\":%s,\"f_after\":%s,\"events\":[%s]}"
      (json_escape e.pass_name) (json_float e.wall_ms)
      e.size_before.stmts e.size_after.stmts e.size_before.static_refs
      e.size_after.static_refs e.validated
      (match e.degraded with
      | Some r -> "\"" ^ json_escape r ^ "\""
      | None -> "null")
      (summaries_to_json e.f_before)
      (summaries_to_json e.f_after)
      (String.concat ","
         (List.map
            (fun ev -> "\"" ^ json_escape (event_label ev) ^ "\"")
            e.events))

  let trace_to_json trace =
    Printf.sprintf
      "{\"program\":\"%s\",\"total_ms\":%s,\"executions\":%d,\"passes\":[%s]}"
      (json_escape trace.program_name)
      (json_float trace.total_ms) trace.executions
      (String.concat ",\n  " (List.map entry_to_json trace.entries))
end
