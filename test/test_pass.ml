(* The pass-manager layer: pipeline trace structure, pass selection, the
   var-keyed nest traversal (stable under postlude insertion), and a
   differential semantics check running every registered pass over every
   registry workload at tiny sizes. *)

open Memclust_ir
open Memclust_cluster
open Memclust_workloads

let no_profile = { Driver.default_options with Driver.profile_pm = false }

let fig2a ?(rows = 64) ?(cols = 64) () =
  let open Builder in
  program "fig2a"
    ~arrays:[ array_decl "a" (Stdlib.( * ) rows cols); array_decl "s" rows ]
    [
      loop "j" (cst 0) (cst rows)
        [
          loop "i" (cst 0) (cst cols)
            [
              store (aref "s" (ix "j"))
                (arr "s" (ix "j") + arr "a" (idx2 ~cols (ix "j") (ix "i")));
            ];
        ];
    ]

(* ------------------------- trace structure ------------------------- *)

let always_run = [ "uniquify"; "analyze" ]

let test_trace_structure () =
  let _, report = Driver.run ~options:no_profile (fig2a ()) in
  let t = report.Driver.trace in
  Alcotest.(check (list string))
    "one entry per pass that ran, in registry order"
    (always_run @ Driver.default_options.Driver.passes)
    (List.map (fun e -> e.Pass.Pipeline.pass_name) t.Pass.Pipeline.entries);
  Alcotest.(check string) "program name" "fig2a" t.Pass.Pipeline.program_name;
  Alcotest.(check bool) "total time non-negative" true
    (t.Pass.Pipeline.total_ms >= 0.0);
  List.iter
    (fun (e : Pass.Pipeline.entry) ->
      Alcotest.(check bool)
        (e.Pass.Pipeline.pass_name ^ " wall time non-negative")
        true
        (e.Pass.Pipeline.wall_ms >= 0.0);
      Alcotest.(check bool)
        (e.Pass.Pipeline.pass_name ^ " validated")
        true e.Pass.Pipeline.validated)
    t.Pass.Pipeline.entries;
  (* optional passes are off by default *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not run by default") false
        (List.exists
           (fun e -> e.Pass.Pipeline.pass_name = name)
           t.Pass.Pipeline.entries))
    [ "fuse"; "strip-mine"; "prefetch"; "balanced-schedule" ]

let ran_passes (t : Pass.Pipeline.trace) =
  List.map (fun (e : Pass.Pipeline.entry) -> e.Pass.Pipeline.pass_name)
    t.Pass.Pipeline.entries

let with_passes passes = { no_profile with Driver.passes }

let test_pass_selection () =
  let p = fig2a () in
  let _, full = Driver.run ~options:no_profile p in
  Alcotest.(check bool) "full pipeline runs scalar-replace" true
    (List.mem "scalar-replace" (ran_passes full.Driver.trace));
  List.iter
    (fun passes ->
      let _, only_uj = Driver.run ~options:(with_passes passes) p in
      Alcotest.(check (list string))
        (String.concat "," passes ^ " runs exactly uniquify, analyze, unroll-jam")
        [ "uniquify"; "analyze"; "unroll-jam" ]
        (ran_passes only_uj.Driver.trace))
    (* the list is a set: order and repeats do not matter, and naming the
       two passes that always run is accepted *)
    [ [ "unroll-jam" ]; [ "analyze"; "unroll-jam" ]; [ "unroll-jam"; "uniquify"; "unroll-jam" ] ];
  Alcotest.(check (list string)) "passes = [] runs the analysis only" always_run
    (ran_passes (snd (Driver.run ~options:(with_passes []) p)).Driver.trace);
  Alcotest.(check (list string)) "unknown names, in order"
    [ "no-such-pass"; "schedul" ]
    (Driver.unknown_passes [ "schedule"; "no-such-pass"; "analyze"; "schedul" ]);
  (match Driver.run ~options:(with_passes [ "no-such-pass" ]) p with
  | (_ : Ast.program * Driver.report) ->
      Alcotest.fail "unknown pass name should raise"
  | exception Invalid_argument _ -> ());
  (* the trace round-trips through the JSON emitter without raising and
     mentions every pass that ran *)
  let json = Pass.Pipeline.trace_to_json full.Driver.trace in
  List.iter
    (fun name ->
      let needle = Printf.sprintf "\"name\":\"%s\"" name in
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec scan i =
          i + nl <= jl && (String.sub json i nl = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (name ^ " appears in JSON") true found)
    (ran_passes full.Driver.trace)

(* A subset of passes still reports every nest as analyzed: [analyze]
   always runs, so a nest is never reported without its position and
   α. *)
let test_subset_keeps_analysis () =
  let w = Option.get (Registry.by_name "Em3d") in
  let options = { Driver.default_options with Driver.passes = [ "unroll-jam" ] } in
  let _, report = Driver.run ~options ~init:w.Workload.init w.Workload.program in
  Alcotest.(check bool) "some nest reported" true (report.Driver.nests <> []);
  List.iter
    (fun (n : Driver.nest_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "nest %s has an index" n.Driver.inner_desc)
        true (n.Driver.nest_index >= 0);
      Alcotest.(check bool)
        (Printf.sprintf "nest %s has alpha > 0" n.Driver.inner_desc)
        true (n.Driver.alpha > 0.0))
    report.Driver.nests

(* ---------------------- one execution per program ---------------------- *)

let executions (r : Driver.report) = r.Driver.trace.Pass.Pipeline.executions

let fig2a_init d =
  for k = 0 to (64 * 64) - 1 do
    Data.set d "a" k (Ast.Vfloat (float_of_int k *. 0.5))
  done

(* uniquify leaves fig2a alone and analyze only reads it: the source's
   run is the guard's reference, uniquify's and analyze's candidates, and
   analyze's P_m profile — one execution where there used to be four *)
let test_unchanged_program_runs_once () =
  let p = fig2a () in
  List.iter
    (fun (label, options) ->
      Memclust_util.Analysis_cache.clear_all ();
      let p', report =
        Driver.run ~options:{ options with Driver.passes = [] } ~init:fig2a_init p
      in
      Alcotest.(check bool) (label ^ ": program unchanged") true
        (p' = Program.renumber p);
      Alcotest.(check int) (label ^ ": one execution") 1 (executions report))
    [ ("profiled", Driver.default_options); ("unprofiled", no_profile) ];
  (* profiling off builds no profile; with no initializer there is no
     guard either, so nothing executes *)
  Memclust_util.Analysis_cache.clear_all ();
  let _, report = Driver.run ~options:no_profile p in
  Alcotest.(check int) "no init, no profile: no execution" 0 (executions report);
  let _, (_ : Driver.report) = Driver.run ~options:no_profile ~init:fig2a_init p in
  Alcotest.(check (option int)) "no profile cached with profiling off" (Some 0)
    (List.assoc_opt "driver-profile-pm" (Memclust_util.Analysis_cache.registered ()))

(* Interpreter runs of the default pipeline per small workload, from a
   cold profile cache: each distinct program the guard checks or a pass
   profiles runs exactly once (the separate guard and profiler runs made
   10, 12, 8, 14, 14, 8, 9 and 8). *)
let test_executions_pinned () =
  let pinned =
    [
      ("Latbench", 3);
      ("Em3d", 8);
      ("Erlebacher", 4);
      ("FFT", 10);
      ("LU", 10);
      ("Mp3d", 3);
      ("MST", 2);
      ("Ocean", 4);
    ]
  in
  List.iter
    (fun (w : Workload.t) ->
      Memclust_util.Analysis_cache.clear_all ();
      let _, report = Driver.run ~init:w.Workload.init w.Workload.program in
      Alcotest.(check (option int))
        (w.Workload.name ^ " executions")
        (List.assoc_opt w.Workload.name pinned)
        (Some (executions report)))
    (Registry.small ())

(* --------------- postlude-stable top-level addressing --------------- *)

(* Two identical reduction nests; [rows] is prime and larger than any
   legal unroll factor, so unroll-and-jam of the first nest must leave a
   top-level postlude loop *between* it and the second nest. The old
   driver walked top-level statements by index and re-visited (or
   skipped) nests when postludes shifted those indices; the var-keyed
   traversal must attribute exactly one unroll-and-jam to each source
   nest and keep the semantics. *)
let two_nests ?(rows = 79) ?(cols = 33) () =
  let open Builder in
  let nest j i src dst =
    loop j (cst 0) (cst rows)
      [
        loop i (cst 0) (cst cols)
          [
            store (aref dst (ix j))
              (arr dst (ix j) + arr src (idx2 ~cols (ix j) (ix i)));
          ];
      ]
  in
  program "two_nests"
    ~arrays:
      [
        array_decl "a" (Stdlib.( * ) rows cols);
        array_decl "s" rows;
        array_decl "b" (Stdlib.( * ) rows cols);
        array_decl "t" rows;
      ]
    [ nest "j" "i" "a" "s"; nest "j2" "i2" "b" "t" ]

let test_postlude_shifted_nests () =
  let rows = 79 and cols = 33 in
  let p = two_nests ~rows ~cols () in
  let init d =
    for i = 0 to (rows * cols) - 1 do
      Data.set d "a" i (Ast.Vfloat (float_of_int i *. 0.01));
      Data.set d "b" i (Ast.Vfloat (float_of_int i *. 0.02))
    done
  in
  let p', report = Driver.run ~options:no_profile ~init p in
  Alcotest.(check int) "both source nests analyzed" 2
    (List.length report.Driver.nests);
  List.iter
    (fun (n : Driver.nest_report) ->
      let jammed =
        List.exists
          (function Driver.Unroll_jam _ -> true | _ -> false)
          n.Driver.actions
      in
      Alcotest.(check bool)
        (Printf.sprintf "nest %d (%s) unroll-and-jammed" n.Driver.nest_index
           n.Driver.inner_desc)
        true jammed)
    report.Driver.nests;
  (* the prime trip count guarantees a postlude, so the transformed
     program has more top-level statements than the source: exactly the
     index-shifting situation the traversal must survive *)
  Alcotest.(check bool) "postludes appended at top level" true
    (List.length p'.Ast.body > 2);
  let d1 = Data.create p and d2 = Data.create p' in
  init d1;
  init d2;
  Exec.run p d1;
  Exec.run p' d2;
  Alcotest.(check bool) "semantics preserved across both nests" true
    (Data.equal d1 d2)

(* ---------------- differential per-pass execution ------------------ *)

(* Every registered pass — including the optional fuse / strip-mine /
   prefetch / balanced-schedule passes — over every registry workload at
   tiny sizes: the observable store after executing the program as it
   leaves each pass must equal the base program's. *)
let test_differential_passes () =
  let options = with_passes Driver.pass_names in
  List.iter
    (fun (w : Workload.t) ->
      let base = Program.renumber w.Workload.program in
      let d0 = Data.create base in
      w.Workload.init d0;
      Exec.run base d0;
      let observed = ref [] in
      let (_ : Ast.program * Driver.report) =
        Driver.run ~options ~init:w.Workload.init
          ~observe:(fun pass p -> observed := (pass, p) :: !observed)
          w.Workload.program
      in
      Alcotest.(check (list string))
        (w.Workload.name ^ ": observe fired after every pass")
        Driver.pass_names
        (List.rev_map fst !observed);
      List.iter
        (fun (pass, p) ->
          let d = Data.create p in
          w.Workload.init d;
          Exec.run p d;
          if not (Data.equal d0 d) then
            Alcotest.fail
              (Printf.sprintf
                 "%s: program after pass %S diverges from the base semantics"
                 w.Workload.name pass))
        (List.rev !observed))
    (Registry.small ())

let () =
  Alcotest.run "pass"
    [
      ( "pipeline",
        [
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "pass selection" `Quick test_pass_selection;
          Alcotest.test_case "a pass subset keeps the analysis" `Quick
            test_subset_keeps_analysis;
        ] );
      ( "executions",
        [
          Alcotest.test_case "unchanged program runs once" `Quick
            test_unchanged_program_runs_once;
          Alcotest.test_case "pinned per small workload" `Quick
            test_executions_pinned;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "postlude-shifted nests" `Quick
            test_postlude_shifted_nests;
        ] );
      ( "differential",
        [
          Alcotest.test_case "all passes, all workloads" `Slow
            test_differential_passes;
        ] );
    ]
