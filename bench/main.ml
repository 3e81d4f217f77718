(* Benchmark harness.

   Two parts:

   1. Reproduction of every table and figure in the paper's evaluation
      (Table 1, Table 2, Section 5.1 Latbench, Figure 3(a)/(b), Table 3,
      Figure 4(a)/(b), Section 5.2 1 GHz) — each regenerated from scratch
      by the experiment harness and printed next to the paper's numbers.
      Pass experiment ids as arguments to run a subset.

   2. Bechamel microbenchmarks of the pipeline stages those experiments
      are built from (analysis, transformation, lowering, simulation), so
      regressions in the machinery itself are visible. Pass "micro" to run
      only these.

   3. Simulator-mode wall-clock comparison ("sim"): exact event-driven vs
      sampled simulation on the registry workloads, recording speedups and
      whether the exact results land inside the sampled confidence
      intervals. "sim smoke" runs the tiny workload sizes and additionally
      cross-checks cycle-vs-event bit-identity.

   JSON trails (BENCH_micro.json, BENCH_sim.json) are written at the repo
   root regardless of the working directory.  *)

open Bechamel
open Toolkit
open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Memclust_transform
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness

(* JSON trails go next to dune-project so "dune exec bench/main.exe" and a
   direct _build/default/bench/main.exe run agree on where they land. *)
let repo_root () =
  let rec up d =
    if Sys.file_exists (Filename.concat d "dune-project") then d
    else
      let parent = Filename.dirname d in
      if String.equal parent d then Sys.getcwd () else up parent
  in
  up (Sys.getcwd ())

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures                              *)
(* ------------------------------------------------------------------ *)

let run_experiments ids =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
      match Figures.by_id id with
      | Some f -> Printf.printf "==== %s ====\n%s\n\n%!" id (f ())
      | None -> Printf.eprintf "unknown experiment id %s\n" id)
    ids;
  Printf.printf
    "==== sweep wall-clock: %.1f s (%d experiments, sim mode %s, %d pool \
     domains) ====\n\
     %!"
    (Unix.gettimeofday () -. t0)
    (List.length ids)
    (Machine.mode_to_string (Machine.resolve_mode Config.base))
    (Memclust_util.Domain_pool.size (Memclust_util.Domain_pool.default ()))

(* ------------------------------------------------------------------ *)
(* Part 1b: per-pass transformation time                               *)
(* ------------------------------------------------------------------ *)

(* Wall time each pipeline pass spends on each workload, straight from
   the pass manager's instrumentation trace — the transformation-side
   complement to the microbenchmarks below. *)
let run_pass_times () =
  let ws = Registry.latbench () :: Registry.applications () in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let machine =
          {
            (Experiment.machine_of_config Config.base) with
            Machine_model.max_procs = max 1 w.Workload.mp_procs;
          }
        in
        let options = { Driver.default_options with machine } in
        let _, report =
          Driver.run ~options ~init:w.Workload.init w.Workload.program
        in
        let t = report.Driver.trace in
        w.Workload.name
        :: List.map
             (fun (e : Pass.Pipeline.entry) ->
               if e.Pass.Pipeline.ran then
                 Memclust_util.Table.fmt_float e.Pass.Pipeline.wall_ms
               else "-")
             t.Pass.Pipeline.entries)
      ws
  in
  Printf.printf "==== per-pass transformation time (ms) ====\n";
  Memclust_util.Table.print ~header:("workload" :: Driver.pass_names) rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: pipeline microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

(* a small matrix-traversal nest (the Figure 2 example) *)
let fig2_program n =
  let open Builder in
  program "fig2"
    ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "s" n ]
    [
      loop "j" (cst 0) (cst n)
        [
          loop "i" (cst 0) (cst n)
            [
              store (aref "s" (ix "j"))
                (arr "s" (ix "j") + arr "a" (idx2 ~cols:n (ix "j") (ix "i")));
            ];
        ];
    ]

let micro_tests () =
  let n = 64 in
  let p = fig2_program n in
  let loc = Locality.analyze ~line_size:64 p in
  let inner =
    match p.Ast.body with
    | [ Ast.Loop l ] -> (
        match l.Ast.body with
        | [ Ast.Loop i ] -> Depgraph.Counted i
        | _ -> assert false)
    | _ -> assert false
  in
  let outer =
    match p.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false
  in
  let graph = Depgraph.analyze loc inner in
  let data = Data.create p in
  let em3d = Em3d.make ~nodes:512 ~degree:4 () in
  let affine = Affine.of_terms [ ("i", 1); ("j", n) ] 3 in
  let env v = if String.equal v "i" then 7 else 11 in
  let small_sim () =
    let d = Data.create p in
    let lowered = Lower.build ~nprocs:1 p d in
    ignore (Machine.run Config.base ~home:(fun _ -> 0) lowered)
  in
  [
    Test.make ~name:"affine-eval" (Staged.stage (fun () -> Affine.eval env affine));
    Test.make ~name:"locality-analyze"
      (Staged.stage (fun () -> Locality.analyze ~line_size:64 p));
    Test.make ~name:"depgraph-analyze"
      (Staged.stage (fun () -> Depgraph.analyze loc inner));
    Test.make ~name:"f-estimate"
      (Staged.stage (fun () ->
           Festimate.compute Machine_model.base loc ~pm:(fun _ -> 1.0) ~graph inner));
    Test.make ~name:"unroll-and-jam"
      (Staged.stage (fun () -> Unroll_jam.apply ~factor:8 outer));
    Test.make ~name:"scalar-replace"
      (Staged.stage (fun () -> Scalar_replace.apply_innermost p));
    Test.make ~name:"miss-pack-schedule"
      (Staged.stage (fun () -> Schedule.pack_misses loc outer.Ast.body));
    Test.make ~name:"lower-trace"
      (Staged.stage (fun () -> Lower.build ~nprocs:1 p (Data.copy data)));
    Test.make ~name:"simulate-small" (Staged.stage small_sim);
    Test.make ~name:"profile-pm"
      (Staged.stage (fun () ->
           let d = Data.create em3d.Workload.program in
           em3d.Workload.init d;
           Profile.run em3d.Workload.program d));
    Test.make ~name:"cluster-driver"
      (Staged.stage (fun () ->
           Driver.run
             ~options:{ Driver.default_options with profile_pm = false }
             p));
  ]

let run_micro () =
  let tests = Test.make_grouped ~name:"memclust" ~fmt:"%s %s" (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Bechamel.Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "==== microbenchmarks (ns per run) ====\n";
  let json_rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "  %-36s %12.1f\n" name est;
              json_rows := (name, Some est) :: !json_rows
          | Some l ->
              Printf.printf "  %-36s %12s\n" name
                (String.concat ","
                   (List.map (fun e -> Printf.sprintf "%.1f" e) l));
              json_rows := (name, None) :: !json_rows
          | None ->
              Printf.printf "  %-36s %12s\n" name "n/a";
              json_rows := (name, None) :: !json_rows)
        rows)
    results;
  print_newline ();
  (* machine-readable trail for tracking the perf trajectory across PRs *)
  let rows = List.rev !json_rows in
  let oc = open_out (Filename.concat (repo_root ()) "BENCH_micro.json") in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (match est with Some e -> Printf.sprintf "%.1f" e | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "(ns/run also written to BENCH_micro.json)\n%!"

(* ------------------------------------------------------------------ *)
(* Part 3: simulator-mode wall-clock comparison                        *)
(* ------------------------------------------------------------------ *)

type sim_row = {
  sr_workload : string;
  sr_version : string;
  sr_mode : string;
  sr_cycles : int;
  sr_wall_s : float;
  sr_speedup_vs_event : float option;
  sr_exact_in_ci : bool option;
      (* sampled rows: exact event cycle count inside the sampled CI *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let write_sim_json rows ratio_checks =
  let path = Filename.concat (repo_root ()) "BENCH_sim.json" in
  let oc = open_out path in
  let b = function true -> "true" | false -> "false" in
  Printf.fprintf oc "{\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"version\": %S, \"mode\": %S, \"cycles\": \
         %d, \"wall_s\": %.4f, \"speedup_vs_event\": %s, \"exact_in_ci\": \
         %s}%s\n"
        r.sr_workload r.sr_version r.sr_mode r.sr_cycles r.sr_wall_s
        (match r.sr_speedup_vs_event with
        | Some s -> Printf.sprintf "%.2f" s
        | None -> "null")
        (match r.sr_exact_in_ci with Some v -> b v | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"ratio_checks\": [\n";
  List.iteri
    (fun i (w, exact, est, rel, ok) ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"exact_ratio\": %.4f, \"sampled_ratio\": \
         %.4f, \"rel_ci\": %.4f, \"within_ci\": %s}%s\n"
        w exact est rel (b ok)
        (if i = List.length ratio_checks - 1 then "" else ","))
    ratio_checks;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "(written to %s)\n%!" path

let run_sim args =
  let smoke = List.mem "smoke" args in
  let names = List.filter (fun a -> not (String.equal a "smoke")) args in
  let ws =
    if smoke then Registry.small ()
    else if names = [] then Registry.latbench () :: Registry.applications ()
    else
      List.filter_map
        (fun n ->
          match Registry.by_name n with
          | Some w -> Some w
          | None ->
              Printf.eprintf "unknown workload %s\n" n;
              None)
        names
  in
  let sampled_params =
    if smoke then
      (* tiny traces: shrink the period so several windows still fit *)
      match Sampling.parse "sampled:2048:512:128" with
      | Some p -> p
      | None -> assert false
    else Sampling.default
  in
  Printf.printf "==== simulator modes: event vs %s ====\n%!"
    (Sampling.to_string sampled_params);
  let rows = ref [] in
  let ratio_checks = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let nprocs = max 1 w.Workload.mp_procs in
      let cfg = Config.with_l2 w.Workload.l2_bytes Config.base in
      let versions =
        [
          ("base", Program.renumber w.Workload.program);
          ("clustered", fst (Experiment.transform cfg w));
        ]
      in
      let cis =
        List.map
          (fun (vname, program) ->
            let data = Data.create program in
            w.Workload.init data;
            let lowered = Lower.build ~nprocs program data in
            let home = Data.home_of_addr data ~nprocs in
            let ev, ev_wall =
              time (fun () ->
                  Machine.run cfg ~mode:Machine.Event ~home lowered)
            in
            rows :=
              {
                sr_workload = w.Workload.name;
                sr_version = vname;
                sr_mode = "event";
                sr_cycles = ev.Machine.cycles;
                sr_wall_s = ev_wall;
                sr_speedup_vs_event = None;
                sr_exact_in_ci = None;
              }
              :: !rows;
            if smoke then begin
              let cy, cy_wall =
                time (fun () ->
                    Machine.run cfg ~mode:Machine.Cycle ~home lowered)
              in
              if cy.Machine.cycles <> ev.Machine.cycles then
                failwith
                  (Printf.sprintf "%s/%s: cycle mode %d <> event mode %d"
                     w.Workload.name vname cy.Machine.cycles ev.Machine.cycles);
              rows :=
                {
                  sr_workload = w.Workload.name;
                  sr_version = vname;
                  sr_mode = "cycle";
                  sr_cycles = cy.Machine.cycles;
                  sr_wall_s = cy_wall;
                  sr_speedup_vs_event = None;
                  sr_exact_in_ci = None;
                }
                :: !rows
            end;
            let (sres, est), s_wall =
              time (fun () ->
                  Machine.run_estimated cfg
                    ~mode:(Machine.Sampled sampled_params) ~home lowered)
            in
            let est =
              match est with Some e -> e | None -> assert false
            in
            let ci = est.Sampling.cycles_ci in
            let in_ci =
              Sampling.in_ci ci (float_of_int ev.Machine.cycles)
            in
            let speedup = ev_wall /. Float.max 1e-9 s_wall in
            rows :=
              {
                sr_workload = w.Workload.name;
                sr_version = vname;
                sr_mode = "sampled";
                sr_cycles = sres.Machine.cycles;
                sr_wall_s = s_wall;
                sr_speedup_vs_event = Some speedup;
                sr_exact_in_ci = Some in_ci;
              }
              :: !rows;
            Printf.printf
              "  %-10s %-10s event %8d cyc %7.3fs | sampled %8d ± %.0f cyc \
               %7.3fs | %5.1fx %s\n\
               %!"
              w.Workload.name vname ev.Machine.cycles ev_wall sres.Machine.cycles
              ci.Sampling.half s_wall speedup
              (if in_ci then "(exact in CI)" else "(exact OUTSIDE CI)");
            (ev, est))
          versions
      in
      (* does the sampled base-vs-clustered cycle ratio agree with the
         exact one, to within the combined relative CI? *)
      match cis with
      | [ (ev_b, est_b); (ev_c, est_c) ] ->
          let exact =
            float_of_int ev_b.Machine.cycles /. float_of_int ev_c.Machine.cycles
          in
          let est =
            est_b.Sampling.cycles_ci.Sampling.est
            /. est_c.Sampling.cycles_ci.Sampling.est
          in
          let rel =
            (est_b.Sampling.cycles_ci.Sampling.half
            /. est_b.Sampling.cycles_ci.Sampling.est)
            +. est_c.Sampling.cycles_ci.Sampling.half
               /. est_c.Sampling.cycles_ci.Sampling.est
          in
          let ok = Float.abs (exact -. est) <= est *. rel in
          Printf.printf
            "  %-10s base/clustered ratio: exact %.3f, sampled %.3f ± %.1f%% \
             %s\n\
             %!"
            w.Workload.name exact est (100.0 *. rel)
            (if ok then "(agrees)" else "(DISAGREES)");
          ratio_checks := (w.Workload.name, exact, est, rel, ok) :: !ratio_checks
      | _ -> ())
    ws;
  write_sim_json (List.rev !rows) (List.rev !ratio_checks)

let () =
  (* fail fast if a preset was edited into an inconsistent state *)
  List.iter Config.validate_exn
    [ Config.base; Config.exemplar_like; Config.three_level ];
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      run_experiments Figures.all_ids;
      run_pass_times ();
      run_micro ()
  | [ "micro" ] -> run_micro ()
  | [ "passes" ] -> run_pass_times ()
  | "sim" :: rest -> run_sim rest
  | ids -> run_experiments ids
