(* Resilience: the watchdog stays silent on healthy runs, fault injection
   is deterministic and bit-transparent when disabled, the chaos-tested
   fail-safe pipeline always ships a valid equivalent program, and the
   domain pool contains crashes to the task that crashed. *)

open Memclust_ir
open Memclust_util
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads

let lowered (w : Workload.t) ~nprocs =
  let p = Program.renumber w.Workload.program in
  let data = Data.create p in
  w.Workload.init data;
  Lower.build ~nprocs p data

(* ------------------------------- watchdog ------------------------------- *)

(* Every small workload, both modes, with a watchdog budget far below the
   run length: a healthy simulation must never trip it, and the two modes
   must stay bit-identical with it armed. *)
let test_watchdog_silent_on_healthy_runs () =
  List.iter
    (fun (w : Workload.t) ->
      let l = lowered w ~nprocs:1 in
      let run mode =
        Machine.run ~mode ~watchdog_cycles:100_000 Config.base
          ~home:(fun _ -> 0)
          l
      in
      let rc = run Machine.Cycle in
      let re = run Machine.Event in
      Alcotest.(check int)
        (w.Workload.name ^ " cycle/event identical under watchdog")
        rc.Machine.cycles re.Machine.cycles)
    (Registry.small ())

let test_watchdog_reports_deadlock () =
  let w = List.hd (Registry.small ()) in
  let l = lowered w ~nprocs:1 in
  match
    Machine.run ~watchdog_cycles:2 ~mode:Machine.Cycle Config.base
      ~home:(fun _ -> 0)
      l
  with
  | _ -> Alcotest.fail "a 2-cycle watchdog budget must fire on a miss stall"
  | exception Error.Error (Error.Sim_deadlock d) ->
      Alcotest.(check string) "mode recorded" "cycle" d.mode;
      Alcotest.(check bool) "dump names a proc" true
        (String.length d.state_dump > 0
        && String.index_opt d.state_dump 'p' <> None)
  | exception e -> raise e

(* --------------------------- fault injection ---------------------------- *)

let run_with_faults ?plan () =
  let w = Registry.latbench () in
  let small = { w with Workload.program = w.Workload.program } in
  let cfg =
    match plan with
    | None -> Config.base
    | Some p -> Config.with_faults p Config.base
  in
  let l = lowered small ~nprocs:1 in
  Machine.run ~mode:Machine.Event cfg ~home:(fun _ -> 0) l

let test_fault_plan_deterministic () =
  let plan = Faults.scaled ~seed:42 0.2 in
  let r1 = run_with_faults ~plan () in
  let r2 = run_with_faults ~plan () in
  Alcotest.(check int) "same seed, same cycles" r1.Machine.cycles
    r2.Machine.cycles;
  Alcotest.(check (float 0.0001)) "same seed, same latency"
    r1.Machine.avg_read_miss_latency r2.Machine.avg_read_miss_latency;
  let r3 = run_with_faults ~plan:(Faults.scaled ~seed:43 0.2) () in
  Alcotest.(check bool) "faults actually perturb the run" true
    (r3.Machine.cycles <> r1.Machine.cycles)

let test_faults_slow_the_machine () =
  let clean = run_with_faults () in
  let faulty = run_with_faults ~plan:(Faults.scaled ~seed:7 0.3) () in
  Alcotest.(check bool) "injected faults cost cycles" true
    (faulty.Machine.cycles > clean.Machine.cycles)

let test_zero_probability_plan_is_transparent () =
  let clean = run_with_faults () in
  let zero = run_with_faults ~plan:(Faults.plan ~seed:9 ()) () in
  Alcotest.(check int) "bit-identical cycles" clean.Machine.cycles
    zero.Machine.cycles;
  Alcotest.(check int) "bit-identical misses" clean.Machine.read_misses
    zero.Machine.read_misses

let test_faults_of_string () =
  (match Faults.of_string "42" with
  | Ok p ->
      Alcotest.(check int) "seed" 42 p.Faults.seed;
      Alcotest.(check (float 1e-9)) "default rate" 0.05 p.Faults.delay_prob
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "7:0.5" with
  | Ok p ->
      Alcotest.(check (float 1e-9)) "rate" 0.5 p.Faults.delay_prob;
      Alcotest.(check (float 1e-9)) "nack rate" 0.25 p.Faults.nack_prob
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Ok _ -> Alcotest.failf "%S must not parse" s
      | Error _ -> ())
    [ ""; "x"; "1:2.0"; "1:-0.1"; "1:0.1:3" ]

(* --------------------------- chaos pipeline ----------------------------- *)

let small_lu () = Lu.make ~n:16 ~block:8 ()

let final_store (w : Workload.t) p =
  let d = Data.create p in
  w.Workload.init d;
  Exec.run p d;
  d

(* Under unconditional sabotage (rate 1.0: every pass crashes or
   corrupts), the fail-safe pipeline must still terminate, ship valid IR,
   and preserve the source program's semantics — worst case by shipping
   it untransformed. *)
let test_chaos_pipeline_stays_correct () =
  let w = small_lu () in
  let reference = lazy (final_store w (Program.renumber w.Workload.program)) in
  List.iter
    (fun chaos_seed ->
      let options =
        {
          Driver.default_options with
          chaos = Some { Pass.chaos_seed; chaos_rate = 1.0; fail_pass = None };
        }
      in
      let p, report =
        Driver.run ~options ~init:w.Workload.init w.Workload.program
      in
      (match Program.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: invalid IR shipped: %s" chaos_seed m);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: semantics preserved" chaos_seed)
        true
        (Data.equal (Lazy.force reference) (final_store w p));
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: sabotage recorded as degraded" chaos_seed)
        true
        (Pass.Pipeline.degraded_passes report.Driver.trace <> []))
    [ 1; 2; 3; 4; 5 ]

let test_forced_pass_failure_degrades () =
  let w = small_lu () in
  let options =
    {
      Driver.default_options with
      chaos =
        Some
          { Pass.chaos_seed = 0; chaos_rate = 0.0; fail_pass = Some "unroll-jam" };
    }
  in
  let p, report =
    Driver.run ~options ~init:w.Workload.init w.Workload.program
  in
  let degraded = Pass.Pipeline.degraded_passes report.Driver.trace in
  Alcotest.(check bool) "unroll-jam rolled back" true
    (List.mem_assoc "unroll-jam" degraded);
  Alcotest.(check bool) "only the sabotaged pass degrades" true
    (List.for_all (fun (pass, _) -> String.equal pass "unroll-jam") degraded);
  Alcotest.(check bool) "semantics preserved" true
    (Data.equal
       (final_store w (Program.renumber w.Workload.program))
       (final_store w p))

(* a misspelt [fail_pass] would sabotage nothing: the driver refuses it *)
let test_unknown_fail_pass_raises () =
  let w = small_lu () in
  let options =
    {
      Driver.default_options with
      chaos = Some { Pass.chaos_seed = 0; chaos_rate = 0.0; fail_pass = Some "nosuch" };
    }
  in
  match Driver.run ~options ~init:w.Workload.init w.Workload.program with
  | _ -> Alcotest.fail "an unknown fail_pass must raise"
  | exception Invalid_argument m ->
      Alcotest.(check bool) "names the pass" true
        (String.starts_with ~prefix:"Cluster.Driver: unknown pass nosuch" m)

let test_chaos_spec_parses () =
  (match
     Pass.chaos_of_strings ~spec:(Some "11:0.5") ~fail_pass:(Some "schedule")
   with
  | Some { Pass.chaos_seed = 11; chaos_rate = 0.5; fail_pass = Some "schedule" }
    ->
      ()
  | _ -> Alcotest.fail "chaos spec not parsed");
  Alcotest.(check bool) "unset -> None" true
    (Pass.chaos_of_strings ~spec:None ~fail_pass:None = None);
  Alcotest.(check bool) "empty -> None" true
    (Pass.chaos_of_strings ~spec:(Some "") ~fail_pass:(Some "") = None);
  List.iter
    (fun s ->
      match Pass.chaos_of_strings ~spec:(Some s) ~fail_pass:None with
      | _ -> Alcotest.failf "%S must not parse" s
      | exception Invalid_argument m ->
          Alcotest.(check string) "error text"
            (Printf.sprintf "expected SEED[:RATE] with RATE in [0,1], got %S" s)
            m)
    [ "x"; "1:2"; "1:0.5:3" ]

(* Registry-size workloads through the pipeline as [repro trace] runs
   them; each degraded pass as "NAME c" (crash) or "NAME d" (divergence) *)
let degraded_under chaos (w : Workload.t) =
  let options =
    {
      Driver.default_options with
      machine =
        {
          (Memclust_harness.Experiment.machine_of_config Config.base) with
          Machine_model.max_procs = max 1 w.Workload.mp_procs;
        };
      chaos = Some chaos;
    }
  in
  let _, report = Driver.run ~options ~init:w.Workload.init w.Workload.program in
  List.map
    (fun (pass, reason) ->
      let starts p = String.starts_with ~prefix:p reason in
      if starts "pass crashed" then pass ^ " c"
      else if starts "differential execution" then pass ^ " d"
      else pass ^ " ? " ^ reason)
    (Pass.Pipeline.degraded_passes report.Driver.trace)

let chaos seed rate = { Pass.chaos_seed = seed; chaos_rate = rate; fail_pass = None }

(* A corrupted candidate that reads a scalar it no longer defines makes
   the interpreter raise during differential execution: the guard must
   degrade the pass, not let the exception out. *)
let test_guard_contains_interpreter_errors () =
  List.iter
    (fun name ->
      let w = Option.get (Registry.by_name name) in
      Alcotest.(check bool)
        (name ^ " degrades at least one pass")
        true
        (degraded_under (chaos 3 0.5) w <> []))
    [ "MST"; "Latbench" ];
  let w = Option.get (Registry.by_name "MST") in
  let options =
    {
      Driver.default_options with
      chaos = Some { (chaos 0 0.0) with fail_pass = Some "analyze" };
    }
  in
  let _, report = Driver.run ~options ~init:w.Workload.init w.Workload.program in
  match Pass.Pipeline.degraded_passes report.Driver.trace with
  | [ (pass, reason) ] ->
      Alcotest.(check string) "names the pass" "analyze" pass;
      Alcotest.(check bool) "carries the interpreter error" true
        (String.starts_with ~prefix:"differential execution: candidate raised"
           reason)
  | ds ->
      Alcotest.failf "expected analyze alone to degrade, got [%s]"
        (String.concat "; " (List.map fst ds))

(* The passes each plan sabotages, and how each fails, as recorded before
   sabotage moved out of the pipeline into a pass wrapper. *)
let test_chaos_degrades_pinned_passes () =
  let check name plan expected =
    Alcotest.(check (list string))
      name expected
      (degraded_under plan (Option.get (Registry.by_name name)))
  in
  check "LU" (chaos 7 1.0)
    [ "analyze c"; "unroll-jam d"; "window-unroll c"; "scalar-replace d"; "schedule d" ];
  List.iter
    (fun (name, expected) -> check name (chaos 3 0.5) expected)
    [
      ("Em3d", [ "analyze c"; "unroll-jam d" ]);
      ("Erlebacher", [ "analyze d"; "window-unroll d"; "scalar-replace c" ]);
      ("FFT", [ "analyze c"; "unroll-jam c"; "window-unroll d"; "schedule d" ]);
      ("LU", [ "unroll-jam d"; "window-unroll d"; "scalar-replace d" ]);
      ("Mp3d", [ "schedule c" ]);
      ("Ocean", [ "analyze c"; "unroll-jam c"; "window-unroll d"; "scalar-replace c" ]);
    ]

(* The pipeline shares one execution per program between P_m profiling
   and the guard. A second clustering finds every profile in the
   process-wide cache, and must still run the guard: the same passes
   degrade both times. *)
let test_warm_profile_cache_keeps_guard () =
  List.iter
    (fun name ->
      let w = Option.get (Registry.by_name name) in
      Analysis_cache.clear_all ();
      let cold = degraded_under (chaos 3 0.5) w in
      let warm = degraded_under (chaos 3 0.5) w in
      Alcotest.(check bool) (name ^ " degrades at least one pass") true (cold <> []);
      Alcotest.(check (list string)) (name ^ " warm run degrades the same passes")
        cold warm)
    [ "Erlebacher"; "LU"; "Mp3d" ]

(* --------------------------- crash containment -------------------------- *)

let test_map_result_contains_crashes () =
  let pool = Domain_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let results =
        Domain_pool.map_result ~task_name:string_of_int pool
          (fun i -> if i = 3 then failwith "boom" else i * 10)
          [ 1; 2; 3; 4 ]
      in
      match results with
      | [ Ok 10; Ok 20; Error (Error.Worker_crashed { task; attempts; _ }); Ok 40 ]
        ->
          Alcotest.(check string) "task named" "3" task;
          Alcotest.(check int) "retried once" 2 attempts
      | _ -> Alcotest.fail "expected exactly task 3 to fail")

let test_map_result_retries_transient_failures () =
  let pool = Domain_pool.create ~domains:0 () in
  let tries = Atomic.make 0 in
  let results =
    Domain_pool.map_result pool
      (fun i ->
        if i = 1 && Atomic.fetch_and_add tries 1 = 0 then failwith "transient";
        i)
      [ 0; 1 ]
  in
  Alcotest.(check bool) "transient failure retried into Ok" true
    (results = [ Ok 0; Ok 1 ]);
  Alcotest.(check int) "took two attempts" 2 (Atomic.get tries)

let test_map_result_preserves_structured_errors () =
  let pool = Domain_pool.create ~domains:0 () in
  let results =
    Domain_pool.map_result pool
      (fun () ->
        Error.raise_err
          (Error.Sim_deadlock
             { cycle = 9; mode = "cycle"; reason = "r"; state_dump = "d" }))
      [ () ]
  in
  match results with
  | [ Error (Error.Sim_deadlock { cycle = 9; _ }) ] -> ()
  | _ -> Alcotest.fail "structured error must survive the pool unwrapped"

(* ------------------------------ checkpoint ------------------------------ *)

let test_checkpoint_roundtrip () =
  let dir = "checkpoint-test-tmp" in
  let ck = Memclust_harness.Checkpoint.create dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "empty" false
        (Memclust_harness.Checkpoint.mem ck "fig3a");
      Memclust_harness.Checkpoint.save ck "fig3a" "table body\n";
      Alcotest.(check bool) "saved" true
        (Memclust_harness.Checkpoint.mem ck "fig3a");
      Alcotest.(check (option string)) "loads back" (Some "table body\n")
        (Memclust_harness.Checkpoint.load ck "fig3a");
      Memclust_harness.Checkpoint.save ck "fig3a" "v2\n";
      Alcotest.(check (option string)) "overwrite is atomic+last-wins"
        (Some "v2\n")
        (Memclust_harness.Checkpoint.load ck "fig3a");
      Memclust_harness.Checkpoint.save ck "table1" "x\n";
      Alcotest.(check (list string)) "saved ids sorted" [ "fig3a"; "table1" ]
        (Memclust_harness.Checkpoint.saved ck);
      match Memclust_harness.Checkpoint.load ck "../escape" with
      | exception Error.Error (Error.Config_invalid _) -> ()
      | _ -> Alcotest.fail "path-escaping ids must be rejected")

(* ROADMAP's stale-checkpoint bug: resuming under a fault plan replayed
   the fault-free artifact *)
let test_checkpoint_keyed_on_settings () =
  let module Checkpoint = Memclust_harness.Checkpoint in
  let module Settings = Memclust_harness.Settings in
  let dir = "checkpoint-settings-tmp" in
  let faulty =
    { Settings.default with faults = Some (Faults.scaled ~seed:3 0.5) }
  in
  let clean = Checkpoint.create dir in
  let under_faults = Checkpoint.create ~settings:faulty dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Checkpoint.save clean "latbench" "fault-free\n";
      Alcotest.(check (option string)) "not replayed under other settings" None
        (Checkpoint.load under_faults "latbench");
      Checkpoint.save under_faults "latbench" "faulty\n";
      Alcotest.(check (option string)) "each settings sees its own"
        (Some "fault-free\n")
        (Checkpoint.load (Checkpoint.create dir) "latbench");
      Alcotest.(check (option string)) "and the faulty one its own"
        (Some "faulty\n")
        (Checkpoint.load under_faults "latbench");
      Alcotest.(check (list string)) "saved ids per settings" [ "latbench" ]
        (Checkpoint.saved under_faults))

let () =
  Alcotest.run "resilience"
    [
      ( "watchdog",
        [
          Alcotest.test_case "silent on healthy runs (all modes)" `Slow
            test_watchdog_silent_on_healthy_runs;
          Alcotest.test_case "reports deadlock with state dump" `Quick
            test_watchdog_reports_deadlock;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "faults cost cycles" `Quick
            test_faults_slow_the_machine;
          Alcotest.test_case "zero-probability plan transparent" `Quick
            test_zero_probability_plan_is_transparent;
          Alcotest.test_case "of_string" `Quick test_faults_of_string;
        ] );
      ( "chaos pipeline",
        [
          Alcotest.test_case "always valid and equivalent" `Slow
            test_chaos_pipeline_stays_correct;
          Alcotest.test_case "forced failure degrades" `Quick
            test_forced_pass_failure_degrades;
          Alcotest.test_case "unknown fail_pass raises" `Quick
            test_unknown_fail_pass_raises;
          Alcotest.test_case "spec parses" `Quick test_chaos_spec_parses;
          Alcotest.test_case "guard contains interpreter errors" `Quick
            test_guard_contains_interpreter_errors;
          Alcotest.test_case "warm profile cache keeps the guard" `Slow
            test_warm_profile_cache_keeps_guard;
          Alcotest.test_case "degrades the pinned passes" `Slow
            test_chaos_degrades_pinned_passes;
        ] );
      ( "crash containment",
        [
          Alcotest.test_case "map_result contains crashes" `Quick
            test_map_result_contains_crashes;
          Alcotest.test_case "map_result retries transients" `Quick
            test_map_result_retries_transient_failures;
          Alcotest.test_case "structured errors survive" `Quick
            test_map_result_preserves_structured_errors;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "keyed on settings" `Quick
            test_checkpoint_keyed_on_settings;
        ] );
    ]
