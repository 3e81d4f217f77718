open Memclust_ir
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
module Analysis_cache = Memclust_util.Analysis_cache

type version = Base | Clustered | Prefetched | Clustered_prefetched

type spec = {
  workload : Workload.t;
  config : Config.t;
  nprocs : int;
  version : version;
}

type outcome = {
  spec : spec;
  result : Machine.result;
  cluster_report : Driver.report option;
  trace : Pass.Pipeline.trace option;
  program : Ast.program;
}

let machine_of_config (cfg : Config.t) =
  {
    Machine_model.window = cfg.Config.window;
    (* the effective outstanding-miss bound: the smallest MSHR file in
       the hierarchy stack *)
    mshrs = Config.lp cfg;
    line_size = Config.line cfg;
    max_unroll = 16;
    max_procs = 16;
  }

(* Clustering is deterministic: memoize per (workload, machine model,
   chaos plan) so the multiprocessor and uniprocessor runs share one
   transformation.

   All memo tables are [Analysis_cache]s: mutex-guarded (shared across the
   domains of the experiment pool) and bounded, so long bench sweeps can't
   grow memory without bound. Computation runs outside the lock: two
   domains racing on the same key may duplicate (deterministic) work, but
   Figures deduplicates its spec lists so this stays rare. *)
let cluster_cache : (Ast.program * Driver.report) Analysis_cache.t =
  Analysis_cache.create ~cap:128 ~name:"harness-cluster" ()

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let transform ?(settings = Settings.default) (cfg : Config.t) (w : Workload.t) =
  let options = Settings.options settings Driver.default_options in
  let machine =
    { (machine_of_config cfg) with
      Machine_model.max_procs = max 1 w.Workload.mp_procs
    }
  in
  (* key on the analysis-side machine projection, not the config name:
     configs that differ only in latencies/clock (e.g. the 1 GHz point)
     share one clustering; a chaos plan changes what the pipeline ships *)
  let key =
    Printf.sprintf "%s@w%d.m%d.l%d.p%d|%s" w.Workload.name
      machine.Machine_model.window machine.Machine_model.mshrs
      machine.Machine_model.line_size machine.Machine_model.max_procs
      (digest options.Driver.chaos)
  in
  Analysis_cache.find_or_compute cluster_cache key (fun () ->
      let options = { options with machine } in
      Driver.run ~options ~init:w.Workload.init w.Workload.program)

let scaled_config (cfg : Config.t) (w : Workload.t) =
  (* single-level hierarchies (Exemplar) keep their cache; multi-level
     stacks scale the memory-side level per the workload class *)
  if Config.depth cfg >= 2 then Config.with_l2 w.Workload.l2_bytes cfg else cfg

(* Lowered traces depend only on (program, workload init, nprocs) — not on
   the simulated machine — so one lowering serves every config that
   simulates the same program. Keyed by a structural digest of the
   program: distinct clusterings hash apart, identical ones (e.g. the
   same workload clustered for two MSHR counts that lead to the same
   transformation) hash together. The trace and the home map are
   immutable once built, so sharing across runs is safe. Lowered traces
   are the largest values we memoize, so this cache has the smallest
   cap. *)
let lower_cache : (Lower.t * (int -> int)) Analysis_cache.t =
  Analysis_cache.create ~cap:32 ~name:"harness-lower" ()

let lowered_for (w : Workload.t) ~nprocs program =
  let key =
    Printf.sprintf "%s|%d|%s" w.Workload.name nprocs (digest program)
  in
  Analysis_cache.find_or_compute lower_cache key (fun () ->
      let data = Data.create program in
      w.Workload.init data;
      let lowered = Lower.build ~nprocs program data in
      let home = Data.home_of_addr data ~nprocs in
      (lowered, home))

(* One more memo on top of [lowered_for]: the simulation result itself,
   keyed by (workload, nprocs, full config contents, program digest).
   Different figures frequently simulate the same program point — e.g.
   the ablation's "full pipeline" variant is exactly the Clustered
   version of the main tables — and [Machine.result] is only ever read
   by the reporting code. *)
let sim_cache : Machine.result Analysis_cache.t =
  Analysis_cache.create ~cap:512 ~name:"harness-sim" ()

(* the watchdogs only decide whether a run completes, never its result,
   so they stay out of the key *)
let simulate_cached ?(settings = Settings.default) (w : Workload.t)
    (cfg : Config.t) ~nprocs program =
  let cfg = Settings.config settings cfg in
  let key =
    Printf.sprintf "%s|%d|%s|%s" w.Workload.name nprocs (digest cfg)
      (digest program)
  in
  Analysis_cache.find_or_compute sim_cache key (fun () ->
      let lowered, home = lowered_for w ~nprocs program in
      Machine.run ?watchdog_cycles:settings.Settings.watchdog_cycles
        ?time_budget:settings.Settings.time_budget cfg ~home lowered)

let execute ?settings spec =
  let cfg = scaled_config spec.config spec.workload in
  let program, cluster_report =
    match spec.version with
    | Base -> (Program.renumber spec.workload.Workload.program, None)
    | Clustered ->
        let p, r = transform ?settings cfg spec.workload in
        (p, Some r)
    | Prefetched ->
        let p, _ =
          Memclust_transform.Prefetch_pass.insert
            ~latency:cfg.Config.mem_lat ~issue_width:cfg.Config.issue_width
            ~line_size:(Config.line cfg)
            (Program.renumber spec.workload.Workload.program)
        in
        (p, None)
    | Clustered_prefetched ->
        let p, r = transform ?settings cfg spec.workload in
        let p, _ =
          Memclust_transform.Prefetch_pass.insert
            ~latency:cfg.Config.mem_lat ~issue_width:cfg.Config.issue_width
            ~line_size:(Config.line cfg) p
        in
        (p, Some r)
  in
  let result =
    simulate_cached ?settings spec.workload cfg ~nprocs:spec.nprocs program
  in
  let trace = Option.map (fun (r : Driver.report) -> r.Driver.trace) cluster_report in
  { spec; result; cluster_report; trace; program }

let outcome_cache : outcome Analysis_cache.t =
  Analysis_cache.create ~cap:512 ~name:"harness-outcome" ()

(* an outcome is fixed by what produced it: the config's contents (with
   the settings' mode and faults applied) and the chaos plan; the config
   name is there for the progress log *)
let spec_key ?(settings = Settings.default) spec =
  Printf.sprintf "%s|%s|%d|%s|%s" spec.workload.Workload.name
    spec.config.Config.name spec.nprocs
    (match spec.version with
    | Base -> "base"
    | Clustered -> "clust"
    | Prefetched -> "pf"
    | Clustered_prefetched -> "clust+pf")
    (digest (Settings.config settings spec.config, settings.Settings.chaos))

let execute_cached ?settings spec =
  let key = spec_key ?settings spec in
  match Analysis_cache.find_opt outcome_cache key with
  | Some o -> o
  | None ->
      Printf.eprintf "[run] %s...\n%!" key;
      let o = execute ?settings spec in
      Analysis_cache.set outcome_cache key o;
      o

let execute_result ?settings spec =
  Memclust_util.Error.guard ~task:(spec_key ?settings spec) (fun () ->
      execute_cached ?settings spec)

let clear_caches () = Analysis_cache.clear_all ()

let exec_cycles o = o.result.Machine.cycles

let data_stall o = o.result.Machine.breakdown.Breakdown.data_stall
