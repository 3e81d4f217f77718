(* Worker process of the memclust benchmark.

   One invocation does one process's share of a benchmark run and prints
   its raw measurements as a single JSON object on the last line of
   standard output; run.py builds this program, starts it, checks the
   determinism ledger and prints the benchmark's result line. See
   README.md for the workloads and the layer -> metric map.

   usage: bench.exe simulate_mp --setups K --programs FILE   (set-up)
          bench.exe simulate_mp --programs FILE --point KEY  (one point)
          bench.exe simulate_mp --trace 1 --seed N --spans FILE
          bench.exe reproduce_up --seed N [--trace 1 --spans FILE]
          bench.exe reproduce_up --setup-only
   plus [--inject store|instrs|table]

   Every layer is called through its public interface, from here:
   Driver.run (with its ?observe hook), Profile.run, Data.create plus
   Workload.init, Lower.build, Machine.run and Figures.run_safe. Nothing
   inside lib/ is instrumented. *)

open Memclust_util
open Memclust_ir
open Memclust_locality
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads
open Memclust_harness

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec write_json b = function
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Printf.bprintf b "%d" i
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write_json b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write_json b (Str k);
          Buffer.add_char b ':';
          write_json b v)
        kvs;
      Buffer.add_char b '}'

let json_string v =
  let b = Buffer.create 4096 in
  write_json b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Host measurements                                                   *)
(* ------------------------------------------------------------------ *)

(* Bytes allocated by every domain so far. [Gc.allocated_bytes] counts the
   calling domain only; [Gc.quick_stat] also folds in the counters of
   domains that have terminated, so the harness workload shuts its pool
   down before reading this. The calling domain's counters are brought up
   to date only by a minor collection, hence the [Gc.minor]. *)
let allocated () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Spans and per-layer counters (traced runs only)                     *)
(* ------------------------------------------------------------------ *)

let tracing = ref false

type span = {
  id : int;
  name : string;
  point : string;  (** spans of one experiment point share this id *)
  parent : int;  (** -1 for a root span *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let open_spans : (int * string) list ref = ref []
let next_id = ref 0

let add_span ~name ~point ~parent t0 t1 =
  let id = !next_id in
  incr next_id;
  spans := { id; name; point; parent; t0; t1 } :: !spans

let current_span () =
  match !open_spans with (id, point) :: _ -> (id, point) | [] -> (-1, "")

(* Layer accumulators: host seconds and allocated bytes. *)
type acc = { mutable secs : float; mutable bytes : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

let acc layer =
  match Hashtbl.find_opt accs layer with
  | Some a -> a
  | None ->
      let a = { secs = 0.0; bytes = 0.0 } in
      Hashtbl.replace accs layer a;
      a

(* [span ?layer ?point name f] runs [f]. When tracing it records a span
   named [name] (a child of the innermost open span, inheriting its point
   id unless [point] is given) and, with [layer], charges the call's host
   time and allocation to that layer's accumulator. Untraced runs pay one
   branch. *)
let span ?layer ?point name f =
  if not !tracing then f ()
  else begin
    let parent, ppoint = current_span () in
    let point = Option.value point ~default:ppoint in
    let id = !next_id in
    incr next_id;
    open_spans := (id, point) :: !open_spans;
    let a0 = allocated () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans := { id; name; point; parent; t0; t1 } :: !spans;
      Option.iter
        (fun l ->
          let a = acc l in
          a.secs <- a.secs +. (t1 -. t0);
          a.bytes <- a.bytes +. (allocated () -. a0))
        layer
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Which layer a span's self time belongs to. *)
let layer_of_span name =
  if String.starts_with ~prefix:"pass." name || String.equal name "driver.run"
  then "pipeline"
  else
    match name with
    | "data.init" -> "data"
    | "profile.run" -> "profile"
    | "lower.build" -> "lower"
    | "machine.run" -> "sim"
    | "figures.run_safe" -> "harness"
    | _ -> "bench"

let self_layers = [ "bench"; "data"; "profile"; "pipeline"; "lower"; "sim"; "harness" ]

(* Self time = duration minus the part covered by child spans (children
   of one parent never overlap: everything traced runs on one domain). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
      Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    !spans;
  let self = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = layer_of_span s.name in
      let own =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      Hashtbl.replace self l
        (own +. Option.value (Hashtbl.find_opt self l) ~default:0.0))
    !spans;
  List.map
    (fun l -> (l, Option.value (Hashtbl.find_opt self l) ~default:0.0))
    self_layers

let write_spans file =
  let t_base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  let span_json s =
    Obj
      [
        ("id", Int s.id);
        ("name", Str s.name);
        ("point", Str s.point);
        ("parent", Int s.parent);
        ("start_s", Num (s.t0 -. t_base));
        ("end_s", Num (s.t1 -. t_base));
      ]
  in
  let oc = open_out file in
  output_string oc
    (json_string
       (Obj
          [
            ("spans", List (List.rev_map span_json !spans));
            ("self_s", Obj (List.map (fun (l, v) -> (l, Num v)) (self_times ())));
          ]));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failures : string list ref = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    failures := what :: !failures;
    Printf.eprintf "[check failed] %s\n%!" what
  end

(* Deliberate corruption for the checker self-test. *)
let inject : string option ref = ref None
let injecting kind = Option.equal String.equal !inject (Some kind)

(* ------------------------------------------------------------------ *)
(* Calls into the layers                                               *)
(* ------------------------------------------------------------------ *)

let machine_for (cfg : Config.t) (w : Workload.t) =
  {
    (Experiment.machine_of_config cfg) with
    Machine_model.max_procs = max 1 w.Workload.mp_procs;
  }

(* The workload's scaled L2 on multi-level stacks, as the harness does. *)
let scaled (cfg : Config.t) (w : Workload.t) =
  if Config.depth cfg >= 2 then Config.with_l2 w.Workload.l2_bytes cfg else cfg

let fresh_data (w : Workload.t) program =
  span ~layer:"data" "data.init" (fun () ->
      let d = Data.create program in
      w.Workload.init d;
      d)

(* Driver.run as the harness calls it. When tracing, the gaps between
   successive ?observe calls become pass.<name> spans: each covers the
   pass's rewrite plus the pipeline's renumber / validate / differential
   guard for it. *)
let cluster ?(options = Driver.default_options) ?(init = true) ~point cfg w =
  let options = { options with Driver.machine = machine_for cfg w } in
  let init = if init then Some w.Workload.init else None in
  span ~layer:"pipeline" ~point "driver.run" (fun () ->
      if not !tracing then Driver.run ~options ?init w.Workload.program
      else begin
        let parent, _ = current_span () in
        let last = ref (now ()) in
        let observe name _ =
          let t = now () in
          add_span ~name:("pass." ^ name) ~point ~parent !last t;
          last := t
        in
        Driver.run ~options ?init ~observe w.Workload.program
      end)

type point = {
  key : string;
  w : Workload.t;
  cfg : Config.t;  (** already scaled *)
  nprocs : int;
  clustered : bool;
  program : Ast.program;
}

type outcome = {
  pt : point;
  cycles : int;
  instructions : int;
  lower_instrs : int;
  result : Machine.result;
  lower_bytes : float;  (** reachable bytes of the Lower.t (traced runs) *)
}

(* Data init, lowering and simulation of one point; [None] when the
   simulator fails. *)
let simulate pt =
  span ~point:pt.key "point" (fun () ->
      let data = fresh_data pt.w pt.program in
      let lowered =
        span ~layer:"lower" "lower.build" (fun () ->
            Lower.build ~nprocs:pt.nprocs pt.program data)
      in
      let lower_bytes =
        if !tracing then
          float_of_int (Obj.reachable_words (Obj.repr lowered) * (Sys.word_size / 8))
        else 0.0
      in
      let home = Data.home_of_addr data ~nprocs:pt.nprocs in
      match
        span ~layer:"sim" "machine.run" (fun () -> Machine.run pt.cfg ~home lowered)
      with
      | result ->
          let lower_instrs = Lower.total_instructions lowered in
          let expect = if injecting "instrs" then lower_instrs + 1 else lower_instrs in
          check
            (Printf.sprintf "%s: simulated %d instructions, trace holds %d" pt.key
               result.Machine.instructions expect)
            (result.Machine.instructions = expect);
          Some
            {
              pt;
              cycles = result.Machine.cycles;
              instructions = result.Machine.instructions;
              lower_instrs;
              result;
              lower_bytes;
            }
      | exception Error.Error e ->
          check (Printf.sprintf "%s: %s" pt.key (Error.to_string e)) false;
          None)

(* Points are keyed "<workload>/p<n>/<config>" for base and the same plus
   "/clustered"; run.py pairs them by that key for the speedup. *)
let point_key (w : Workload.t) (cfg : Config.t) nprocs clustered =
  Printf.sprintf "%s/p%d/%s%s" w.Workload.name nprocs cfg.Config.name
    (if clustered then "/clustered" else "")

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let default_passes =
  [ "uniquify"; "analyze"; "unroll-jam"; "window-unroll"; "scalar-replace"; "schedule" ]

let mb bytes = bytes /. 1048576.0

(* Pipeline metrics over the clusterings of one traced pass: reports,
   final programs, and the variant timings that isolate P_m profiling
   and the differential guard. *)
let pipeline_metrics ~reports ~programs ~t_default ~t_noprof ~t_noguard =
  let pass_s name =
    List.fold_left
      (fun acc s ->
        if String.equal s.name ("pass." ^ name) then acc +. (s.t1 -. s.t0) else acc)
      0.0 !spans
  in
  let count f =
    List.fold_left (fun n (r : Driver.report) -> n + f r) 0 reports
  in
  let pa = acc "pipeline" in
  [
    ("pipeline.s", Num pa.secs);
    ("pipeline.alloc_mb", Num (mb pa.bytes));
    ( "pipeline.degraded",
      Int (count (fun r -> List.length (Pass.Pipeline.degraded_passes r.Driver.trace))) );
    ( "pipeline.unroll_jams",
      Int
        (count (fun r ->
             List.fold_left
               (fun n (nr : Driver.nest_report) ->
                 n
                 + List.length
                     (List.filter
                        (function Driver.Unroll_jam _ -> true | _ -> false)
                        nr.Driver.actions))
               0 r.Driver.nests)) );
    ( "pipeline.ir_stmts_out",
      Int
        (List.fold_left
           (fun n p -> n + (Pass.Pipeline.measure p).Pass.Pipeline.stmts)
           0 programs) );
    ("profile.share", Num ((t_default -. t_noprof) /. t_default));
    ("guard.s", Num (t_noprof -. t_noguard));
  ]
  @ List.map (fun p -> ("pass." ^ p ^ ".s", Num (pass_s p))) default_passes

(* Time the two pipeline variants, and Profile.run itself, for each
   clustered point: profile_pm=false isolates profiling; additionally
   dropping the data initializer disables the differential guard (with
   P_m fixed at 1 the passes take the same decisions either way).
   failsafe=false would not do: it still runs every check, and only
   raises instead of rolling back. *)
let variant_timings points =
  let noprof = { Driver.default_options with Driver.profile_pm = false } in
  let time f =
    Experiment.clear_caches ();
    let t0 = now () in
    ignore (f ());
    now () -. t0
  in
  List.fold_left
    (fun (np, ng) (point, cfg, (w : Workload.t)) ->
      let data = fresh_data w w.Workload.program in
      ignore
        (span ~layer:"profile" ~point "profile.run" (fun () ->
             Profile.run ~line_size:(Config.line cfg) w.Workload.program data));
      let tracing_was = !tracing in
      tracing := false;
      let a = time (fun () -> cluster ~options:noprof ~point cfg w) in
      let b = time (fun () -> cluster ~options:noprof ~init:false ~point cfg w) in
      tracing := tracing_was;
      (np +. a, ng +. b))
    (0.0, 0.0) points

let sum_int f outs = List.fold_left (fun n o -> n + f o) 0 outs
let sum_float f outs = List.fold_left (fun n o -> n +. f o) 0.0 outs

let read_occupancy_mean (r : Machine.result) =
  let acc = ref 0.0 in
  for k = 1 to 64 do
    acc := !acc +. Stats.Histogram.fraction_at_least r.Machine.read_mshr_hist k
  done;
  !acc

(* Modelled statistics, split base / clustered: sums of counts, and
   means of per-point ratios (read-miss latency weighted by misses). *)
let sim_metrics outs =
  let outs = List.sort (fun a b -> compare a.pt.key b.pt.key) outs in
  let side clustered =
    let os = List.filter (fun o -> o.pt.clustered = clustered) outs in
    let n = float_of_int (max 1 (List.length os)) in
    let suffix = if clustered then ".clustered" else ".base" in
    let misses = sum_int (fun o -> o.result.Machine.read_misses) os in
    List.map
      (fun (k, v) -> (k ^ suffix, v))
      [
        ("sim.cycles", Int (sum_int (fun o -> o.cycles) os));
        ("sim.read_misses", Int misses);
        ("sim.mshr_full_events", Int (sum_int (fun o -> o.result.Machine.mshr_full_events) os));
        ( "sim.read_miss_latency",
          Num
            (sum_float
               (fun o ->
                 o.result.Machine.avg_read_miss_latency
                 *. float_of_int o.result.Machine.read_misses)
               os
            /. float_of_int (max 1 misses)) );
        ("sim.read_mshr_occupancy_mean", Num (sum_float (fun o -> read_occupancy_mean o.result) os /. n));
        ("sim.bus_util", Num (sum_float (fun o -> o.result.Machine.bus_utilization) os /. n));
        ("sim.bank_util", Num (sum_float (fun o -> o.result.Machine.bank_utilization) os /. n));
        ( "sim.data_stall_frac",
          Num
            (sum_float (fun o -> o.result.Machine.breakdown.Breakdown.data_stall) os
            /. float_of_int (max 1 (sum_int (fun o -> o.cycles) os))) );
      ]
  in
  let la = acc "lower" and sa = acc "sim" in
  let instrs = sum_int (fun o -> o.instructions) outs in
  let lower_instrs = sum_int (fun o -> o.lower_instrs) outs in
  [
    ("data.init_s", Num (acc "data").secs);
    ("lower.s", Num la.secs);
    ("lower.instrs", Int lower_instrs);
    ("lower.alloc_mb", Num (mb la.bytes));
    ( "lower.bytes_per_instr",
      Num (sum_float (fun o -> o.lower_bytes) outs /. float_of_int (max 1 lower_instrs)) );
    ("sim.s", Num sa.secs);
    ("sim.mips", Num (float_of_int instrs /. sa.secs /. 1e6));
    ( "sim.alloc_bytes_per_cycle",
      Num (sa.bytes /. float_of_int (max 1 (sum_int (fun o -> o.cycles) outs))) );
  ]
  @ side false @ side true

let up_ids = [ "fig3b"; "latbench" ]

(* [artifact_s] holds the artifacts this run rendered; the others read 0. *)
let harness_metrics ~artifact_s ~pool_domains =
  List.map
    (fun id ->
      ( "harness.artifact_s." ^ id,
        Num (Option.value (List.assoc_opt id artifact_s) ~default:0.0) ))
    up_ids
  @ List.map
      (fun (name, n) -> ("harness.cache_entries." ^ name, Int n))
      (Analysis_cache.registered ())
  @ [ ("harness.pool_domains", Int pool_domains) ]

(* ------------------------------------------------------------------ *)
(* Workload: simulate_mp                                               *)
(* ------------------------------------------------------------------ *)

let mp_workloads () =
  List.filter (fun w -> w.Workload.mp_procs > 1) (Registry.applications ())

(* Clustering of the six multiprocessor workloads: the workload's set-up.
   It runs in registry order whatever the seed: unroll-and-jam stamps the
   scalars it renames from a process-wide counter, so the clustered
   programs' names (and the bytes later allocated to run them) depend on
   what was clustered earlier in the process. *)
let mp_setup () =
  (* drop the driver's profile memo, so that every set-up profiles *)
  Experiment.clear_caches ();
  List.map
    (fun (w : Workload.t) ->
      let cfg = scaled Config.base w in
      let program, report =
        cluster ~point:(point_key w cfg w.Workload.mp_procs true) cfg w
      in
      (w, cfg, program, report))
    (mp_workloads ())

(* The clustering's outputs: no pass rolled back, and the clustered
   program's final store equal to the base program's under the reference
   executor. *)
let check_clusterings clusterings =
  List.iter
    (fun ((w : Workload.t), _, program, (report : Driver.report)) ->
      let degraded = Pass.Pipeline.degraded_passes report.Driver.trace in
      check
        (Printf.sprintf "%s: degraded passes %s" w.Workload.name
           (String.concat "," (List.map fst degraded)))
        (degraded = []);
      let base = Program.renumber w.Workload.program in
      let run p =
        let d = Data.create p in
        w.Workload.init d;
        Exec.run p d;
        d
      in
      let d_base = run base and d_clust = run program in
      if injecting "store" then begin
        let a = (List.hd program.Ast.arrays).Ast.a_name in
        Data.set d_clust a 0
          (match Data.get d_clust a 0 with
          | Ast.Vfloat f -> Ast.Vfloat (f +. 1.0)
          | Ast.Vint i -> Ast.Vint (i + 1)
          | Ast.Vptr p -> Ast.Vptr (p + 64))
      end;
      check
        (Printf.sprintf "%s: clustered final store differs from base" w.Workload.name)
        (Data.equal d_base d_clust))
    clusterings

(* Base and clustered points of every workload, from the clustered
   programs by workload name. *)
let mp_points clustered_programs =
  List.concat_map
    (fun (w : Workload.t) ->
      let cfg = scaled Config.base w and n = w.Workload.mp_procs in
      [
        { key = point_key w cfg n false; w; cfg; nprocs = n; clustered = false;
          program = Program.renumber w.Workload.program };
        { key = point_key w cfg n true; w; cfg; nprocs = n; clustered = true;
          program = List.assoc w.Workload.name clustered_programs };
      ])
    (mp_workloads ())

let clustered_programs clusterings =
  List.map (fun ((w : Workload.t), _, p, _) -> (w.Workload.name, p)) clusterings

type iteration = {
  wall_s : float;
  alloc_bytes : float;
  outs : outcome list;
}

(* Points in turn. Each starts from a collected heap, outside the timed
   region, so that neither its time nor the process's peak RSS depends on
   which points ran before it; [wall_s] is the sum of the points' times. *)
let run_points points =
  let wall_s = ref 0.0 and alloc_bytes = ref 0.0 in
  let outs =
    span ~point:"" "iteration" (fun () ->
        List.filter_map
          (fun pt ->
            Gc.full_major ();
            let a0 = allocated () in
            let t0 = now () in
            let o = simulate pt in
            wall_s := !wall_s +. (now () -. t0);
            alloc_bytes := !alloc_bytes +. (allocated () -. a0);
            o)
          points)
  in
  { wall_s = !wall_s; alloc_bytes = !alloc_bytes; outs }

let iteration_json it =
  Obj
    [
      ("wall_s", Num it.wall_s);
      ("alloc_bytes", Num it.alloc_bytes);
      ( "points",
        List
          (List.map
             (fun o ->
               Obj
                 [
                   ("key", Str o.pt.key);
                   ("cycles", Int o.cycles);
                   ("instructions", Int o.instructions);
                   ("lower_instrs", Int o.lower_instrs);
                 ])
             it.outs) );
    ]

(* What a set-up decided, by workload: IR size and every nest's actions.
   Set-ups are compared on this rather than on the programs, whose renamed
   scalars differ by stamp (see [mp_setup]). *)
let decisions clusterings =
  List.map
    (fun ((w : Workload.t), _, p, (r : Driver.report)) ->
      (w.Workload.name, Pass.Pipeline.measure p, r.Driver.nests))
    clusterings

(* The set-up process of an untraced run: [setups] timed clusterings,
   which must all decide alike; the first one's output is checked and
   saved for the point processes. *)
let mp_setup_process ~setups ~programs_file =
  let setups =
    List.init setups (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        let c = mp_setup () in
        (now () -. t0, c))
  in
  let clusterings = snd (List.hd setups) in
  List.iteri
    (fun i (_, c) ->
      check
        (Printf.sprintf "setup %d: clustering decisions differ from setup 1" (i + 2))
        (decisions c = decisions clusterings))
    (List.tl setups);
  check_clusterings clusterings;
  let oc = open_out_bin programs_file in
  Marshal.to_channel oc (clustered_programs clusterings) [];
  close_out oc;
  [
    ("setup_s", List (List.map (fun (s, _) -> Num s) setups));
    ("points", List (List.map (fun pt -> Str pt.key) (mp_points (clustered_programs clusterings))));
  ]

(* One point of an untraced iteration, alone in a fresh process: the
   host's per-process speed varies by more than a single process's
   iterations do, so run.py spreads every iteration over 12 processes. *)
let mp_point_process ~programs_file ~key =
  let ic = open_in_bin programs_file in
  let programs : (string * Ast.program) list = Marshal.from_channel ic in
  close_in ic;
  let pt = List.find (fun pt -> String.equal pt.key key) (mp_points programs) in
  [ ("iterations", List [ iteration_json (run_points [ pt ]) ]) ]

(* The traced run, in one process: a set-up, an untraced iteration, the
   pipeline variants, then the traced iteration. *)
let simulate_mp_traced ~seed =
  let t0 = now () in
  let clusterings = span "setup" mp_setup in
  let setup_s = now () -. t0 in
  check_clusterings clusterings;
  let points = shuffle seed (mp_points (clustered_programs clusterings)) in
  tracing := false;
  let untraced = run_points points in
  tracing := true;
  let t_default = (acc "pipeline").secs in
  let t_noprof, t_noguard =
    variant_timings
      (List.map
         (fun ((w : Workload.t), cfg, _, _) ->
           (point_key w cfg w.Workload.mp_procs true, cfg, w))
         clusterings)
  in
  let it = run_points points in
  [
    ("setup_s", List [ Num setup_s ]);
    ("iterations", List [ iteration_json untraced ]);
    ( "layers",
      Obj
        (pipeline_metrics
           ~reports:(List.map (fun (_, _, _, r) -> r) clusterings)
           ~programs:(List.map (fun (_, _, p, _) -> p) clusterings)
           ~t_default ~t_noprof ~t_noguard
        @ [ ("profile.run_s", Num (acc "profile").secs) ]
        @ sim_metrics it.outs
        @ harness_metrics ~artifact_s:[] ~pool_domains:0
        @ [ ("trace.overhead_s", Num (it.wall_s -. untraced.wall_s)) ]) );
  ]

(* ------------------------------------------------------------------ *)
(* Workload: reproduce_up                                              *)
(* ------------------------------------------------------------------ *)

(* The (workload, config) pairs behind fig3b and latbench, each simulated
   base and clustered at p=1. *)
let up_targets () =
  List.map (fun w -> (Config.base, w)) (Registry.applications ())
  @ [ (Config.base, Registry.latbench ()); (Config.exemplar_like, Registry.latbench ()) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Reference tables, relative to the checkout root run.py runs from. *)
let reference = "perfbench/reference"

let reproduce_up ~seed ~traced =
  let pool = Domain_pool.default () in
  let pool_domains = Domain_pool.size pool in
  let targets = up_targets () in
  Gc.full_major ();
  let a0 = allocated () in
  let t_start = now () in
  let artifacts =
    List.map
      (fun id ->
        let t = now () in
        let r = span ~layer:"harness" ~point:id "figures.run_safe" (fun () -> Figures.run_safe id) in
        (id, r, now () -. t))
      (shuffle seed up_ids)
  in
  let wall_s = now () -. t_start in
  (* joining the worker folds its allocation counters into ours *)
  Domain_pool.shutdown pool;
  let alloc_bytes = allocated () -. a0 in
  List.iter
    (fun (id, r, _) ->
      match r with
      | Error e -> check (Printf.sprintf "%s: %s" id (Error.to_string e)) false
      | Ok text ->
          let text = if injecting "table" then text ^ "\n" else text in
          let want = read_file (Filename.concat reference (id ^ ".txt")) in
          check (Printf.sprintf "%s: rendered table differs from %s/%s.txt" id reference id)
            (String.equal text want))
    artifacts;
  (* the harness's outcome cache now holds every point: read it back (the
     harness keeps no Lower.t, so its instruction count stands for the
     trace's, which the simulator checks equal in simulate_mp) *)
  let outs =
    List.concat_map
      (fun (cfg, (w : Workload.t)) ->
        List.map
          (fun clustered ->
            let o =
              Experiment.execute_cached
                { Experiment.workload = w; config = cfg; nprocs = 1;
                  version = (if clustered then Experiment.Clustered else Experiment.Base) }
            in
            let r = o.Experiment.result in
            { pt = { key = point_key w cfg 1 clustered; w; cfg; nprocs = 1; clustered;
                     program = o.Experiment.program };
              cycles = r.Machine.cycles; instructions = r.Machine.instructions;
              lower_instrs = r.Machine.instructions; result = r; lower_bytes = 0.0 })
          [ false; true ])
      targets
  in
  let layers =
    if not traced then []
    else begin
      let artifact_s = List.map (fun (id, _, s) -> (id, s)) artifacts in
      let harness = harness_metrics ~artifact_s ~pool_domains in
      (* The harness hides its layer calls; replay the same points through
         the layers directly to attribute the work. *)
      Experiment.clear_caches ();
      let replay = shuffle seed targets in
      let clustered =
        span "replay" (fun () ->
            List.map
              (fun (cfg, (w : Workload.t)) ->
                let p, r = cluster ~point:(point_key w cfg 1 true) cfg w in
                (cfg, w, p, r))
              replay)
      in
      let t_default = (acc "pipeline").secs in
      let t_noprof, t_noguard =
        variant_timings
          (List.map (fun (cfg, w) -> (point_key w cfg 1 true, cfg, w)) replay)
      in
      let points =
        List.concat_map
          (fun (cfg, (w : Workload.t), p, _) ->
            let cfg' = scaled cfg w in
            [ { key = point_key w cfg 1 false; w; cfg = cfg'; nprocs = 1; clustered = false;
                program = Program.renumber w.Workload.program };
              { key = point_key w cfg 1 true; w; cfg = cfg'; nprocs = 1; clustered = true;
                program = p } ])
          clustered
      in
      let it = run_points points in
      pipeline_metrics
        ~reports:(List.map (fun (_, _, _, r) -> r) clustered)
        ~programs:(List.map (fun (_, _, p, _) -> p) clustered)
        ~t_default ~t_noprof ~t_noguard
      @ [ ("profile.run_s", Num (acc "profile").secs) ]
      @ sim_metrics it.outs @ harness
    end
  in
  [
    ("iterations", List [ iteration_json { wall_s; alloc_bytes; outs } ]);
    ( "cache_entries",
      Obj (List.map (fun (n, k) -> (n, Int k)) (Analysis_cache.registered ())) );
    ("layers", Obj layers);
    ("pool_domains", Int pool_domains);
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let setups = ref 3 in
  let programs_file = ref "" in
  let point = ref "" in
  let trace = ref 0 in
  let setup_only = ref false in
  let spans_file = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed (permutes point order)");
      ("--setups", Arg.Set_int setups, "K set-ups to time (simulate_mp)");
      ("--programs", Arg.Set_string programs_file, "FILE clustered programs (simulate_mp)");
      ("--point", Arg.Set_string point, "KEY run this one point (simulate_mp)");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--setup-only", Arg.Set setup_only, " reproduce_up: set up, then exit");
      ("--spans", Arg.Set_string spans_file, "FILE where a traced run writes its spans");
      ("--inject", Arg.String (fun s -> inject := Some s), "store|instrs|table corrupt a checked output");
    ]
    (fun s -> workload := s)
    "bench.exe WORKLOAD [options]";
  let traced = !trace = 1 in
  tracing := traced;
  let fields =
    match !workload with
    | "simulate_mp" when traced -> simulate_mp_traced ~seed:!seed
    | "simulate_mp" when !point <> "" ->
        mp_point_process ~programs_file:!programs_file ~key:!point
    | "simulate_mp" -> mp_setup_process ~setups:!setups ~programs_file:!programs_file
    | "reproduce_up" when !setup_only ->
        (* the set-up of a fresh reproduce_up process: runtime and module
           initialisation plus the pool; run.py times it from spawn to exit *)
        ignore (Domain_pool.default ());
        exit 0
    | "reproduce_up" -> reproduce_up ~seed:!seed ~traced
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  let layers =
    match List.assoc_opt "layers" fields with Some (Obj l) -> l | _ -> []
  in
  let self_s =
    if traced then begin
      if !spans_file <> "" then write_spans !spans_file;
      List.map (fun (l, v) -> ("self_s." ^ l, Num v)) (self_times ())
    end
    else []
  in
  let field k default = Option.value (List.assoc_opt k fields) ~default in
  print_endline
    (json_string
       (Obj
          [
            ("setup_s", field "setup_s" (List []));
            ("iterations", field "iterations" (List []));
            ("points", field "points" (List []));
            ("cache_entries", field "cache_entries" (Obj []));
            ("peak_rss_mb", Num (peak_rss_mb ()));
            ("attempted", Int !attempted);
            ("failures", List (List.rev_map (fun s -> Str s) !failures));
            ("layers", Obj (layers @ self_s));
            ( "provenance",
              Obj
                [
                  ("sim_mode", Str (Machine.mode_to_string (Machine.resolve_mode Config.base)));
                  ("pool_domains", field "pool_domains" (Int 0));
                  ("ocaml", Str Sys.ocaml_version);
                ] );
          ]))
