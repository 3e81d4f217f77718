open Memclust_util
open Memclust_codegen

type result = {
  cycles : int;
  breakdown : Breakdown.t;
  per_proc : Breakdown.t array;
  read_mshr_hist : Stats.Histogram.t;
  total_mshr_hist : Stats.Histogram.t;
  level_stats : Breakdown.level_stat array;
  l2_misses : int;
  read_misses : int;
  l1_misses : int;
  mshr_full_events : int;
  wbuf_full_events : int;
  prefetches : int;
  prefetch_misses : int;
  late_prefetches : int;
  avg_read_miss_latency : float;
  bus_utilization : float;
  bank_utilization : float;
  instructions : int;
  core_steps : int;
  executed_cycles : int;
}

let ns_per_cycle (cfg : Config.t) = 1000.0 /. float_of_int cfg.Config.clock_mhz

type mode = Cycle | Event

let mode_of_string s =
  match String.lowercase_ascii s with
  | "cycle" -> Some Cycle
  | "event" -> Some Event
  | _ -> None

let mode_to_string = function Cycle -> "cycle" | Event -> "event"

let resolve_mode ?mode (cfg : Config.t) =
  match (mode, cfg.Config.sim_mode) with
  | Some m, _ -> m
  | None, None -> Event
  | None, Some s -> (
      match mode_of_string s with
      | Some m -> m
      | None ->
          invalid_arg
            (Printf.sprintf
               "Config.sim_mode: expected \"cycle\" or \"event\", got %S" s))

(* ------------------------------------------------------------------ *)
(* The engine.

   Cycle mode ([run_cycle]) is the reference: every unfinished core
   steps in every cycle. Event mode ([run_event]) steps a core only when
   it can change: a core whose step made no progress sleeps until its own
   next event or until the barrier generation moves, and its skipped
   cycles are settled (statistics replayed) lazily. Both produce
   bit-identical results; see docs/PERF.md. *)

type engine = {
  sh : Core.shared;
  procs : Core.t array;
  read_hist : Stats.Histogram.t;
  total_hist : Stats.Histogram.t;
  mutable cycle : int;
  max_cycles : int;
  (* forward-progress watchdog (reads state only: the happy path stays
     bit-identical with it enabled) *)
  watchdog_cycles : int;
  time_budget : float;  (* wall-clock seconds; 0 disables *)
  start_wall : float;
  mutable last_progress : int;  (* cycle of the last core state change *)
  mode_name : string;
  (* event mode, per core: the cycle it next steps at ([max_int]: only a
     barrier arrival can wake it), the barrier generation it went to
     sleep under, and the first cycle its statistics do not cover yet *)
  wake : int array;
  wake_gen : int array;
  settled : int array;
  (* engine counters *)
  mutable core_steps : int;
  mutable executed_cycles : int;
}

let make_engine ?(max_cycles = 400_000_000) ?(watchdog_cycles = 1_000_000)
    ?(time_budget = 0.0) ~mode (cfg : Config.t) ~home (lower : Lower.t) =
  let nprocs = Array.length lower.Lower.traces in
  let sh = Core.make_shared cfg ~nprocs ~home in
  let procs =
    Array.mapi (fun p trace -> Core.create sh ~proc:p trace) lower.Lower.traces
  in
  {
    sh;
    procs;
    read_hist = Stats.Histogram.create (Config.lp cfg + 1);
    total_hist = Stats.Histogram.create (Config.lp cfg + 1);
    cycle = 0;
    max_cycles;
    watchdog_cycles;
    time_budget;
    start_wall = Unix.gettimeofday ();
    last_progress = 0;
    mode_name = mode_to_string mode;
    wake = Array.make nprocs 0;
    wake_gen = Array.make nprocs 0;
    settled = Array.make nprocs 0;
    core_steps = 0;
    executed_cycles = 0;
  }

(* The watchdog's state dump: per-proc PC, barrier progress, per-level
   MSHR occupancy and the pending completion events — everything needed
   to diagnose a wedge (MSHR exhaustion, barrier livelock) post mortem. *)
let state_dump e =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "simulator state at cycle %d:" e.cycle);
  Array.iteri
    (fun p c ->
      let mshrs =
        Core.mshr_occupancy_by_level c
        |> Array.to_list
        |> List.mapi (fun i (occ, cap) ->
               Printf.sprintf "L%d %d/%d" (i + 1) occ cap)
        |> String.concat " "
      in
      Buffer.add_string b
        (Printf.sprintf
           "\n  proc %d: pc %d/%d%s, barrier %d, mshrs [%s], next event %s"
           p (Core.position c)
           (Trace.length (Core.trace c))
           (if Core.finished c then " (finished)" else "")
           e.sh.Core.reached.(p) mshrs
           (match Core.next_event c ~now:e.cycle with
           | n when n = max_int -> "none"
           | n -> string_of_int n)))
    e.procs;
  Buffer.contents b

let deadlock e ~reason =
  Error.raise_err
    (Error.Sim_deadlock
       {
         cycle = e.cycle;
         mode = e.mode_name;
         reason;
         state_dump = state_dump e;
       })

(* Loop-top checks shared by both engines: the cycle budget and, every
   8192 executed cycles, the wall-clock budget. *)
let begin_cycle e =
  if e.cycle > e.max_cycles then
    deadlock e
      ~reason:
        (Printf.sprintf "exceeded the %d-cycle simulation budget" e.max_cycles);
  e.executed_cycles <- e.executed_cycles + 1;
  if
    e.time_budget > 0.0
    && e.executed_cycles land 8191 = 0
    && Unix.gettimeofday () -. e.start_wall > e.time_budget
  then
    deadlock e
      ~reason:
        (Printf.sprintf "exceeded the %.1fs wall-clock budget" e.time_budget)

let watch e ~progress =
  if progress then e.last_progress <- e.cycle
  else if e.cycle - e.last_progress > e.watchdog_cycles then
    deadlock e
      ~reason:
        (Printf.sprintf
           "no core issued, retired or completed an event for %d cycles \
            (watchdog budget %d)"
           (e.cycle - e.last_progress) e.watchdog_cycles)

(* Run the lockstep loop until the machine quiesces. *)
let run_cycle e =
  let nprocs = Array.length e.procs in
  let go = ref true in
  while !go do
    begin_cycle e;
    let running = ref false in
    let any_progress = ref false in
    for p = 0 to nprocs - 1 do
      if not (Core.finished e.procs.(p)) then begin
        Core.step e.procs.(p) ~now:e.cycle;
        e.core_steps <- e.core_steps + 1;
        if Core.progressed e.procs.(p) then any_progress := true;
        if not (Core.finished e.procs.(p)) then running := true
      end
      else begin
        (* finished early: waiting for the others *)
        let bd = Core.breakdown e.procs.(p) in
        bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. 1.0
      end;
      Stats.Histogram.add e.read_hist (Core.mshr_read_occupancy e.procs.(p));
      Stats.Histogram.add e.total_hist (Core.mshr_total_occupancy e.procs.(p))
    done;
    if !running then begin
      watch e ~progress:!any_progress;
      e.cycle <- e.cycle + 1
    end
    else go := false
  done

(* Account core [p]'s cycles from [settled.(p)] up to [upto] (exclusive),
   none of which it stepped: each repeats its last, no-progress step — or
   is a sync cycle once it has finished — and samples the same MSHR
   occupancy, which only the core's own steps change. *)
let settle e p ~upto =
  let k = upto - e.settled.(p) in
  if k > 0 then begin
    let c = e.procs.(p) in
    if Core.finished c then begin
      let bd = Core.breakdown c in
      bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. float_of_int k
    end
    else Core.replay_idle c ~times:k;
    Stats.Histogram.add_times e.read_hist (Core.mshr_read_occupancy c) k;
    Stats.Histogram.add_times e.total_hist (Core.mshr_total_occupancy c) k;
    e.settled.(p) <- upto
  end

(* Run the event engine until the machine quiesces; every core's
   statistics are settled up to the last cycle on return.

   A core steps in cycle [now] when its wake time has come or the barrier
   generation moved since it went to sleep; otherwise re-stepping it
   would repeat its last no-progress step exactly (see [Core.progressed]).
   Cores are visited in index order, so a sleeper above a processor that
   raises [reached] in this cycle is released in this cycle and one below
   it in the next — both as in the cycle loop. When no stepped core
   progressed, the clock jumps to the earliest wake time. *)
let run_event e =
  let nprocs = Array.length e.procs in
  let go = ref true in
  while !go do
    begin_cycle e;
    let now = e.cycle in
    let running = ref false in
    let any_progress = ref false in
    let next = ref max_int in
    for p = 0 to nprocs - 1 do
      let c = e.procs.(p) in
      if not (Core.finished c) then begin
        if e.wake.(p) <= now || e.wake_gen.(p) <> e.sh.Core.barrier_gen then begin
          settle e p ~upto:now;
          Core.step c ~now;
          e.core_steps <- e.core_steps + 1;
          Stats.Histogram.add e.read_hist (Core.mshr_read_occupancy c);
          Stats.Histogram.add e.total_hist (Core.mshr_total_occupancy c);
          e.settled.(p) <- now + 1;
          if Core.progressed c then begin
            any_progress := true;
            e.wake.(p) <- now + 1
          end
          else begin
            e.wake.(p) <- Core.next_event c ~now;
            e.wake_gen.(p) <- e.sh.Core.barrier_gen
          end
        end;
        if not (Core.finished c) then begin
          running := true;
          if e.wake.(p) < !next then next := e.wake.(p)
        end
      end
    done;
    if !running then begin
      watch e ~progress:!any_progress;
      if !any_progress then e.cycle <- now + 1
      else if !next = max_int then
        (* nothing pending anywhere yet cores are unfinished: a genuine
           deadlock — report it now with the machine state instead of
           spinning to the cycle budget *)
        deadlock e
          ~reason:
            "no completion pending on any processor and no core can make \
             progress"
      else e.cycle <- !next
    end
    else begin
      for p = 0 to nprocs - 1 do
        settle e p ~upto:(now + 1)
      done;
      go := false
    end
  done

let fold_procs e f = Array.fold_left (fun acc p -> acc + f p) 0 e.procs

(* per-level demand-load hits/misses summed over processors *)
let sum_level_stats e =
  let d = Core.hierarchy_depth e.procs.(0) in
  let acc =
    Array.init d (fun i -> Breakdown.level_create (Printf.sprintf "L%d" (i + 1)))
  in
  Array.iter
    (fun p ->
      Array.iteri (fun i l -> Breakdown.level_add acc.(i) l) (Core.level_stats p))
    e.procs;
  acc

let assemble e =
  let cycles = e.cycle + 1 in
  let per_proc = Array.map Core.breakdown e.procs in
  (* each processor was attributed for the cycles before its own finish
     only; pad with sync so every processor accounts for [cycles] *)
  Array.iter
    (fun bd ->
      let missing = float_of_int cycles -. Breakdown.total bd in
      if missing > 0.0 then
        bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. missing)
    per_proc;
  let breakdown = Breakdown.create () in
  Array.iter (fun bd -> Breakdown.add breakdown bd) per_proc;
  let breakdown =
    Breakdown.scale breakdown (1.0 /. float_of_int (Array.length e.procs))
  in
  let read_misses = fold_procs e Core.read_misses in
  let lat_sum =
    Array.fold_left (fun acc p -> acc +. Core.read_miss_latency_sum p) 0.0 e.procs
  in
  {
    cycles;
    breakdown;
    per_proc;
    read_mshr_hist = e.read_hist;
    total_mshr_hist = e.total_hist;
    level_stats = sum_level_stats e;
    l2_misses = fold_procs e Core.l2_misses;
    read_misses;
    l1_misses = fold_procs e Core.l1_misses;
    mshr_full_events = fold_procs e Core.mshr_full_events;
    wbuf_full_events = fold_procs e Core.wbuf_full_events;
    prefetches = fold_procs e Core.prefetches;
    prefetch_misses = fold_procs e Core.prefetch_misses;
    late_prefetches = fold_procs e Core.late_prefetches;
    avg_read_miss_latency =
      (if read_misses = 0 then 0.0 else lat_sum /. float_of_int read_misses);
    bus_utilization = Memsys.bus_utilization e.sh.Core.h.Hierarchy.mem ~upto:cycles;
    bank_utilization = Memsys.bank_utilization e.sh.Core.h.Hierarchy.mem ~upto:cycles;
    instructions = fold_procs e Core.retired_instructions;
    core_steps = e.core_steps;
    executed_cycles = e.executed_cycles;
  }

let run ?max_cycles ?watchdog_cycles ?time_budget ?mode (cfg : Config.t)
    ~home (lower : Lower.t) =
  let mode = resolve_mode ?mode cfg in
  let e =
    make_engine ?max_cycles ?watchdog_cycles ?time_budget ~mode cfg ~home lower
  in
  (match mode with Cycle -> run_cycle e | Event -> run_event e);
  assemble e

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>cycles %d, instrs %d (IPC %.2f)@,%a@,\
     memory misses %d (reads %d, avg latency %.1f cycles), mshr-full %d, wbuf-full %d@,\
     levels: %a@,\
     bus util %.2f, bank util %.2f@]"
    r.cycles r.instructions
    (float_of_int r.instructions /. float_of_int (max 1 r.cycles))
    Breakdown.pp r.breakdown r.l2_misses r.read_misses r.avg_read_miss_latency
    r.mshr_full_events r.wbuf_full_events
    Breakdown.pp_levels r.level_stats
    r.bus_utilization r.bank_utilization
