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

type mode = Cycle | Event | Sampled of Sampling.params

let mode_of_string s =
  match String.lowercase_ascii s with
  | "cycle" -> Some Cycle
  | "event" -> Some Event
  | ls ->
      if String.length ls >= 7 && String.equal (String.sub ls 0 7) "sampled"
      then Option.map (fun p -> Sampled p) (Sampling.parse ls)
      else None

let mode_to_string = function
  | Cycle -> "cycle"
  | Event -> "event"
  | Sampled p -> Sampling.to_string p

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
               "Config.sim_mode: expected \"cycle\", \"event\" or \
                \"sampled[:period:window[:warmup]]\", got %S"
               s))

(* ------------------------------------------------------------------ *)
(* The engine, factored so sampled mode can run it in bounded bursts.

   Cycle mode ([run_cycle]) is the reference: every unfinished core
   steps in every cycle. Event mode ([advance]) steps a core only when it
   can change: a core whose step made no progress sleeps until its own
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
  mutable mode_name : string;
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
    ?(time_budget = 0.0)
    (cfg : Config.t) ~home (lower : Lower.t) =
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
    mode_name = "event";
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

let settle_all e ~upto =
  for p = 0 to Array.length e.procs - 1 do
    settle e p ~upto
  done

(* After the clock jumped without simulating (a sampled-mode fast-forward
   leg): the skipped cycles are accounted to nobody, and every core steps
   at the new cycle, whatever it was waiting for. *)
let resync e =
  Array.fill e.settled 0 (Array.length e.settled) e.cycle;
  Array.fill e.wake 0 (Array.length e.wake) e.cycle

(* Run the event engine until the machine quiesces (returns [false]) or
   [stop] fires right after a cycle advance (returns [true]); a stopped
   engine resumes mid-run with the next call, continuing exactly where it
   left off. Either way every core's statistics are settled up to the
   current cycle on return.

   A core steps in cycle [now] when its wake time has come or the barrier
   generation moved since it went to sleep; otherwise re-stepping it
   would repeat its last no-progress step exactly (see [Core.progressed]).
   Cores are visited in index order, so a sleeper above a processor that
   raises [reached] in this cycle is released in this cycle and one below
   it in the next — both as in the cycle loop. When no stepped core
   progressed, the clock jumps to the earliest wake time. *)
let advance e ~stop =
  let nprocs = Array.length e.procs in
  let live = ref true in
  let go = ref true in
  (* the legs between [advance] calls (sampled-mode fast-forwards) are
     not the engine's to police: forgive them, watch within this call *)
  e.last_progress <- e.cycle;
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
      else e.cycle <- !next;
      if stop () then begin
        settle_all e ~upto:e.cycle;
        go := false
      end
    end
    else begin
      settle_all e ~upto:(now + 1);
      go := false;
      live := false
    end
  done;
  !live

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

(* The result record of an exact (unsampled) run: identical to the
   pre-refactor assembly. *)
let assemble_exact e =
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

(* ------------------------------------------------------------------ *)
(* Sampled mode: systematic sampling with functional fast-forward. *)

(* counter snapshot, for window deltas *)
type snap = {
  n_cycle : int;
  n_instr : int;
  n_l2 : int;
  n_rm : int;
  n_rlat : float;
  n_l1 : int;
  n_mf : int;
  n_wf : int;
  n_pf : int;
  n_pfm : int;
  n_lpf : int;
  n_lvl_h : int array;
  n_lvl_m : int array;
}

let snapshot e =
  let lvl = sum_level_stats e in
  {
    n_cycle = e.cycle;
    n_instr = fold_procs e Core.retired_instructions;
    n_l2 = fold_procs e Core.l2_misses;
    n_rm = fold_procs e Core.read_misses;
    n_rlat =
      Array.fold_left (fun a p -> a +. Core.read_miss_latency_sum p) 0.0 e.procs;
    n_l1 = fold_procs e Core.l1_misses;
    n_mf = fold_procs e Core.mshr_full_events;
    n_wf = fold_procs e Core.wbuf_full_events;
    n_pf = fold_procs e Core.prefetches;
    n_pfm = fold_procs e Core.prefetch_misses;
    n_lpf = fold_procs e Core.late_prefetches;
    n_lvl_h = Array.map (fun l -> l.Breakdown.lv_hits) lvl;
    n_lvl_m = Array.map (fun l -> l.Breakdown.lv_misses) lvl;
  }

let sample_of_deltas (a : snap) (b : snap) : Sampling.sample =
  {
    Sampling.s_cycles = b.n_cycle - a.n_cycle;
    s_instructions = b.n_instr - a.n_instr;
    s_l2_misses = b.n_l2 - a.n_l2;
    s_read_misses = b.n_rm - a.n_rm;
    s_read_miss_lat = b.n_rlat -. a.n_rlat;
    s_l1_misses = b.n_l1 - a.n_l1;
    s_mshr_full = b.n_mf - a.n_mf;
    s_wbuf_full = b.n_wf - a.n_wf;
    s_prefetches = b.n_pf - a.n_pf;
    s_prefetch_misses = b.n_pfm - a.n_pfm;
    s_late_prefetches = b.n_lpf - a.n_lpf;
    s_level_hits = Array.map2 ( - ) b.n_lvl_h a.n_lvl_h;
    s_level_misses = Array.map2 ( - ) b.n_lvl_m a.n_lvl_m;
  }

(* Short traces: the requested period would land too few windows for a
   meaningful estimate — a rare expensive phase (e.g. a serial reduction
   tail) can hold a quarter of the cycles yet be missed by every window.
   Refit period/window to the trace, preserving the requested detail
   fraction, so at least this many windows land. Long traces use the
   requested parameters unchanged. *)
let min_windows = 16

let fit_params (cfg : Config.t) (sp : Sampling.params) ~per_proc =
  if per_proc >= min_windows * sp.Sampling.period then sp
  else begin
    let period = max 64 (per_proc / min_windows) in
    let window =
      max (2 * cfg.Config.window)
        (period * sp.Sampling.window / max 1 sp.Sampling.period)
    in
    let window = min window (max 2 (period * 3 / 4)) in
    (* warm-up must outlast the reorder window: dependences severed at the
       reposition make up to one window-full of instructions artificially
       parallel *)
    let warmup =
      min (window / 2)
        (max cfg.Config.window
           (window * sp.Sampling.warmup / max 1 sp.Sampling.window))
    in
    { Sampling.period; window; warmup }
  end

let run_sampled e (sp : Sampling.params) =
  let nprocs = Array.length e.procs in
  let total_instructions =
    fold_procs e (fun p -> Trace.length (Core.trace p))
  in
  let per_proc =
    Array.fold_left (fun a p -> max a (Trace.length (Core.trace p))) 0 e.procs
  in
  let sp = fit_params e.sh.Core.h.Hierarchy.cfg sp ~per_proc in
  let samples = ref [] in
  let detailed_cycles = ref 0 in
  (* Jitter each fast-forward leg uniformly within ±half its length:
     strictly periodic window starts alias with periodic program phases
     (e.g. a loop nest whose body length divides the sampling period
     measures the same phase in every window). Deterministically seeded,
     so runs stay reproducible. *)
  let rng =
    Rng.create
      (0x5a3317ed + (31 * sp.Sampling.period) + (7 * sp.Sampling.window)
     + total_instructions)
  in
  let all_finished () = Array.for_all Core.finished e.procs in
  (* every processor has either retired [quota] instructions since its
     [base] count or has nothing left to fetch — windows stretch past
     barrier waits instead of cutting a lagging processor's window short,
     but a processor that is only draining its tail (write buffer, last
     window entries) cannot hold the others in detailed mode forever *)
  let quota_met quota base () =
    let ok = ref true in
    for p = 0 to nprocs - 1 do
      let c = e.procs.(p) in
      if
        (not (Core.finished c))
        && Core.position c < Trace.length (Core.trace c)
        && Core.retired_instructions c - base.(p) < quota
        (* [next_event = max_int] on an unfinished processor means it is
           only waiting on another processor's barrier arrival: in
           phase-pipelined programs (LU) some processor is always in
           that state, and letting it hold the window open degenerates
           the whole run to detailed mode. Probed at [e.cycle - 1]: right
           after an event jump a completion scheduled exactly at the
           jump target is not strictly after [e.cycle], and the processor
           would spuriously look barrier-blocked. *)
        && Core.next_event c ~now:(e.cycle - 1) <> max_int
      then ok := false
    done;
    !ok
  in
  let retired_now () =
    Array.map Core.retired_instructions e.procs
  in
  while not (all_finished ()) do
    let win_start_cycle = e.cycle in
    let win_start_retired = retired_now () in
    (* warm-up prefix: detailed, but excluded from the sample *)
    if sp.Sampling.warmup > 0 then
      ignore
        (advance e
           ~stop:(quota_met sp.Sampling.warmup win_start_retired));
    (* measured part of the window *)
    let m0 = snapshot e in
    let m0_retired = retired_now () in
    let live =
      advance e
        ~stop:
          (quota_met (sp.Sampling.window - sp.Sampling.warmup) m0_retired)
    in
    let m1 = snapshot e in
    if m1.n_instr > m0.n_instr then
      samples := sample_of_deltas m0 m1 :: !samples;
    detailed_cycles := !detailed_cycles + (e.cycle - win_start_cycle);
    (* fast-forward to the next window start *)
    if live && not (all_finished ()) then begin
      let span = e.cycle - win_start_cycle in
      let ret_d =
        Array.mapi
          (fun i p -> Core.retired_instructions p - win_start_retired.(i))
          e.procs
      in
      let sum_ret = Array.fold_left ( + ) 0 ret_d in
      let max_ret = Array.fold_left max 0 ret_d in
      if sum_ret = 0 then begin
        (* a window that retired nothing measured a pure wait state
           (write-buffer drain tails, a barrier everyone but a straggler
           has reached): there is no rate to extrapolate from, so run
           detailed until some instruction retires rather than spinning
           two-cycle windows with full per-window setup cost *)
        let base = retired_now () in
        ignore
          (advance e
             ~stop:(fun () ->
               Array.exists2
                 (fun p b -> Core.retired_instructions p > b)
                 e.procs base))
      end
      else begin
        let base_gap = sp.Sampling.period - sp.Sampling.window in
        let gap = (base_gap / 2) + Rng.int rng (max 1 (base_gap + 1)) in
        (* Bound the barrier-progress skew of the leg: with imbalanced
           traces, skipping every processor the same instruction count
           pushes barrier-dense processors many epochs ahead, and the
           next detailed window would then burn its whole span
           re-synchronising. No processor may cross more barriers than
           the fewest any live processor has in its own slice. *)
        let max_barriers = ref max_int in
        Array.iter
          (fun p ->
            if not (Core.finished p) then begin
              let tr = Core.trace p in
              let pos = Core.position p in
              let stop = min (Trace.length tr) (pos + gap) in
              let b = ref 0 in
              for i = pos to stop - 1 do
                if Trace.kind tr i = Trace.Barrier_op then incr b
              done;
              if !b < !max_barriers then max_barriers := !b
            end)
          e.procs;
        (* Each processor skips ahead in proportion to its share of the
           window's retirement: a processor that sat barrier-blocked all
           window stays put — its instructions execute in a later phase
           and will be sampled there — instead of being dragged forward
           at a rate measured while it was not running. The leg is then
           charged at the machine's aggregate throughput over the
           window: IPC = Σ retired / span, cost = Σ skipped / IPC. The
           machine-level rate prices in barrier waits, serial phases and
           overlap at their measured density, and is far less noisy than
           any per-processor CPI (a max over per-processor charges lets
           one briefly-blocked processor's inflated CPI set every leg). *)
        let rate = float_of_int span /. float_of_int sum_ret in
        let sum_ff = ref 0 in
        Array.iteri
          (fun i p ->
            if not (Core.finished p) then begin
              let gap_p = gap * ret_d.(i) / max_ret in
              if gap_p > 0 then begin
                let c =
                  Fastfwd.run p ~max_barriers:!max_barriers
                    ~upto:(Core.position p + gap_p) ~cpi:rate ()
                in
                sum_ff := !sum_ff + c.Fastfwd.ff_instructions
              end
            end)
          e.procs;
        let charge = int_of_float (ceil (float_of_int !sum_ff *. rate)) in
        (* the memory system's queueing backlog rides along, so the next
           window opens under steady-state contention rather than on an
           idle memory system *)
        Memsys.shift e.sh.Core.h.Hierarchy.mem ~from:e.cycle ~by:charge;
        e.cycle <- e.cycle + charge;
        resync e
      end
    end
  done;
  let estimated_cycles = e.cycle + 1 in
  let samples = List.rev !samples in
  let est =
    Sampling.estimate sp ~total_instructions ~estimated_cycles samples
  in
  (* breakdowns were only attributed during detailed cycles; scale each
     processor's to span the estimated run (the fast-forward legs are
     assumed to split like the windows they were extrapolated from) *)
  let per_proc =
    Array.map
      (fun p ->
        let bd = Core.breakdown p in
        let total = Breakdown.total bd in
        if total <= 0.0 then Breakdown.create ()
        else Breakdown.scale bd (float_of_int estimated_cycles /. total))
      e.procs
  in
  let breakdown = Breakdown.create () in
  Array.iter (fun bd -> Breakdown.add breakdown bd) per_proc;
  let breakdown = Breakdown.scale breakdown (1.0 /. float_of_int nprocs) in
  let count f = Sampling.extrapolate_count samples ~total:total_instructions f in
  (* bus/bank occupancy only accumulates while the detailed windows run *)
  let util_span = max 1 !detailed_cycles in
  let result =
    {
      cycles = estimated_cycles;
      breakdown;
      per_proc;
      read_mshr_hist = e.read_hist;
      total_mshr_hist = e.total_hist;
      level_stats =
        (let d = Core.hierarchy_depth e.procs.(0) in
         Array.init d (fun i ->
             {
               Breakdown.lv_name = Printf.sprintf "L%d" (i + 1);
               lv_hits = count (fun s -> s.Sampling.s_level_hits.(i));
               lv_misses = count (fun s -> s.Sampling.s_level_misses.(i));
             }));
      l2_misses = int_of_float (Float.round est.Sampling.l2_misses_ci.Sampling.est);
      read_misses =
        int_of_float (Float.round est.Sampling.read_misses_ci.Sampling.est);
      l1_misses = count (fun s -> s.Sampling.s_l1_misses);
      mshr_full_events = count (fun s -> s.Sampling.s_mshr_full);
      wbuf_full_events = count (fun s -> s.Sampling.s_wbuf_full);
      prefetches = count (fun s -> s.Sampling.s_prefetches);
      prefetch_misses = count (fun s -> s.Sampling.s_prefetch_misses);
      late_prefetches = count (fun s -> s.Sampling.s_late_prefetches);
      avg_read_miss_latency = est.Sampling.read_miss_latency_ci.Sampling.est;
      bus_utilization =
        Memsys.bus_utilization e.sh.Core.h.Hierarchy.mem ~upto:util_span;
      bank_utilization =
        Memsys.bank_utilization e.sh.Core.h.Hierarchy.mem ~upto:util_span;
      instructions = total_instructions;
      core_steps = e.core_steps;
      executed_cycles = e.executed_cycles;
    }
  in
  (result, est)

(* ------------------------------------------------------------------ *)

let run_estimated ?max_cycles ?watchdog_cycles ?time_budget ?mode
    (cfg : Config.t) ~home (lower : Lower.t) =
  let mode = resolve_mode ?mode cfg in
  let e = make_engine ?max_cycles ?watchdog_cycles ?time_budget cfg ~home lower in
  e.mode_name <- mode_to_string mode;
  match mode with
  | Cycle ->
      run_cycle e;
      (assemble_exact e, None)
  | Event ->
      ignore (advance e ~stop:(fun () -> false));
      (assemble_exact e, None)
  | Sampled sp ->
      let result, est = run_sampled e sp in
      (result, Some est)

let run ?max_cycles ?watchdog_cycles ?time_budget ?mode cfg ~home lower =
  fst
    (run_estimated ?max_cycles ?watchdog_cycles ?time_budget ?mode cfg ~home
       lower)

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
